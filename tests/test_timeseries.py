import copy
import datetime
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flunowcast.errors import EmptyOverlap, InsufficientOverlap, InvalidConfig, NegativeValue
from flunowcast.timeseries import (
    MIN_PAIRS,
    WeekStamp,
    WeeklySeries,
    iso_years,
    paired,
    scale_0_100,
    week_labels,
    week_numbers,
)

from .oracles import isocalendar_walk

W = WeekStamp


def series(start, values, label=""):
    return WeeklySeries(start, tuple(values), label)


def pairs(x, y, k):
    """The (x_t, y_{t+k}) value pairs that `paired` selects."""
    X, yv, _ = paired(x.start, x.values[:, None], y, k)
    return list(zip(X[:, 0].tolist(), yv.tolist()))


class TestWeekStamp:
    def test_ordering_is_lexicographic(self):
        assert W(2009, 52) < W(2010, 1) < W(2010, 2)

    def test_invalid_week_rejected(self):
        with pytest.raises(ValueError):
            W(2009, 54)
        with pytest.raises(ValueError):
            # 2010 has no ISO week 53
            W(2010, 53)

    def test_week_53_in_long_year(self):
        assert W(2009, 53).add(1) == W(2010, 1)

    def test_parse_round_trip(self):
        assert W.parse("2009-W01") == W(2009, 1)
        assert str(W(2013, 52)) == "2013-W52"
        for copied in (copy.deepcopy(W(2009, 53)), pickle.loads(pickle.dumps(W(2009, 53)))):
            assert type(copied) is W and repr(copied) == "2009-W53"
        for bad in ("2009/01", "2015-W 1", "2015-W001", "+201-W01", "２015-W01", "2015-W١"):
            with pytest.raises(ValueError):
                W.parse(bad)

    def test_add_and_distance_are_inverse(self):
        a = W(2009, 1)
        for k in range(-10, 300, 7):
            assert a.add(k) - a == k


class TestAlign:
    def test_identical_ranges_unchanged(self):
        a = series(W(2009, 1), [1, 2, 3, 4])
        b = series(W(2009, 1), [5, 6, 7, 8])
        assert paired(a.start, a.values[:, None], b, 0)[2] == 0
        assert pairs(a, b, 0) == list(zip(a.values, b.values))

    def test_partial_overlap(self):
        a = series(W(2009, 1), [1, 2, 3, 4, 5])
        b = series(W(2009, 3), [9, 8, 7, 6])
        # the shared weeks are 2009-W03..W05
        assert paired(a.start, a.values[:, None], b, 0)[2] == 0
        assert paired(b.start, b.values[:, None], a, 0)[2] == 2
        assert pairs(a, b, 0) == [(3.0, 9.0), (4.0, 8.0), (5.0, 7.0)]

    def test_disjoint_raises(self):
        a = series(W(2009, 1), [1, 2])
        b = series(W(2009, 5), [1, 2])
        with pytest.raises(EmptyOverlap):
            pairs(a, b, 0)
        with pytest.raises(EmptyOverlap):
            pairs(b, a, 0)

    def test_disjoint_is_the_zero_pair_case(self):
        assert issubclass(EmptyOverlap, InsufficientOverlap)

    @given(d=st.integers(-8, 8), nx=st.integers(1, 12), ny=st.integers(1, 12),
           k=st.integers(-2, 2))
    def test_window_matches_pairing_by_week_stamp(self, d, nx, ny, k):
        x_start = W(2009, 50)
        X = np.arange(nx, dtype=float)[:, None]  # each row holds its index
        y = series(x_start.add(d), range(ny))
        x_weeks = [x_start.add(i) for i in range(nx)]
        y_weeks = [y.start.add(j) for j in range(ny)]
        shared = set(x_weeks) & set(y_weeks)
        expected = [(i, y_weeks.index(w.add(k))) for i, w in enumerate(x_weeks)
                    if w in shared and w.add(k) in shared]
        if not shared:
            with pytest.raises(EmptyOverlap):
                paired(x_start, X, y, k)
        elif len(expected) < MIN_PAIRS:
            with pytest.raises(InsufficientOverlap):
                paired(x_start, X, y, k)
        else:
            rows, yv, yi = paired(x_start, X, y, k)
            assert list(zip(rows[:, 0].tolist(), yv.tolist())) == expected
            assert yi == expected[0][1]


class TestShiftPair:
    def setup_method(self):
        self.x = series(W(2009, 1), [10, 20, 30, 40])
        self.y = series(W(2009, 1), [1, 2, 3, 4])

    def test_zero_shift_equals_align(self):
        assert pairs(self.x, self.y, 0) == [(10, 1), (20, 2), (30, 3), (40, 4)]

    def test_positive_shift_lags_cases(self):
        assert pairs(self.x, self.y, 1) == [(10, 2), (20, 3), (30, 4)]

    def test_negative_shift_precedes_cases(self):
        assert pairs(self.x, self.y, -1) == [(20, 1), (30, 2), (40, 3)]

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientOverlap):
            pairs(self.x, self.y, 2)

    def test_shift_beyond_maximum_rejected(self):
        for k in (-3, 3):
            with pytest.raises(InvalidConfig, match=r"^\|shift\| = 3 exceeds maximum 2$"):
                pairs(self.x, self.y, k)

    def test_role_reversal_symmetry(self):
        assert pairs(self.x, self.y, 1) == [(x, y) for y, x in pairs(self.y, self.x, -1)]

    def test_stamped_pairs_carry_case_weeks(self):
        _, yv, yi = paired(self.x.start, self.x.values[:, None], self.y, 1)
        assert (yi, len(yv)) == (1, 3)
        case_weeks = [self.y.start.add(yi + i) for i in range(len(yv))]
        assert case_weeks == [W(2009, 2), W(2009, 3), W(2009, 4)]

    @given(k=st.integers(-2, 2), n=st.integers(5, 30))
    def test_pair_count(self, k, n):
        x = series(W(2009, 1), list(range(n)))
        y = series(W(2009, 1), list(range(n)))
        assert len(pairs(x, y, k)) == n - abs(k)


class TestWeekRange:
    """`week_labels` and `iso_years` over a range of weeks."""

    def test_steps_across_week_53(self):
        # 2009 has 53 ISO weeks, 2010 has 52
        assert week_labels(W(2009, 52), 3) == ["2009-W52", "2009-W53", "2010-W01"]
        assert week_labels(W(2010, 52), 2) == ["2010-W52", "2011-W01"]
        assert iso_years(W(2009, 52), 3).tolist() == [2009, 2009, 2010]

    def test_matches_add(self):
        for start in (W(2008, 30), W(2009, 53), W(2015, 1)):
            weeks = [start.add(i) for i in range(300)]
            assert week_labels(start, 300) == [str(w) for w in weeks]
            assert iso_years(start, 300).tolist() == [int(str(w)[:4]) for w in weeks]

    def test_empty(self):
        assert week_labels(W(2009, 1), 0) == []
        assert iso_years(W(2009, 1), 0).tolist() == []


# years whose ISO calendar has 53 weeks, and the first and last years
# a `date` holds
EDGE_YEARS = [1, 2, 4, 9, 2004, 2009, 2015, 2020, 2026, 9993, 9998, 9999]


@st.composite
def iso_weeks(draw):
    year = draw(st.one_of(st.integers(1, 9999), st.sampled_from(EDGE_YEARS)))
    week = draw(st.one_of(st.integers(1, 53), st.integers(50, 53)))
    if week == 53 and datetime.date(year, 12, 28).isocalendar()[1] != 53:
        week = 52
    return year, week


@st.composite
def week_spans(draw):
    return (*draw(iso_weeks()), draw(st.integers(0, 600)))


class TestWeekArithmetic:
    """Week numbers against `datetime` Mondays, across the whole calendar."""

    @given(iso_weeks(), iso_weeks(),
           st.one_of(st.integers(-600, 600), st.integers(-530_000, 530_000)))
    @settings(max_examples=1000)
    def test_matches_datetime(self, year_week_a, year_week_b, k):
        a, b = W(*year_week_a), W(*year_week_b)
        monday_a = datetime.date.fromisocalendar(*year_week_a, 1)
        monday_b = datetime.date.fromisocalendar(*year_week_b, 1)
        assert b - a == (monday_b - monday_a).days // 7
        assert (a < b) == (year_week_a < year_week_b)
        text = "%04d-W%02d" % year_week_a
        assert W.parse(text) == a and str(W.parse(text)) == text
        try:
            monday = monday_a + datetime.timedelta(weeks=k)
        except OverflowError:
            with pytest.raises(ValueError, match=f"from {text} is outside"):
                a.add(k)
            return
        assert a.add(k) - a == k
        assert str(a.add(k)) == "%04d-W%02d" % monday.isocalendar()[:2]


class TestCalendarWalk:
    """Week stamps and years against stepping a date one week at a time."""

    @given(week_spans())
    @settings(max_examples=500)
    def test_labels_and_years_match_isocalendar(self, span):
        year, week, n = span
        try:
            weeks = isocalendar_walk(year, week, n)
        except OverflowError:
            for past_the_calendar in (week_labels, iso_years):
                with pytest.raises(ValueError):
                    past_the_calendar(W(year, week), n)
            return
        assert week_labels(W(year, week), n) == ["%04d-W%02d" % w for w in weeks]
        assert iso_years(W(year, week), n).tolist() == [y for y, _ in weeks]

    def test_add_stops_at_the_calendar_ends(self):
        assert W(9999, 51).add(1) == W(9999, 52)
        assert W(1, 2).add(-1) == W(1, 1)
        for start, k in ((W(9999, 52), 1), (W(9999, 1), 52), (W(1, 1), -1)):
            with pytest.raises(ValueError):
                start.add(k)
        assert week_labels(W(9999, 50), 3)[-1] == "9999-W52"
        with pytest.raises(ValueError):
            week_labels(W(9999, 50), 4)


def parse_or_none(text):
    try:
        return int(W.parse(text))
    except ValueError:
        return None


class TestWeekNumbers:
    """The array week reader against `WeekStamp.parse`: the same number, or both refuse."""

    @staticmethod
    def read(texts):
        numbers, valid = week_numbers("".join(texts).encode("ascii"))
        return [n if ok else None for n, ok in zip(numbers.tolist(), valid.tolist())]

    def test_first_and_last_weeks_of_every_year(self):
        texts = ["%04d-W%02d" % (y, w) for y in range(10000) for w in (0, 1, 51, 52, 53, 54, 99)]
        assert self.read(texts) == [parse_or_none(t) for t in texts]

    def test_every_week_number_over_one_gregorian_cycle(self):
        texts = ["%04d-W%02d" % (y, w) for y in range(2001, 2401) for w in range(100)]
        assert self.read(texts) == [parse_or_none(t) for t in texts]

    def test_refuses_what_is_not_a_stamp(self):
        texts = ["2009/W01", "2009-w01", "2009-W1 ", "+209-W01", "2009-W0:", "200/-W01",
                 "\x7f009-W01"]
        assert self.read(texts) == [None] * len(texts) == [parse_or_none(t) for t in texts]

    def test_no_stamps(self):
        numbers, valid = week_numbers(b"")
        assert numbers.shape == valid.shape == (0,)


class TestScale0100:
    def test_exact_ratios(self):
        assert scale_0_100(series(W(2009, 1), [2, 4, 8])).values.tolist() == [25.0, 50.0, 100.0]

    def test_all_zero_unchanged(self):
        s = series(W(2009, 1), [0, 0, 0])
        assert scale_0_100(s).values.tolist() == [0.0, 0.0, 0.0]

    def test_round_half_up(self):
        assert scale_0_100(series(W(2009, 1), [3, 7, 9])).values.tolist() == [33.0, 78.0, 100.0]

    def test_negative_rejected(self):
        with pytest.raises(NegativeValue):
            scale_0_100(series(W(2009, 1), [1, -1]))

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
    def test_idempotent(self, values):
        s = series(W(2009, 1), [float(v) for v in values])
        once = scale_0_100(s)
        assert np.array_equal(scale_0_100(once).values, once.values)
        assert all(0 <= v <= 100 for v in once.values)


class TestWeeklySeries:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            WeeklySeries(W(2009, 1), ())
        with pytest.raises(ValueError):
            WeeklySeries(W(2009, 1), (1.0, math.inf))

    def test_end_and_lookup(self):
        s = series(W(2009, 51), [1, 2, 3, 4, 5])
        assert s.start.add(len(s) - 1) == W(2010, 2)  # 2009 has 53 ISO weeks
        assert s.values[W(2009, 53) - s.start] == 3.0
