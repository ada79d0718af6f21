import copy
import datetime
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flunowcast.errors import EmptyOverlap, InsufficientOverlap, InvalidConfig, NegativeValue
from flunowcast.timeseries import (
    MIN_PAIRS,
    WeekStamp,
    Weekly,
    iso_years,
    paired,
    scale_0_100,
    week_labels,
    week_numbers,
)

from .oracles import isocalendar_walk, iso_week_number, series_scale_0_100, stamp_week_number

W = WeekStamp


def series(start, values, label=""):
    """A one-column frame of `values` from `start`."""
    return Weekly(start, (label,), [[v] for v in values])


def pairs(x, y, k):
    """The (x_t, y_{t+k}) value pairs that `paired` selects."""
    X, yv, _ = paired(x, y, k)
    return list(zip(X[:, 0].tolist(), yv.tolist()))


def outcome(parse, *args):
    """What `parse` makes of `args`: a week number, or its InvalidConfig's message."""
    try:
        return int(parse(*args))
    except InvalidConfig as exc:
        return str(exc)


class TestWeekStamp:
    def test_ordering_is_lexicographic(self):
        assert W(2009, 52) < W(2010, 1) < W(2010, 2)

    def test_invalid_week_rejected(self):
        with pytest.raises(InvalidConfig, match="^invalid ISO week 2009-W54$"):
            W(2009, 54)
        with pytest.raises(InvalidConfig, match="^invalid ISO week 2010-W53$"):
            # 2010 has no ISO week 53
            W(2010, 53)

    def test_construction_matches_the_calendar(self):
        args = [(y, w) for y in range(10001) for w in (0, 1, 52, 53, 54)] + [(-1, 1), (10**30, 1)]
        assert [outcome(W, *a) for a in args] == [outcome(iso_week_number, *a) for a in args]
        assert outcome(W, 2009, 54) == "invalid ISO week 2009-W54"

    def test_week_53_in_long_year(self):
        assert W(2009, 53).add(1) == W(2010, 1)

    def test_parse_round_trip(self):
        assert W.parse("2009-W01") == W(2009, 1)
        assert str(W(2013, 52)) == "2013-W52"
        for copied in (copy.deepcopy(W(2009, 53)), pickle.loads(pickle.dumps(W(2009, 53)))):
            assert type(copied) is W and repr(copied) == "2009-W53"
        for bad in ("2009/01", "2015-W 1", "2015-W001", "+201-W01", "２015-W01", "2015-W١"):
            with pytest.raises(InvalidConfig, match="^not a YYYY-Www week stamp: "):
                W.parse(bad)

    def test_add_and_distance_are_inverse(self):
        a = W(2009, 1)
        for k in range(-10, 300, 7):
            assert a.add(k) - a == k


class TestAlign:
    def test_identical_ranges_unchanged(self):
        a = series(W(2009, 1), [1, 2, 3, 4])
        b = series(W(2009, 1), [5, 6, 7, 8])
        assert paired(a, b, 0)[2] == 0
        assert pairs(a, b, 0) == list(zip(a.values, b.values))

    def test_partial_overlap(self):
        a = series(W(2009, 1), [1, 2, 3, 4, 5])
        b = series(W(2009, 3), [9, 8, 7, 6])
        # the shared weeks are 2009-W03..W05
        assert paired(a, b, 0)[2] == 0
        assert paired(b, a, 0)[2] == 2
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
        x = Weekly(x_start, ("x",), np.arange(nx, dtype=float)[:, None])  # each row holds its index
        y = series(x_start.add(d), range(ny))
        x_weeks = [x_start.add(i) for i in range(nx)]
        y_weeks = [y.start.add(j) for j in range(ny)]
        shared = set(x_weeks) & set(y_weeks)
        expected = [(i, y_weeks.index(w.add(k))) for i, w in enumerate(x_weeks)
                    if w in shared and w.add(k) in shared]
        if not shared:
            with pytest.raises(EmptyOverlap):
                paired(x, y, k)
        elif len(expected) < MIN_PAIRS:
            with pytest.raises(InsufficientOverlap):
                paired(x, y, k)
        else:
            rows, yv, yi = paired(x, y, k)
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
        _, yv, yi = paired(self.x, self.y, 1)
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
            with pytest.raises(InvalidConfig, match=f"from {text} is outside"):
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
                with pytest.raises(InvalidConfig, match=" is outside 0001-W01..9999-W52$"):
                    past_the_calendar(W(year, week), n)
            return
        assert week_labels(W(year, week), n) == ["%04d-W%02d" % w for w in weeks]
        assert iso_years(W(year, week), n).tolist() == [y for y, _ in weeks]

    def test_add_stops_at_the_calendar_ends(self):
        assert W(9999, 51).add(1) == W(9999, 52)
        assert W(1, 2).add(-1) == W(1, 1)
        for start, k in ((W(9999, 52), 1), (W(9999, 1), 52), (W(1, 1), -1)):
            message = f"{k:+d} weeks from {start} is outside 0001-W01..9999-W52"
            with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
                start.add(k)
        assert week_labels(W(9999, 50), 3)[-1] == "9999-W52"
        with pytest.raises(InvalidConfig, match="^[+]3 weeks from 9999-W50 is outside "):
            week_labels(W(9999, 50), 4)


def stamps(years, weeks):
    return ["%04d-W%02d" % (y, w) for y in years for w in weeks]


class TestWeekNumbers:
    """The array week reader and `WeekStamp.parse` against the oracle of a
    regular expression and `date.fromisocalendar`: the same number, or both
    refuse, `parse` in the oracle's words."""

    @staticmethod
    def read(texts):
        numbers, formed, valid = week_numbers("".join(texts).encode("ascii"))
        assert formed.tolist() == [bool(re.fullmatch(r"[0-9]{4}-W[0-9]{2}", t)) for t in texts]
        return [n if ok else None for n, ok in zip(numbers.tolist(), valid.tolist())]

    @staticmethod
    def oracle(texts):
        return [n if isinstance(n, int) else None
                for n in (outcome(stamp_week_number, t) for t in texts)]

    def test_first_and_last_weeks_of_every_year(self):
        texts = stamps(range(10000), (0, 1, 51, 52, 53, 54, 99))
        assert self.read(texts) == self.oracle(texts)
        some = texts[::11]  # a parse is one stamp's array step, so a sample of them
        assert [outcome(W.parse, t) for t in some] == [outcome(stamp_week_number, t) for t in some]

    def test_every_week_number_over_one_gregorian_cycle(self):
        texts = stamps(range(2001, 2401), range(100))
        assert self.read(texts) == self.oracle(texts)

    def test_every_stamp_of_every_year(self):
        for first in range(0, 10000, 1000):
            texts = stamps(range(first, first + 1000), range(100))
            assert self.read(texts) == self.oracle(texts)

    def test_refuses_what_is_not_a_stamp(self):
        texts = ["2009/W01", "2009-w01", "2009-W1 ", "+209-W01", "2009-W0:", "200/-W01",
                 "\x7f009-W01"]
        assert self.read(texts) == [None] * len(texts) == self.oracle(texts)
        for text in texts + ["２009-W05", "2015-W١", "2009-W5", "2009-W001", ""]:
            assert outcome(W.parse, text) == outcome(stamp_week_number, text)
            assert outcome(W.parse, text) == f"not a YYYY-Www week stamp: {text!r}"

    def test_no_stamps(self):
        numbers, formed, valid = week_numbers(b"")
        assert numbers.shape == formed.shape == valid.shape == (0,)


def column(values):
    return np.array(values, dtype=float)[:, None]


class TestScale0100:
    def test_exact_ratios(self):
        assert scale_0_100(column([2, 4, 8]))[:, 0].tolist() == [25.0, 50.0, 100.0]

    def test_all_zero_unchanged(self):
        assert scale_0_100(column([0, 0, 0]))[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_round_half_up(self):
        assert scale_0_100(column([3, 7, 9]))[:, 0].tolist() == [33.0, 78.0, 100.0]

    def test_multiplies_before_it_divides(self):
        # 100 * 145 / 232 is 62.5 exactly; 145 * (100 / 232) rounds below it
        assert scale_0_100(column([145, 232]))[:, 0].tolist() == [63.0, 100.0]

    def test_negative_rejected(self):
        with pytest.raises(NegativeValue, match="^negative value in column 1$"):
            scale_0_100(np.array([[1.0, 2.0], [2.0, -1.0]]))

    def test_in_place(self):
        m = np.array([[1.0, 0.0], [4.0, 0.0]])
        assert scale_0_100(m) is m
        assert m.tolist() == [[25.0, 0.0], [100.0, 0.0]]

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
    def test_idempotent(self, values):
        once = scale_0_100(column(values))
        assert np.array_equal(scale_0_100(once.copy()), once)
        assert all(0 <= v <= 100 for v in once[:, 0])

    @given(st.integers(1, 40).flatmap(lambda n: st.lists(st.one_of(
        st.just([0.0] * n), st.just([-0.0] * n), st.just([100.0] * n),
        st.lists(st.integers(0, 10_000).map(float), min_size=n, max_size=n),
        st.lists(st.floats(0, 1e300), min_size=n, max_size=n)), min_size=1, max_size=8)))
    @settings(max_examples=200)
    def test_matches_the_series_function_column_by_column(self, columns):
        m = np.column_stack(columns)
        scaled = scale_0_100(m.copy())
        for j, values in enumerate(columns):
            want = series_scale_0_100(values)
            assert np.array_equal(scaled[:, j], want)
            assert scaled[:, j].tobytes() == want.tobytes()  # an all -0.0 column stays -0.0


class TestWeekly:
    """The frame's contract, and the one-column estimates the benchmark's tracer reads."""

    @pytest.mark.parametrize("labels, matrix, message", [
        ((), np.empty((3, 0)), "panel needs at least one column"),
        (("a", "b", "a"), [[1.0, 2.0, 3.0]], "panel labels must be distinct: 'a' is repeated"),
        (("a", "b"), [[1.0, 2.0, 3.0]], r"matrix shape \(1, 3\) is not weeks x 2 columns"),
        (("a",), [1.0, 2.0], r"matrix shape \(2,\) is not weeks x 1 columns"),
        (("a",), np.empty((0, 1)), "panel must hold at least one week"),
        (("a", "b"), [[1.0, 2.0], [3.0, math.inf]], "panel values must be finite"),
        (("a",), [[math.nan]], "panel values must be finite"),
    ], ids=["no labels", "repeated label", "wrong width", "one-dimensional", "zero weeks",
            "infinite value", "NaN"])
    def test_constructor_refusals(self, labels, matrix, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            Weekly(W(2009, 1), labels, matrix)

    def test_matrix_is_a_read_only_c_order_float_copy(self):
        given = np.asfortranarray([[1, 2], [3, 4]])
        f = Weekly(W(2009, 1), ["a", "b"], given)
        assert f.labels == ("a", "b")
        assert f.matrix.dtype == np.float64 and f.matrix.flags.c_contiguous
        given[0, 0] = 9
        assert f.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 5.0

    def test_equality_is_nan_equal_and_type_strict(self):
        def frame(v, start=W(2009, 1), labels=("a",)):
            return Weekly(start, labels, [[v], [2.0]])
        assert frame(1.0) == frame(1.0) and frame(0.0) == frame(-0.0)
        assert frame(1.0) != frame(1.5)
        assert frame(1.0) != frame(1.0, W(2009, 2))
        assert frame(1.0) != frame(1.0, labels=("b",))
        assert frame(1.0) != (W(2009, 1), ("a",), np.array([[1.0], [2.0]]))
        assert frame(1.0).__eq__(vars(frame(1.0))) is NotImplemented
        # the constructor refuses NaN, so only a matrix set past it shows == take NaN as equal
        f, g = frame(1.0), frame(1.0)
        for h in (f, g):
            object.__setattr__(h, "matrix", np.array([[np.nan], [2.0]]))
        assert f == g

    def test_values_is_the_one_column(self):
        s = series(W(2009, 51), [1, 2, 3, 4, 5], "cases")
        assert s.values.shape == (5,) and s.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert s.start.add(len(s.matrix) - 1) == W(2010, 2)  # 2009 has 53 ISO weeks
        assert s.values[W(2009, 53) - s.start] == 3.0
        with pytest.raises(InvalidConfig, match="^a frame of 2 columns has no single column$"):
            Weekly(W(2009, 1), ("a", "b"), [[1.0, 2.0]]).values
