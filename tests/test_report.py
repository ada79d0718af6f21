import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

from flunowcast.errors import EmptyLabel, MalformedHeader
from flunowcast.regress import in_sample_objective
from flunowcast.report import (
    figure_data,
    shift_row_label,
    table_model_by_shift,
    table_overall_annual,
    table_shift_scan,
)
from flunowcast.selection import greedy_select
from flunowcast.stats import paired_rows
from flunowcast.synth import ScenarioConfig, generate
from flunowcast.timeseries import WeekStamp, Weekly

from .frames import W0, panel_of, ws
from .oracles import definitional_pearson, json_sidecar, sorted_figure_data



def with_target_r(y_vals, target, seed):
    """A series with exactly the requested correlation against y_vals."""
    g = np.random.default_rng(seed)
    n = len(y_vals)
    z = g.normal(size=n)
    yc = (y_vals - y_vals.mean()) / y_vals.std()
    zc = z - (z @ yc / n) * yc
    zc /= zc.std()
    return target * yc + math.sqrt(1 - target ** 2) * zc + 5.0


class TestTableOverallAnnual:
    def test_engineered_annual_cells(self):
        # one query shaped like the paper's headline row: strong in the
        # first year, weak in the second, dead (zero variance) after
        rng = np.random.default_rng(50)
        y1 = rng.uniform(10, 100, size=53)  # 2009 has 53 ISO weeks
        y2 = rng.uniform(10, 100, size=52)
        y3 = rng.uniform(10, 100, size=52)
        x = np.concatenate([
            with_target_r(y1, 0.66, 1),
            with_target_r(y2, 0.29, 2),
            np.zeros(52),
        ])
        panel = panel_of([("q", x)])
        table = table_overall_annual(panel, ws(np.concatenate([y1, y2, y3])))
        assert table.columns == ("query", "overall", "2009", "2010", "2011")
        row = table.rows[0]
        assert row[0] == "q"
        assert row[2] == "0.66"
        assert row[3] == "0.29"
        assert row[4] == "NA"
        assert table.footnotes == ("NA: Not applicable", "p<0.05")

    def test_identical_series_all_ones(self):
        rng = np.random.default_rng(51)
        y_vals = rng.uniform(0, 100, size=120)
        table = table_overall_annual(panel_of([("q", y_vals)]), ws(y_vals))
        assert all(cell == "1.00" for cell in table.rows[0][1:])

    def test_constant_panel_all_na(self):
        table = table_overall_annual(
            panel_of([("q", np.full(60, 3.0))]),
            ws(np.random.default_rng(52).uniform(0, 10, size=60)),
        )
        assert all(cell == "NA" for cell in table.rows[0][1:])
        assert json.loads(table.to_sidecar_json())[0]["overall"]["na_reason"] == "ZeroVariance"

    def test_csv_is_byte_deterministic(self):
        rng = np.random.default_rng(53)
        y_vals = rng.uniform(0, 100, size=80)
        panel = panel_of([("q", 0.7 * y_vals + rng.normal(0, 20, 80))])
        t1 = table_overall_annual(panel, ws(y_vals))
        t2 = table_overall_annual(panel, ws(y_vals))
        assert t1.to_csv() == t2.to_csv()
        assert t1.to_sidecar_json() == t2.to_sidecar_json()


@pytest.fixture(scope="module")
def lead_fixture():
    cfg = ScenarioConfig(
        seed=60, weeks=150,
        epidemic_peaks=((25, 800, 3), (70, 1100, 4), (120, 900, 3)),
        lead_weeks=2, noise_sd=0.0, n_signal_queries=2,
    )
    return generate(cfg)


class TestTableShiftScan:
    def test_row_labels(self):
        assert shift_row_label(-2) == "2-week preceding"
        assert shift_row_label(0) == "0-week lagging"
        assert shift_row_label(2) == "2-week lagging"

    def test_monotone_rise_under_true_lead(self, lead_fixture):
        cases, panel = lead_fixture
        table = table_shift_scan(panel, cases)
        # overall monotonicity is checked per year on the sidecar values
        sidecar = json.loads(table.to_sidecar_json())
        for label in panel.labels:
            year_2009 = [row for row in sidecar if row["year"] == 2009]
            rs = [row["cells"][label]["value"] for row in year_2009]
            assert all(v is not None for v in rs)
            assert rs == sorted(rs)

    def test_zero_shift_rows_match_overall_annual_table(self, lead_fixture):
        cases, panel = lead_fixture
        scan = table_shift_scan(panel, cases)
        annual = table_overall_annual(panel, cases)
        years = [int(c) for c in annual.columns[2:]]
        for qi, label in enumerate(panel.labels):
            for yi, year in enumerate(years):
                zero_rows = [
                    r for r in scan.rows if r[0] == str(year) and r[1] == "0-week lagging"
                ]
                assert zero_rows[0][2 + qi] == annual.rows[qi][2 + yi]

    def test_all_na_year_gives_five_na_rows(self):
        rng = np.random.default_rng(61)
        y_vals = np.concatenate([rng.uniform(10, 100, size=52), np.zeros(52)])
        x = np.concatenate([y_vals[:52], np.zeros(52)])
        table = table_shift_scan(panel_of([("q", x)]), ws(y_vals))
        second_year = [r for r in table.rows if r[0] == "2010"]
        assert len(second_year) == 5
        assert all(r[2] == "NA" for r in second_year)


# starts just before ISO years with 53 weeks (2009, 2015, 2020), and one plain year
SCAN_STARTS = [WeekStamp(2009, 49), WeekStamp(2015, 51), WeekStamp(2020, 52), WeekStamp(2011, 1)]


@st.composite
def scan_inputs(draw):
    """An integer panel (some columns constant) and a case series that
    overlaps it partly, both starting near a W53 year boundary."""
    start = draw(st.sampled_from(SCAN_STARTS))
    n_weeks = draw(st.integers(1, 18))
    columns = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append([draw(st.integers(0, 100))] * n_weeks)
        else:
            columns.append(draw(st.lists(st.integers(0, 100), min_size=n_weeks, max_size=n_weeks)))
    panel = Weekly(start, tuple(f"q{j}" for j in range(len(columns))), np.column_stack(columns))
    n_cases = draw(st.integers(1, 18))
    cases = Weekly(
        start.add(draw(st.integers(-4, 4))), ("cases",),
        [[v] for v in draw(st.lists(st.integers(0, 30), min_size=n_cases, max_size=n_cases))],
    )
    shifts = tuple(sorted(draw(st.sets(st.integers(-2, 2), min_size=1))))
    alpha = draw(st.sampled_from([0.001, 0.05, 0.3]))
    return panel, cases, shifts, alpha


class TestShiftScanAgainstPairs:
    """Every shift-scan cell against pairs built by week stamp."""

    @given(scan_inputs())
    @settings(max_examples=300, deadline=None)
    def test_cells_match_pairs_built_by_week_stamp(self, inputs):
        panel, cases, shifts, alpha = inputs
        table = table_shift_scan(panel, cases, shifts, alpha)
        case_at = {cases.start.add(i): v for i, v in enumerate(cases.values)}
        columns = panel.matrix.T
        weeks = [panel.start.add(i) for i in range(len(panel.matrix))]
        shared = set(weeks) & set(case_at)
        years = sorted({int(str(w)[:4]) for w in case_at})
        sidecar = json.loads(table.to_sidecar_json())
        assert [(row["year"], row["shift"]) for row in sidecar] == [
            (yr, k) for yr in years for k in shifts
        ]
        for row in sidecar:
            yr, k = row["year"], row["shift"]
            # search week w pairs with case week w+k; the pair's year is the case week's
            rows = [i for i, w in enumerate(weeks)
                    if w in shared and w.add(k) in shared and int(str(w.add(k))[:4]) == yr]
            ys = [case_at[weeks[i].add(k)] for i in rows]
            for j, label in enumerate(panel.labels):
                cell = row["cells"][label]
                xs = [columns[j][i] for i in rows]
                if len(rows) < 3:
                    assert cell["na_reason"] == "TooFewPairs"
                    continue
                if len(set(xs)) == 1 or len(set(ys)) == 1:
                    assert cell["na_reason"] == "ZeroVariance"
                    continue
                r = definitional_pearson(xs, ys)
                assert cell["n"] == len(rows)
                assert abs(cell["value"] - r) <= 1e-12
                dof = len(rows) - 2
                p = 0.0 if r * r >= 1.0 else 2 * scipy_stats.t.sf(
                    abs(r) * np.sqrt(dof / (1.0 - r * r)), dof)
                if abs(p - alpha) > 1e-9:
                    assert cell["na_reason"] == ("NotSignificant" if p >= alpha else None)


class TestTableModelByShift:
    SHIFTS = (-2, -1, 0, 1, 2)

    def _chosen(self, panel, cases):
        return panel.subset(list(greedy_select(panel, cases, list(self.SHIFTS)).chosen_labels))

    def _best_shift(self, panel, cases):
        """The argmax shift of the chosen queries' objective, read from
        `in_sample_objective` (two-decimal cells can tie), after checking
        that the table prints those objectives."""
        chosen = self._chosen(panel, cases)
        objs = {k: in_sample_objective(*paired_rows(chosen, cases, k))
                for k in self.SHIFTS}
        table = table_model_by_shift(chosen, cases)
        assert table.rows == (("model",) + tuple(f"{objs[k]:.2f}" for k in self.SHIFTS),)
        assert table.sidecar == ""
        return max(objs, key=objs.get)

    def test_lead_fixture_maximized_at_plus_two(self):
        cfg = ScenarioConfig(
            seed=62, weeks=150,
            epidemic_peaks=((25, 800, 3), (70, 1100, 4), (120, 900, 3)),
            lead_weeks=2, noise_sd=0.0, n_signal_queries=2,
        )
        cases, panel = generate(cfg)
        assert self._best_shift(panel, cases) == 2

    def test_no_lead_fixture_maximized_at_zero(self):
        cfg = ScenarioConfig(
            seed=63, weeks=150,
            epidemic_peaks=((25, 800, 3), (70, 1100, 4), (120, 900, 3)),
            lead_weeks=0, noise_sd=0.0, n_signal_queries=2,
        )
        cases, panel = generate(cfg)
        assert self._best_shift(panel, cases) == 0

    def test_identity_fixture_cell_is_one(self):
        rng = np.random.default_rng(64)
        y_vals = rng.uniform(10, 100, size=60)
        panel = panel_of([("q", y_vals)])
        table = table_model_by_shift(self._chosen(panel, ws(y_vals)), ws(y_vals))
        cells = dict(zip(table.columns[1:], table.rows[0][1:]))
        assert cells["0-week lagging"] == "1.00"

    def test_header_order(self):
        rng = np.random.default_rng(65)
        y_vals = rng.uniform(10, 100, size=60)
        panel = panel_of([("q", y_vals)])
        table = table_model_by_shift(self._chosen(panel, ws(y_vals)), ws(y_vals))
        assert table.columns == (
            "dataset",
            "2-week preceding", "1-week preceding", "0-week lagging",
            "1-week lagging", "2-week lagging",
        )


@st.composite
def figure_specs(draw):
    """(label, start, values) of 1-6 series, the start in weeks from 2015-W50
    (2015 has 53 weeks): free ranges, and ranges nested in or disjoint from
    the first. Labels repeat and hold %-directives but no comma or line
    break; values round to -0.00, sit on half cents or run up to 1e300."""
    label = st.one_of(
        st.sampled_from(["cases", "estimates", "q1", "q10", "q2", "%", "%%", "%s", "%(x)s",
                         "grippe é", "流感"]),
        st.text(st.characters(exclude_characters=",\n\r"), min_size=1, max_size=4))
    value = st.one_of(
        st.integers(-100_000, 100_000).map(lambda c: c / 1000),
        st.sampled_from([-0.0, -0.001, -0.004999, 0.005, 0.125, 2.675, -2.675, 1e300, -1e300]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
    at0, n0 = draw(st.integers(-6, 40)), draw(st.integers(1, 20))
    specs = [(draw(label), at0, draw(st.lists(value, min_size=n0, max_size=n0)))]
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.one_of(st.integers(-6, 40),  # free
                            st.integers(at0, at0 + n0 - 1),  # nested
                            st.integers(at0 + n0, at0 + n0 + 5)))  # disjoint, after the first
        n = draw(st.integers(1, at0 + n0 - at if at0 <= at < at0 + n0 else 20))
        specs.append((draw(label), at, draw(st.lists(value, min_size=n, max_size=n))))
    return specs


class TestFigureData:
    def test_two_series_six_rows(self):
        data = figure_data([ws([1, 2, 3], "a"), ws([4, 5, 6], "b")])
        lines = data.decode().strip().split("\n")
        assert lines[0] == "week,label,value"
        assert len(lines) == 7
        assert lines[1] == "2009-W01,a,1.00"
        assert lines[2] == "2009-W01,b,4.00"

    def test_byte_stable(self):
        series = [ws([1.5, 2.25], "estimates"), ws([1, 2], "actual")]
        assert figure_data(series) == figure_data(series)

    def test_empty_label_rejected(self):
        with pytest.raises(EmptyLabel):
            figure_data([ws([1, 2, 3])])

    def test_no_series_rejected(self):
        with pytest.raises(EmptyLabel, match="^figure needs at least one series$"):
            figure_data([])

    @pytest.mark.parametrize("label", ["a,b", "x\ny", "x\ry", ",", "\ud800", "a\udfff"])
    def test_label_it_cannot_write_rejected(self, label):
        with pytest.raises(MalformedHeader, match="^figure labels must be non-empty UTF-8, "
                                                  "without commas or line breaks$"):
            figure_data([ws([1, 2, 3], "actual"), ws([1.0], label)])

    def test_a_panel_frame_is_its_columns(self):
        cases = ws([5, 6, 7, 8], "cases")
        panel = Weekly(W0.add(1), ("q2", "a"), [[1, 2], [3, 4.5]])
        assert figure_data([cases, panel]) == figure_data(
            [cases, panel.subset(["q2"]), panel.subset(["a"])])
        assert figure_data([cases, panel]) == sorted_figure_data([cases, panel])

    def test_round_trip(self):
        data = figure_data([ws([1.5, 2.25, 3.0], "est"), ws([1, 2, 3], "actual")])
        parsed = [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]
        parsed = [(w, l, float(v)) for w, l, v in parsed]
        assert len(parsed) == 6
        rebuilt = figure_data([
            ws([v for w, l, v in parsed if l == "est"], "est"),
            ws([v for w, l, v in parsed if l == "actual"], "actual"),
        ])
        assert rebuilt == data

    @given(figure_specs())
    @settings(max_examples=300, deadline=None)
    # 0.0 and -0.0 are equal values of different bits: each prints as itself
    @example([("q", 0, [0.0, -0.0, 0.0, -0.0])])
    @example([("a", 0, [-0.0, 0.0, 1.0]), ("b", 1, [0.0, -0.0]), ("a", 2, [-0.0])])
    # a lone surrogate has no UTF-8 form, so no figure row can hold it
    @example([("q", 0, [1.0]), ("\ud800", 1, [2.0])])
    def test_matches_one_stable_sort_of_all_rows(self, specs):
        # different starts and lengths, gaps between ranges, nested ranges, equal labels
        base = WeekStamp(2015, 50)
        frames = [Weekly(base.add(at), (label,), [[v] for v in values])
                  for label, at, values in specs]
        try:
            "".join(label for label, _, _ in specs).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(MalformedHeader):
                figure_data(frames)
        else:
            assert figure_data(frames) == sorted_figure_data(frames)


# labels that JSON must escape (quotes, backslashes, control characters), U+2028, text
# past ASCII, and %-directives, which the sidecar's %-templates must not read
SIDECAR_LABELS = st.one_of(
    st.text(min_size=1, max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "\u2028\u2029", "grippe é 流感 🦠",
                     "%", "%%", "%s", "%(x)s", "%d"]),
)


@st.composite
def sidecar_inputs(draw):
    """scan_inputs() with labels drawn from SIDECAR_LABELS."""
    panel, cases, shifts, alpha = draw(scan_inputs())
    width = len(panel.labels)
    labels = draw(st.lists(SIDECAR_LABELS, min_size=width, max_size=width, unique=True))
    return Weekly(panel.start, tuple(labels), panel.matrix), cases, shifts, alpha


class TestSidecarJson:
    """A sidecar is exactly what json.dumps(indent=2, ensure_ascii=False) writes."""

    @given(sidecar_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_standard_encoder(self, inputs):
        panel, cases, shifts, alpha = inputs
        tables = [
            (table_overall_annual(panel, cases, alpha, shifts[0]),
             lambda row: [row["overall"], *row["years"].values()]),
            (table_shift_scan(panel, cases, shifts, alpha), lambda row: row["cells"].values()),
        ]
        for table, cells in tables:
            s = table.to_sidecar_json()
            rows = json.loads(s)
            assert json_sidecar(rows).encode("utf-8") == s
            for cell in (cell for row in rows for cell in cells(row)):
                untested = cell["na_reason"] in ("ZeroVariance", "TooFewPairs")
                assert [cell[key] is None for key in ("value", "p", "n")] == [untested] * 3
                if not untested:
                    assert (cell["na_reason"] == "NotSignificant") == (cell["p"] >= alpha)
