import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flunowcast import ingest, selection, stats, synth
from flunowcast.errors import NoUsableQuery
from flunowcast.regress import candidate_objectives, in_sample_objective
from flunowcast.selection import IMPROVEMENT_EPS, SelectionResult, greedy_select
from flunowcast.timeseries import ALPHA, Weekly, paired

from .frames import panel_of, ws
from .oracles import exhaustive_best_subset, greedy_forward

SHIFTS = [-2, -1, 0, 1, 2]


class TestGreedySelect:
    def test_exact_signal_plus_noise(self):
        rng = np.random.default_rng(30)
        y_vals = rng.uniform(10, 100, size=80)
        panel = panel_of([("x1", y_vals), ("x2", rng.uniform(0, 100, size=80))])
        result = greedy_select(panel, ws(y_vals), [0])
        assert result.chosen_labels == ("x1",)
        assert result.objective == pytest.approx(1.0, abs=1e-9)
        best_set, best_r = exhaustive_best_subset(
            {"x1": np.array(y_vals), "x2": panel.matrix[:, 1]}, y_vals
        )
        assert result.objective >= best_r - 1e-9

    def test_two_orthogonal_signals(self):
        rng = np.random.default_rng(31)
        x1 = rng.uniform(0, 100, size=80)
        x2 = rng.uniform(0, 100, size=80)
        y_vals = x1 + x2
        panel = panel_of([("x1", x1), ("x2", x2)])
        result = greedy_select(panel, ws(y_vals), [0])
        assert set(result.chosen_labels) == {"x1", "x2"}
        assert result.objective == pytest.approx(1.0, abs=1e-9)

    def test_single_query_panel(self):
        rng = np.random.default_rng(32)
        y_vals = rng.uniform(0, 50, size=40)
        panel = panel_of([("only", y_vals + rng.normal(0, 2, size=40))])
        result = greedy_select(panel, ws(y_vals), [0])
        assert result.chosen_labels == ("only",)
        assert len(result.trace) == 1

    def test_no_usable_query(self):
        panel = panel_of([("flat", np.full(30, 7.0))])
        with pytest.raises(NoUsableQuery):
            greedy_select(panel, ws(np.linspace(0, 10, 30)), SHIFTS)

    def test_a_shift_whose_top_query_has_no_one_query_fit_is_skipped(self):
        # tiny tracks the cases at shift 0 and passes the gate, but at 1e-12 its one-query
        # design fails the rank test, which is scaled by the intercept column; lead
        # leads the cases by one week
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 100, size=61)
        y = ws(base[:60])
        tiny = ("tiny", (base[:60] + rng.normal(0, 2, size=60)) * 1e-12)
        X, yv = stats.paired_rows(panel_of([tiny]), y, 0)
        assert stats.gated_columns([(X, yv)], ALPHA)[0].reason.tolist() == [0]
        assert in_sample_objective(X, yv) is None
        result = greedy_select(panel_of([tiny, ("lead", base[1:])]), y, [0, 1])
        assert (result.chosen_labels, result.best_shift) == (("lead",), 1)
        with pytest.raises(NoUsableQuery):
            greedy_select(panel_of([tiny]), y, [0, 1])

    def test_trace_strictly_increasing(self):
        rng = np.random.default_rng(33)
        y_vals = rng.uniform(0, 100, size=100)
        cols = [(f"q{i}", 0.5 * y_vals + rng.normal(0, 40, size=100)) for i in range(6)]
        result = greedy_select(panel_of(cols), ws(y_vals), SHIFTS)
        objs = [o for _, _, o in result.trace]
        assert all(b > a for a, b in zip(objs, objs[1:]))

    def test_final_objective_matches_reevaluation(self):
        rng = np.random.default_rng(34)
        y_vals = rng.uniform(0, 100, size=100)
        cols = [(f"q{i}", 0.4 * y_vals + rng.normal(0, 50, size=100)) for i in range(5)]
        panel = panel_of(cols)
        result = greedy_select(panel, ws(y_vals), SHIFTS)
        chosen = panel.subset(list(result.chosen_labels))
        fresh = in_sample_objective(
            *stats.paired_rows(chosen, ws(y_vals), result.best_shift))
        assert result.objective == pytest.approx(fresh, abs=1e-12)

    def test_picks_best_shift(self):
        rng = np.random.default_rng(35)
        y_vals = rng.uniform(10, 100, size=60)
        lead = np.concatenate([y_vals[2:], [10.0, 10.0]])  # x_t = y_{t+2}
        result = greedy_select(panel_of([("lead", lead)]), ws(y_vals), SHIFTS)
        assert result.best_shift == 2

    def test_determinism(self):
        rng = np.random.default_rng(36)
        y_vals = rng.uniform(0, 100, size=80)
        cols = [(f"q{i}", 0.5 * y_vals + rng.normal(0, 30, size=80)) for i in range(5)]
        panel = panel_of(cols)
        a = greedy_select(panel, ws(y_vals), SHIFTS)
        b = greedy_select(panel, ws(y_vals), SHIFTS)
        assert a == b

    def test_never_beats_exhaustive(self):
        rng = np.random.default_rng(37)
        for trial in range(10):
            y_vals = rng.uniform(0, 100, size=60)
            cols = {
                f"q{i}": 0.6 * y_vals + rng.normal(0, 60, size=60) for i in range(5)
            }
            cols = {k: np.clip(v, 0, None) for k, v in cols.items()}
            panel = panel_of(list(cols.items()))
            try:
                result = greedy_select(panel, ws(y_vals), [0])
            except NoUsableQuery:
                continue
            _, best_r = exhaustive_best_subset(cols, y_vals)
            assert result.objective <= best_r + 1e-9


class TestCandidates:
    """Which queries greedy selection starts from, and in what order."""

    def test_prescored_fixture_starts_from_the_best_query(self):
        # three queries built to reproduce the screening order of a
        # pre-scored fixture: 0.50 > 0.43 > 0.39 individual correlations
        rng = np.random.default_rng(7)
        y_vals = rng.uniform(0, 100, size=200)
        yc = (y_vals - y_vals.mean()) / y_vals.std()

        def with_target_r(target, seed):
            z = np.random.default_rng(seed).normal(size=200)
            zc = z - (z @ yc / 200) * yc
            return target * yc + np.sqrt(1 - target ** 2) * zc / zc.std()

        panel = panel_of([
            ("virus H1N1", with_target_r(0.39, 3)),
            ("H1N1 vaccine", with_target_r(0.43, 2)),
            ("H1N1", with_target_r(0.50, 1)),
        ])
        assert greedy_select(panel, ws(y_vals), [0]).trace[0][1] == "H1N1"

    def test_equal_queries_start_from_the_first_label(self):
        y_vals = np.linspace(1.0, 30.0, 30) ** 1.5
        result = greedy_select(panel_of([("b", y_vals), ("a", y_vals)]), ws(y_vals), [0])
        assert result.chosen_labels[0] == "a"

    def test_flat_or_negative_query_is_never_chosen(self):
        rng = np.random.default_rng(6)
        y_vals = rng.uniform(0, 50, size=40)
        noise = rng.normal(size=40)
        panel = panel_of([
            ("flat", np.zeros(40)),
            ("negative", 60 - y_vals + noise),
            ("weak", 0.5 * y_vals + 20 * noise),
            ("best", y_vals + 0.01 * noise),
        ])
        result = greedy_select(panel, ws(y_vals), [0])
        assert result.chosen_labels[0] == "best"
        assert {"flat", "negative"}.isdisjoint(result.chosen_labels)
        with pytest.raises(NoUsableQuery):
            greedy_select(panel.subset(["flat", "negative"]), ws(y_vals), [0])

    def test_several_shifts_give_the_best_one_shift_call(self):
        rng = np.random.default_rng(9)
        y_vals = rng.uniform(0, 10, size=40)
        shifts = [-2, 0, 1]
        for trial in range(5):
            # each query follows the cases at its own lag, so every shift has candidates
            panel = panel_of([(f"q{i}", np.roll(y_vals, -k) + rng.uniform(0, 8, size=40))
                              for i, k in enumerate(shifts + [0])])
            singles = [greedy_select(panel, ws(y_vals), [k]) for k in shifts]
            best = max(singles, key=lambda s: s.objective)  # the first of equals
            assert greedy_select(panel, ws(y_vals), shifts) == best

    def test_the_earlier_shift_wins_a_tie(self):
        # a period-2 series: shifts 0 and 2 pair the query with the same values
        y_vals = np.tile([10.0, 40.0], 20)
        panel = panel_of([("q", y_vals)])
        zero, two = (greedy_select(panel, ws(y_vals), [k]) for k in (0, 2))
        assert zero.objective == two.objective
        assert greedy_select(panel, ws(y_vals), [2, 0]).best_shift == 2
        assert greedy_select(panel, ws(y_vals), [0, 2]).best_shift == 0


class TestShiftBound:
    """Greedy selection runs only at shifts whose whole-pool bound can still win."""

    @staticmethod
    def counting_runs(monkeypatch):
        """The shifts `_greedy_one_shift` runs at, in order, and their outcomes."""
        runs, real = [], selection._greedy_one_shift

        def counted(X, yv, k, labels, pool):
            runs.append((k, real(X, yv, k, labels, pool)))
            return runs[-1][1]

        monkeypatch.setattr(selection, "_greedy_one_shift", counted)
        return runs

    def test_select_scenario_runs_only_the_winning_shift(self, monkeypatch):
        # the select workload's scenario, through its CSV files: shift 2's search reaches
        # within 1e-4 of 1, above every other shift's whole-pool bound
        peaks = ((20, 800, 3), (50, 1200, 4), (110, 900, 3), (160, 400, 3), (215, 300, 3))
        cases, panel = synth.generate(synth.ScenarioConfig(
            seed=42, weeks=261, epidemic_peaks=peaks, lead_weeks=2, noise_sd=0.5,
            n_signal_queries=8, n_noise_queries=12))
        cases = ingest.parse_cases_csv(ingest.write_cases_csv(cases))
        panel = ingest.parse_trends_csv(ingest.write_trends_csv(panel))
        singles = [greedy_select(panel, cases, [k], 0.001) for k in SHIFTS]
        runs = self.counting_runs(monkeypatch)
        result = greedy_select(panel, cases, SHIFTS, 0.001)
        assert [k for k, _ in runs] == [2]
        assert result == max(singles, key=lambda s: s.objective) == singles[-1]

    def test_a_singular_pool_has_no_bound_and_runs_first_and_in_full(self, monkeypatch):
        # a and its copy pass the gate at shift 0 only, lead at shift 1 only; shift 1
        # wins, and a bounded shift 0 would have been skipped
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 100, size=81)
        y = ws(base[:80])
        a = base[:80] + rng.normal(0, 40, size=80)
        panel = panel_of([("a", a), ("a2", a), ("lead", base[1:] + rng.normal(0, 1, size=80))])
        windows = [stats.paired_rows(panel, y, k) for k in (0, 1)]
        pools = [[j for j, (r, code) in enumerate(zip(c.r, c.reason)) if code == 0 and r > 0]
                 for c in stats.gated_columns(windows, ALPHA)]
        assert pools == [[0, 1], [2]]
        (X0, yv0), (X1, yv1) = windows
        assert in_sample_objective(X0[:, [0, 1]], yv0) is None
        assert in_sample_objective(X0[:, [0]], yv0) < in_sample_objective(X1[:, [2]], yv1)
        alone = greedy_select(panel, y, [0])
        runs = self.counting_runs(monkeypatch)
        result = greedy_select(panel, y, [1, 0])
        assert runs == [(0, alone), (1, result)]
        assert result.chosen_labels == ("lead",)
        assert result == reference_select(panel, y, [1, 0])

    def test_an_exact_tie_keeps_the_earlier_shift_though_the_later_ran_first(self):
        # period-2 cases: q pairs with the same values at shifts 0 and 2, and d copies q
        # on shift 2's rows only, so shift 2's pool has no bound and runs first; both
        # shifts reach 1.0
        y_vals = np.tile([10.0, 40.0], 20)
        d = y_vals.copy()
        d[38:] += [5.0, 7.0]
        panel = panel_of([("q", y_vals), ("d", d)])
        zero, two = (greedy_select(panel, ws(y_vals), [k]) for k in (0, 2))
        assert (zero.chosen_labels, two.chosen_labels) == (("q",), ("d",))
        assert zero.objective == two.objective
        assert greedy_select(panel, ws(y_vals), [0, 2]) == zero
        assert greedy_select(panel, ws(y_vals), [2, 0]) == two

    def test_repeated_shifts_give_the_one_shift_result(self):
        rng = np.random.default_rng(4)
        y_vals = rng.uniform(0, 100, size=120)
        panel = panel_of([(f"q{i}", np.roll(y_vals, -(i % 3)) + rng.normal(0, 30, size=120))
                          for i in range(9)])
        y = ws(y_vals)
        assert greedy_select(panel, y, [2, 2]) == greedy_select(panel, y, [2])
        assert greedy_select(panel, y, [0, 2, 0]) == reference_select(panel, y, [0, 2, 0])


def reference_select(panel, y, shifts, alpha=ALPHA):
    """greedy_select rebuilt on one oracle fit per candidate: the same gated
    candidate pools, then `greedy_forward` at every shift; None where
    greedy_select raises NoUsableQuery."""
    windows = [stats.paired_rows(panel, y, k) for k in shifts]
    best = None
    for k, (X, yv), cols in zip(shifts, windows, stats.gated_columns(windows, alpha)):
        lanes = enumerate(zip(cols.r.tolist(), cols.reason.tolist()))
        pool = sorted((-r, panel.labels[j], j) for j, (r, code) in lanes if code == 0 and r > 0.0)
        trace = greedy_forward(X, yv, [j for _, _, j in pool], IMPROVEMENT_EPS) if pool else None
        if trace is not None and (best is None or trace[-1][2] > best.objective):
            best = SelectionResult(tuple(panel.labels[j] for _, j, _ in trace), k, trace[-1][2],
                                   tuple((step, panel.labels[j], o) for step, j, o in trace))
    return best


@st.composite
def selection_problems(draw):
    """Cases that follow 1-4 integer base columns at one of the shifts, and
    a panel of 1-8 queries, each a copy of a base column, twice one, fresh
    noise or a constant; copies make exact and near ties and all-singular
    steps."""
    m, nb = draw(st.integers(8, 60)), draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 100), min_size=m, max_size=m)
    base = np.array([draw(cells) for _ in range(nb)], dtype=float)
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=nb, max_size=nb)))
    noise = np.array(draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("copy", "twice", "noise", "constant")))
        b = base[draw(st.integers(0, nb - 1))]
        columns.append({"copy": b, "twice": 2 * b, "noise": np.array(draw(cells), dtype=float),
                        "constant": np.full(m, float(draw(st.integers(0, 100))))}[kind])
    panel = panel_of([(f"q{j}", c) for j, c in enumerate(columns)])
    shifts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5, unique=True))
    lag = draw(st.sampled_from(shifts))
    return panel, ws(np.roll(weights @ base + noise, lag)), shifts


@st.composite
def wide_selection_problems(draw):
    """Cases of 100-260 weeks that follow 2-5 random-walk base columns at one
    of the shifts, and a panel of 10-20 queries, each a base column at some
    lag, scaled, plus noise of a drawn size; with a drawn alpha. Walks
    correlate at every lag and with each other, so most queries pass the
    gate: wide pools of near-equal and noise-heavy candidates."""
    m, nb = draw(st.integers(100, 260)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.normal(size=(nb, m + 4)).cumsum(axis=1)
    columns = []
    for _ in range(draw(st.integers(10, 20))):
        lag, scale = draw(st.integers(0, 4)), draw(st.sampled_from((0.0, 0.5, 2.0, 10.0)))
        signal = base[draw(st.integers(0, nb - 1)), lag:lag + m]
        columns.append(np.round(signal * draw(st.sampled_from((0.0, 0.5, 1.0)))
                                + rng.normal(0, scale, size=m), 2))
    panel = panel_of([(f"q{j}", c) for j, c in enumerate(columns)])
    cases = rng.integers(1, 4, size=nb) @ base[:, 2:2 + m] + rng.normal(0, 2, size=m)
    shifts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    return panel, ws(cases), shifts, draw(st.sampled_from((0.001, 0.05, 0.5)))


class TestAgainstOneFitGreedy:
    """greedy_select against greedy selection by one oracle fit per candidate,
    trace objectives compared by ==."""

    @staticmethod
    def check(panel, y, shifts, alpha=ALPHA):
        expected = reference_select(panel, y, shifts, alpha)
        if expected is None:
            with pytest.raises(NoUsableQuery):
                greedy_select(panel, y, shifts, alpha)
        else:
            assert greedy_select(panel, y, shifts, alpha) == expected

    @given(selection_problems())
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_one_fit_greedy(self, problem):
        self.check(*problem)

    @given(wide_selection_problems())
    @settings(max_examples=100, deadline=None)
    def test_wide_pools_give_the_one_fit_greedy_result(self, problem):
        self.check(*problem)

    def test_a_tie_within_eps_keeps_the_first_candidate(self):
        # after a: b2 ties b exactly, and c = b + 1e-6 noise beats b by less than the eps
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 101, size=(2, 50)).astype(float)
        panel = panel_of([("a", a), ("b", b), ("b2", b), ("c", b + 1e-6 * rng.normal(size=50))])
        y = ws(1.5 * a + b + rng.integers(0, 30, size=50))
        X, yv, _ = paired(panel, y, 0)
        ob, ob2, oc = candidate_objectives(X, yv, [0], [1, 2, 3])
        assert ob == ob2 and 0.0 < oc - ob <= IMPROVEMENT_EPS
        result = greedy_select(panel, y, [0])
        assert result == reference_select(panel, y, [0])
        assert result.chosen_labels[:2] == ("a", "b")

    def test_a_gain_within_eps_is_not_taken(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 101, size=60).astype(float)
        panel = panel_of([("a", a), ("b", a + rng.integers(0, 30, size=60))])
        y = ws(10 * a + rng.integers(0, 3, size=60))
        X, yv, _ = paired(panel, y, 0)
        (alone,), (both,) = candidate_objectives(X, yv, [], [0]), candidate_objectives(X, yv, [0], [1])
        assert 0.0 < both - alone <= IMPROVEMENT_EPS
        result = greedy_select(panel, y, [0])
        assert result == reference_select(panel, y, [0])
        assert result.chosen_labels == ("a",)

    def test_an_all_singular_step_ends_the_search(self):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 101, size=40).astype(float)
        panel = panel_of([("x", x), ("x2", x), ("x3", 3 * x)])
        y = ws(x + rng.integers(0, 20, size=40))
        X, yv, _ = paired(panel, y, 0)
        assert candidate_objectives(X, yv, [0], [1, 2]) == [None, None]
        result = greedy_select(panel, y, [0])
        assert result == reference_select(panel, y, [0])
        assert len(result.trace) == 1

    def test_no_panel_subsets(self, monkeypatch):
        rng = np.random.default_rng(43)
        y_vals = rng.uniform(0, 100, size=60)
        panel = panel_of([(f"q{i}", 0.5 * y_vals + rng.normal(0, 30, size=60)) for i in range(4)])

        def refuse(self, labels):
            raise AssertionError("greedy_select built a panel subset")

        monkeypatch.setattr(Weekly, "subset", refuse)
        assert len(greedy_select(panel, ws(y_vals), SHIFTS).chosen_labels) >= 1
