import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flunowcast import regress
from flunowcast.errors import (
    DataError,
    InsufficientOverlap,
    MissingQuery,
    SingularDesign,
    Underdetermined,
)
from flunowcast.regress import (
    candidate_objectives,
    coefficient_stats,
    fit_ols,
    in_sample_objective,
    predict,
    rolling_weekly_fit,
)
from flunowcast.stats import gated_columns, paired_rows
from flunowcast.timeseries import ALPHA, MIN_PAIRS, Weekly, paired

from .frames import W0, panel_of, ws
from .oracles import definitional_pearson, normal_equations_ols, one_fit_objective



def random_panel(rng, n_queries, n_weeks):
    cols = [(f"q{i}", rng.uniform(0, 100, size=n_weeks)) for i in range(n_queries)]
    return panel_of(cols)


class TestFitOls:
    def test_exact_line(self):
        fit = fit_ols(panel_of([("x", [0, 1, 2])]), ws([1, 3, 5]), 0)
        assert fit.betas[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.betas[1] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_normal_equations_by_hand(self):
        # x=[0,1,2], y=[0,0,3]: slope 1.5, intercept -0.5
        fit = fit_ols(panel_of([("x", [0, 1, 2])]), ws([0, 0, 3]), 0)
        assert fit.betas[1] == pytest.approx(1.5, abs=1e-12)
        assert fit.betas[0] == pytest.approx(-0.5, abs=1e-12)

    def test_duplicated_columns_singular(self):
        vals = [1.0, 4.0, 2.0, 8.0, 5.0]
        with pytest.raises(SingularDesign):
            fit_ols(panel_of([("a", vals), ("b", vals)]), ws([1, 2, 3, 4, 5]), 0)

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            fit_ols(panel_of([("a", [1, 2, 3]), ("b", [2, 1, 3])]), ws([1, 2, 3]), 0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            nq = rng.integers(1, 6)
            m = rng.integers(nq + 5, 100)
            X = rng.uniform(0, 100, size=(m, nq))
            y_vals = rng.uniform(0, 1000, size=m)
            fit = fit_ols(
                panel_of([(f"q{i}", X[:, i]) for i in range(nq)]), ws(y_vals), 0
            )
            expected = normal_equations_ols(X, y_vals)
            np.testing.assert_allclose(fit.betas, expected, rtol=1e-9)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(60, 3))
        y_vals = rng.uniform(0, 1, size=60)
        panel = panel_of([(f"q{i}", X[:, i]) for i in range(3)])
        fit = fit_ols(panel, ws(y_vals), 0)
        resid = y_vals - predict(fit, panel).values
        assert abs(resid.sum()) <= 1e-8
        for j in range(3):
            assert abs(resid @ X[:, j]) <= 1e-8

    def test_r_squared_is_squared_corr_single_query(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 100, size=50)
        y_vals = 2 * x + rng.normal(0, 30, size=50)
        fit = fit_ols(panel_of([("x", x)]), ws(y_vals), 0)
        r = definitional_pearson(x, y_vals)
        assert fit.r_squared == pytest.approx(r * r, abs=1e-10)

    def test_overlap_shorter_than_shift_is_data_error(self):
        # cases start at the panel's last week: one shared week, shift +2
        panel = panel_of([("x", [1, 2, 3, 4])])
        y = Weekly(W0.add(3), ("cases",), [[5.0], [6.0], [7.0], [8.0]])
        with pytest.raises(InsufficientOverlap):
            fit_ols(panel, y, 2)
        with pytest.raises(DataError):
            rolling_weekly_fit(panel, y, 2)
        assert in_sample_objective(*paired_rows(panel, y, 2)) is None

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 100, size=40)
        y_vals = 2 * x + rng.normal(0, 10, size=40)
        fit = fit_ols(panel_of([("x", x)]), ws(y_vals), 0)
        rows = coefficient_stats(fit, 0.05)
        assert [term for term, *_ in rows] == ["(intercept)", "x"]
        for (_, estimate, std_error, ci_low, ci_high, _), beta, se in zip(
                rows, fit.betas, fit.std_errors):
            assert (estimate, std_error) == (beta, se)
            assert ci_low <= estimate <= ci_high
            width = ci_high - ci_low
            assert width == pytest.approx(2 * (estimate - ci_low), abs=1e-9)

    def test_shifted_fit_uses_lagged_cases(self):
        rng = np.random.default_rng(14)
        y_vals = rng.uniform(0, 100, size=40)
        x = list(y_vals[2:]) + [0.0, 0.0]  # x_t = y_{t+2}
        fit = fit_ols(panel_of([("x", x)]), ws(y_vals), 2)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


@st.composite
def near_collinear_designs(draw):
    """Integer 0-100 panels whose column `dup` is column `src` + eps * noise."""
    nq = draw(st.integers(2, 4))
    m = draw(st.integers(nq + 2, 40))
    cells = st.lists(st.integers(0, 100), min_size=m * nq, max_size=m * nq)
    X = np.array(draw(cells), dtype=float).reshape(m, nq)
    src, dup = draw(st.permutations(range(nq)))[:2]
    eps = 10.0 ** draw(st.floats(-14, 0))
    noise = np.array(draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m)))
    X[:, dup] = X[:, src] + eps * noise
    y = np.array(draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m)), dtype=float)
    return X, y


class TestNearCollinear:
    @given(near_collinear_designs())
    @settings(max_examples=300, deadline=None)
    def test_singular_or_as_accurate_as_lstsq(self, design):
        # an unpivoted QR either flags the lost rank or solves as well as
        # the conditioning allows
        X, y = design
        panel = panel_of([(f"q{j}", X[:, j]) for j in range(X.shape[1])])
        try:
            fit = fit_ols(panel, ws(y), 0)
        except SingularDesign:
            return
        A = np.column_stack([np.ones(len(y)), X])
        ref = np.linalg.lstsq(A, y, rcond=None)[0]
        bound = np.linalg.cond(A) * 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(fit.betas - ref) <= bound


class TestPredict:
    def test_forward_evaluation(self):
        fit = fit_ols(panel_of([("x", [0, 1, 2])]), ws([1, 3, 5]), 0)
        est = predict(fit, panel_of([("x", [0, 1, 2])]))
        assert est.values == pytest.approx((1.0, 3.0, 5.0), abs=1e-12)

    def test_constant_panel_gives_intercept_plus_term(self):
        fit = fit_ols(panel_of([("x", [0, 1, 2])]), ws([1, 3, 5]), 0)
        est = predict(fit, panel_of([("x", [0.0, 0.0, 0.0])]))
        assert est.values == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_missing_query(self):
        fit = fit_ols(panel_of([("x", [0, 1, 2])]), ws([1, 3, 5]), 0)
        with pytest.raises(MissingQuery):
            predict(fit, panel_of([("other", [0, 1, 2])]))

    def test_estimates_stamped_at_case_weeks(self):
        fit = fit_ols(panel_of([("x", [0, 1, 2, 3, 4])]), ws([1, 3, 5, 7, 9]), 2)
        est = predict(fit, panel_of([("x", [0, 1, 2, 3, 4])]))
        assert est.start == W0.add(2)


@st.composite
def rolling_problems(draw):
    """Integer 0-100 panels of 1-3 queries, integer cases over the same
    15-60 weeks, and a shift."""
    nq = draw(st.integers(1, 3))
    m = draw(st.integers(15, 60))
    cells = st.lists(st.integers(0, 100), min_size=m * nq, max_size=m * nq)
    X = np.array(draw(cells), dtype=float).reshape(m, nq)
    y = draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m))
    return panel_of([(f"q{j}", X[:, j]) for j in range(nq)]), ws(y), draw(st.integers(-2, 2))


@st.composite
def flat_start_problems(draw):
    """Panels of 1-7 queries over 40-200 weeks, every query 0 for the first
    0-40 weeks and integer 0-100 after; integer cases; a shift; and a warmup,
    None for the default."""
    nq, m, flat = draw(st.integers(1, 7)), draw(st.integers(40, 200)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 101, size=(m, nq)).astype(float)
    X[:flat] = 0.0
    y = rng.integers(0, 1001, size=m).astype(float)
    warmup = draw(st.none() | st.integers(nq + 2, m))
    return panel_of([(f"q{j}", X[:, j]) for j in range(nq)]), ws(y), draw(st.integers(-2, 2)), warmup


def cut_fits(panel, y, k, warmup):
    """(i, fit_ols on the cases cut to their first i + |k| weeks) for each
    design row i that gets an estimate, under the rolling fit's warmup rules;
    raises SingularDesign where the rolling fit must."""
    fits = []
    for i in range(len(panel.labels) + 4 if warmup is None else warmup, len(y.matrix) - abs(k)):
        try:
            fits.append((i, fit_ols(panel, Weekly(y.start, y.labels, y.matrix[:i + abs(k)]), k)))
        except SingularDesign:
            if fits or warmup is not None:
                raise
    return fits


def bump_then_blowup(blowup_week):
    """Query `bump` is 0 but for 1e-3 at week 2; query `grow` cycles 1-7 and
    is scaled by 1e9 from blowup_week on. Windows up to blowup_week pass the
    rank test; from there R's largest diagonal entry is over 1e10 times its
    smallest, so every later window is singular."""
    bump, grow = np.zeros(60), np.arange(60) % 7 + 1.0
    bump[2] = 1e-3
    grow[blowup_week:] *= 1e9
    return panel_of([("bump", bump), ("grow", grow)]), ws(np.arange(60) % 11 * 10.0)


@st.composite
def degenerate_problems(draw):
    """Panels of 1-4 queries over 8-40 weeks of 0-2 integers, some columns
    duplicates or constants; integer cases; a shift; and a warmup, None for
    the default."""
    nq, m = draw(st.integers(1, 4)), draw(st.integers(8, 40))
    cells = st.lists(st.integers(0, 2), min_size=m, max_size=m)
    columns = []
    for j in range(nq):
        kind = draw(st.sampled_from(("drawn", "duplicate", "constant"))) if j else "drawn"
        columns.append(draw(cells) if kind == "drawn" else [draw(st.integers(0, 2))] * m
                       if kind == "constant" else columns[draw(st.integers(0, j - 1))])
    y = draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m))
    warmup = draw(st.none() | st.integers(nq + 2, m))
    panel = panel_of([(f"q{j}", np.array(c, dtype=float)) for j, c in enumerate(columns)])
    return panel, ws(y), draw(st.integers(-2, 2)), warmup


class TestEstimateFrames:
    """Both nowcast modes return a one-column frame "estimates" whose values,
    iterated, are floats: the benchmark's tracer calls math.isnan on each."""

    def test_predict_and_rolling_return_one_column_estimates(self):
        x = np.linspace(0, 10, 30)
        panel, y = panel_of([("x", x)]), ws(3 * x + 1, "cases")
        for est in (predict(fit_ols(panel, y, 1), panel),
                    rolling_weekly_fit(panel, y, 1, warmup=5)):
            assert est.labels == ("estimates",) and est.matrix.shape == (len(est.values), 1)
            assert est.values.ndim == 1
            assert all(isinstance(v, float) and not math.isnan(v) for v in est.values)


class TestRollingWeeklyFit:
    def test_noiseless_recovery(self):
        x = np.linspace(0, 10, 30)
        y_vals = 3 * x + 1
        est = rolling_weekly_fit(panel_of([("x", x)]), ws(y_vals), 0, warmup=5)
        assert est.start == W0.add(5)
        assert est.values == pytest.approx(y_vals[5:], abs=1e-8)

    def test_warmup_weeks_are_sentinels(self):
        x = np.linspace(0, 10, 30)
        est = rolling_weekly_fit(panel_of([("x", x)]), ws(3 * x + 1), 0, warmup=7)
        assert est.start == W0.add(7)
        assert len(est.matrix) == 23

    def test_warmup_equal_to_length_gives_empty(self):
        x = np.linspace(0, 10, 30)
        est = rolling_weekly_fit(panel_of([("x", x)]), ws(3 * x + 1), 0, warmup=30)
        assert est is None

    def test_warmup_below_minimum_rejected(self):
        x = np.linspace(0, 10, 30)
        with pytest.raises(Underdetermined):
            rolling_weekly_fit(panel_of([("x", x)]), ws(3 * x + 1), 0, warmup=2)

    def test_default_warmup_skips_unfittable_start(self):
        # flat pre-season: the query is zero for 12 weeks, so every window
        # of at most 12 weeks is collinear with the intercept
        x = np.concatenate([np.zeros(12), np.linspace(1, 20, 28)])
        panel, y = panel_of([("x", x)]), ws(3 * x + 1)
        with pytest.raises(SingularDesign):
            rolling_weekly_fit(panel, y, 0, warmup=5)
        est = rolling_weekly_fit(panel, y, 0)
        assert est.start == W0.add(13)
        assert len(est.matrix) == 40 - 13
        assert est.values[0] == pytest.approx(3 * x[13] + 1, abs=1e-8)
        assert est == rolling_weekly_fit(panel, y, 0, warmup=13)

    def test_default_warmup_is_queries_plus_four_when_fittable(self):
        rng = np.random.default_rng(22)
        panel = random_panel(rng, 2, 60)
        y = ws(rng.uniform(0, 300, size=60))
        assert rolling_weekly_fit(panel, y, 1) == rolling_weekly_fit(
            panel, y, 1, warmup=6)

    def test_determinism_replay(self):
        rng = np.random.default_rng(17)
        panel = random_panel(rng, 2, 60)
        y = ws(rng.uniform(0, 300, size=60))
        a = rolling_weekly_fit(panel, y, 1)
        b = rolling_weekly_fit(panel, y, 1)
        assert a == b

    def test_no_lookahead(self):
        rng = np.random.default_rng(18)
        panel = random_panel(rng, 2, 60)
        y_vals = rng.uniform(0, 300, size=60)
        base = rolling_weekly_fit(panel, ws(y_vals), 0, warmup=10)
        t = 25
        perturbed = y_vals.copy()
        perturbed[t:] += rng.uniform(100, 500, size=60 - t)
        after = rolling_weekly_fit(panel, ws(perturbed), 0, warmup=10)
        assert after.start == base.start == W0.add(10)
        assert np.array_equal(base.values[:t + 1 - 10], after.values[:t + 1 - 10])

    @given(rolling_problems())
    @settings(max_examples=200, deadline=None)
    def test_each_estimate_is_a_full_period_fit_on_the_weeks_before_it(self, problem):
        # design row i is estimated from a fit on rows 0..i-1, which is
        # fit_ols on the cases cut to their first i + |k| weeks
        panel, y, k = problem
        xi, warmup = max(-k, 0), len(panel.labels) + 4
        fits = []
        try:
            for i in range(warmup, len(y.matrix) - abs(k)):
                cut = Weekly(y.start, y.labels, y.matrix[:i + abs(k)])
                fits.append((i, fit_ols(panel, cut, k)))
        except SingularDesign:
            with pytest.raises(SingularDesign):
                rolling_weekly_fit(panel, y, k, warmup)
            return
        est = rolling_weekly_fit(panel, y, k, warmup)
        assert est.start == y.start.add(max(k, 0) + warmup)
        assert len(est.matrix) == len(fits)
        for value, (i, fit) in zip(est.values, fits):
            x = panel.matrix[xi + i]
            # the two sum the same terms in a different order
            scale = abs(fit.betas[0]) + np.abs(x) @ np.abs(fit.betas[1:])
            assert abs(value - predict(fit, panel).values[xi + i]) <= 1e-12 * scale

    @given(flat_start_problems())
    @settings(max_examples=200, deadline=None)
    def test_estimates_match_cut_fits_across_chunks_and_flat_starts(self, problem):
        # up to 200 weeks of windows span many stacked-QR chunks, and a flat
        # start moves the default warmup's first fittable window into any of them
        panel, y, k, warmup = problem
        try:
            fits = cut_fits(panel, y, k, warmup)
        except SingularDesign:
            with pytest.raises(SingularDesign):
                rolling_weekly_fit(panel, y, k, warmup)
            return
        est = rolling_weekly_fit(panel, y, k, warmup)
        if not fits:
            assert est is None
            return
        assert est.start == y.start.add(max(k, 0) + fits[0][0])
        assert len(est.matrix) == len(fits)
        xi = max(-k, 0)
        for value, (i, fit) in zip(est.values, fits):
            x = panel.matrix[xi + i]
            scale = abs(fit.betas[0]) + np.abs(x) @ np.abs(fit.betas[1:])
            assert abs(value - predict(fit, panel).values[xi + i]) <= 1e-12 * scale

    @pytest.mark.parametrize("warmup", [None, 5])
    @pytest.mark.parametrize("blowup_week", [36, 40])
    def test_a_singular_window_after_a_fitted_one_raises(self, warmup, blowup_week):
        # the first singular window (blowup_week + 1 rows) opens a chunk
        # (warmup 5, week 36) or falls inside one (the other three cases)
        panel, y = bump_then_blowup(blowup_week)
        assert rolling_weekly_fit(panel, ws(y.values[:blowup_week + 1]), 0, warmup) is not None
        with pytest.raises(SingularDesign):
            rolling_weekly_fit(panel, y, 0, warmup)

    def test_default_warmup_with_every_window_singular_gives_none(self):
        x = np.linspace(0, 10, 40)
        panel, y = panel_of([("x", x), ("flat", np.zeros(40))]), ws(3 * x + 1)
        assert rolling_weekly_fit(panel, y, 0) is None
        with pytest.raises(SingularDesign):
            rolling_weekly_fit(panel, y, 0, warmup=6)

    @given(degenerate_problems())
    @settings(max_examples=300, deadline=None)
    def test_no_linalg_error_escapes(self, problem):
        # exactly collinear windows must surface as SingularDesign (or be
        # skipped by the default warmup), never as numpy's LinAlgError
        panel, y, k, warmup = problem
        try:
            est = rolling_weekly_fit(panel, y, k, warmup)
        except SingularDesign:
            return
        assert est is None or len(est.matrix) > 0

    def test_windows_are_factored_in_stacked_chunks(self, monkeypatch):
        # a guard: one QR per window would make 219 calls here
        qr, calls = regress.np.linalg.qr, []
        monkeypatch.setattr(regress.np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
        rng = np.random.default_rng(23)
        est = rolling_weekly_fit(random_panel(rng, 7, 259), ws(rng.uniform(0, 900, 259)), 0,
                                 warmup=40)
        assert len(est.matrix) == 219
        assert len(calls) <= math.ceil(219 / regress.ROLLING_CHUNK) == 14


@st.composite
def objective_steps(draw):
    """One greedy step on a drawn panel: 3-60 weeks, 1-8 columns of 0-100
    integers (some duplicates or constants), cases that may be constant or
    an exact line in one column, a shift, and a split of the columns into
    chosen ones and candidates."""
    m, nc = draw(st.integers(3, 60)), draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, 100), min_size=m, max_size=m)
    columns = []
    for j in range(nc):
        kind = draw(st.sampled_from(("drawn", "duplicate", "constant"))) if j else "drawn"
        if kind == "drawn":
            columns.append(draw(cells))
        elif kind == "duplicate":
            columns.append(columns[draw(st.integers(0, j - 1))])
        else:
            columns.append([draw(st.integers(0, 100))] * m)
    X = np.array(columns, dtype=float).T
    kind = draw(st.sampled_from(("drawn", "constant", "line")))
    if kind == "drawn":
        y = draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m))
    elif kind == "constant":
        y = [draw(st.integers(0, 1000))] * m
    else:
        y = 3 * X[:, draw(st.integers(0, nc - 1))] + 1
    order = draw(st.permutations(range(nc)))
    a = draw(st.integers(0, nc - 1))
    panel = panel_of([(f"q{j}", X[:, j]) for j in range(nc)])
    return panel, ws(y), draw(st.integers(-2, 2)), order[:a], order[a:]


class TestCandidateObjectives:
    @given(objective_steps())
    @settings(max_examples=500, deadline=None)
    def test_every_lane_equals_its_own_fit_bit_for_bit(self, step):
        panel, y, k, chosen, candidates = step
        if len(y.matrix) - abs(k) < MIN_PAIRS:
            with pytest.raises(InsufficientOverlap):
                paired(panel, y, k)
            assert in_sample_objective(*paired_rows(panel, y, k)) is None
            return
        X, yv, _ = paired(panel, y, k)
        got = candidate_objectives(X, yv, chosen, candidates)
        assert len(got) == len(candidates)
        for j, obj in zip(candidates, got):
            assert obj == one_fit_objective(X[:, chosen + [j]], yv)  # None only matches None
        assert in_sample_objective(X[:, chosen + candidates[:1]], yv) == got[0]


class TestEvaluate:
    def _nowcast(self, values, start=W0):
        return Weekly(start, ("estimates",), [[v] for v in values])

    @staticmethod
    def _overall(estimates, cases):
        """The gate's lane of the estimates against the cases, nowcast's overall r."""
        rows = paired_rows(estimates, cases, 0)
        return gated_columns([rows], ALPHA)[0]

    def test_identical_series_r_one(self):
        rng = np.random.default_rng(19)
        vals = rng.uniform(0, 100, size=120)
        res = self._overall(self._nowcast(vals), ws(vals))
        assert res.r[0] == pytest.approx(1.0, abs=1e-12)

    def test_negated_series_r_minus_one(self):
        rng = np.random.default_rng(20)
        vals = rng.uniform(1, 100, size=52)
        res = self._overall(self._nowcast(-vals), ws(vals))
        assert res.r[0] == pytest.approx(-1.0, abs=1e-12)

    def test_sentinels_excluded(self):
        vals = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        # rolling estimates start after the warmup: only shared weeks count
        est = self._nowcast(vals[2:], start=W0.add(2))
        res = self._overall(est, ws(vals))
        assert res.n == 4

    def test_lead_structure_prefers_true_shift(self):
        # estimates built from a panel that leads cases by two weeks:
        # fitting at +2 must beat fitting at -2
        rng = np.random.default_rng(21)
        from flunowcast.synth import ScenarioConfig, generate

        cfg = ScenarioConfig(
            seed=77, weeks=120,
            epidemic_peaks=((20, 500, 3), (60, 800, 4), (100, 400, 3)),
            lead_weeks=2, noise_sd=0.1, n_signal_queries=2,
        )
        cases, panel = generate(cfg)
        r_plus = in_sample_objective(*paired_rows(panel, cases, 2))
        r_minus = in_sample_objective(*paired_rows(panel, cases, -2))
        assert r_plus > r_minus
