import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as scipy_stats

from flunowcast import stats
from flunowcast.errors import InvalidConfig, InvalidDof
from flunowcast.regress import (
    coefficient_stats,
    fit_ols,
    rolling_weekly_fit,
)
from flunowcast.report import (
    table_coefficients,
    table_model_by_shift,
    table_overall_annual,
    table_shift_scan,
)
from flunowcast.selection import greedy_select
from flunowcast.stats import (
    REASONS,
    GatedColumns,
    correlation_p_values,
    gated_columns,
    paired_rows,
    t_critical,
    t_two_sided_p,
)
from flunowcast.timeseries import ALPHA, Weekly

from .frames import W0, ws
from .oracles import (
    bisection_t_critical,
    correlation_p_value,
    definitional_pearson,
    regularized_incomplete_beta,
    sequential_column_sums,
    student_t_two_sided_p,
    t_density_p_value,
)

CENTI = st.integers(-10000, 10000).map(lambda i: i / 100)  # 0.01 grid on [-100, 100]


def lane(x, y, k, alpha=ALPHA):
    """The gate's one lane for series x against y at shift k, as nowcast
    reads its overall r."""
    return gated_columns([paired_rows(x, y, k)], alpha)[0]


def cell(xs, ys):
    """The shift-0 correlation cell of two aligned sequences (r is kept
    when the gate rejects it)."""
    return lane(ws(xs), ws(ys), 0)


def reason(cols):
    return REASONS[cols.reason[0]]


class TestPearson:
    def test_perfect_positive(self):
        res = cell([1, 2, 3], [1, 2, 3])
        assert res.r[0] == pytest.approx(1.0, abs=1e-15)
        assert res.n == 3

    def test_perfect_negative(self):
        assert cell([1, 2, 3], [3, 2, 1]).r[0] == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_value(self):
        # definitional sums: sxy=4, sxx=syy=5 -> r = 4/5
        res = cell([1, 2, 3, 4], [1, 3, 2, 4])
        assert res.r[0] == pytest.approx(
            definitional_pearson([1, 2, 3, 4], [1, 3, 2, 4]), abs=1e-15
        )
        assert res.r[0] == pytest.approx(0.8, abs=1e-12)
        assert res.n == 4

    def test_symmetric_under_swap(self):
        xs, ys = [1.0, 2.5, 3.0, 7.0], [4.0, 1.0, 9.0, 2.0]
        assert cell(xs, ys).r[0] == pytest.approx(cell(ys, xs).r[0], abs=1e-15)

    # coordinates on a 0.01 grid: arbitrary floats such as 1.48e-159 round
    # away under the affine map or underflow in the sums of squares, which
    # breaks the property for any floating-point Pearson
    @given(
        data=st.lists(
            st.tuples(CENTI, CENTI),
            min_size=4, max_size=40,
        ),
        a=st.floats(0.1, 10), b=st.floats(-50, 50),
    )
    @settings(max_examples=100)
    def test_affine_invariance(self, data, a, b):
        xs, ys = zip(*data)
        res = cell(xs, ys)
        if reason(res) == "ZeroVariance":
            return
        r1 = cell([a * x + b for x in xs], ys).r[0]
        assert abs(r1 - res.r[0]) <= 1e-9

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert cell(x, y).r[0] == pytest.approx(definitional_pearson(x, y), abs=1e-12)


LAYOUTS = ("vector", "one column", "C", "F", "row slice", "column strided")


@st.composite
def summed_arrays(draw):
    """2 to 600 rows in one of LAYOUTS, of values whose magnitudes lie in
    a drawn band of [1e-150, 1e150], either sign."""
    layout = draw(st.sampled_from(LAYOUTS))
    n = draw(st.integers(2, 600))
    k = 1 if layout in ("vector", "one column") else draw(st.integers(2, 120))
    lo = draw(st.floats(-150.0, 150.0))
    hi = draw(st.floats(lo, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(*shape):
        return 10.0 ** rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)

    if layout == "vector":
        return values(n)
    if layout == "F":
        return np.asfortranarray(values(n, k))
    if layout == "row slice":
        first, step = draw(st.integers(0, 5)), draw(st.integers(1, 3))
        return values(first + n * step, k)[first::step]
    if layout == "column strided":
        return values(n, 2 * k)[:, ::2]
    return values(n, k)


def bits(a):
    return np.asarray(a).view(np.int64).tolist()


class TestRowSum:
    # numpy sums pairwise along the axis fastest in memory, so only some layouts may reduce
    @given(summed_arrays())
    @settings(max_examples=300)
    def test_adds_rows_in_order_in_every_layout(self, a):
        assert bits(stats._row_sum(a)) == bits(sequential_column_sums(a))

    @given(n=st.integers(3, 120), k=st.integers(1, 40), flat_y=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_pearson_is_the_same_in_every_layout(self, n, k, flat_y, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 100.0, (n, k)) * 10.0 ** rng.integers(-3, 4, k)
        X[:, rng.random(k) < 0.2] = 50.0  # ZeroVariance lanes
        y = np.full(n, 7.0) if flat_y else rng.uniform(0.0, 1000.0, n)
        wide = np.zeros((n, 2 * k))
        wide[:, ::2] = X
        r, flat = stats._pearson_columns(X, y)
        for view in (np.asfortranarray(X), wide[:, ::2]):
            r_view, flat_view = stats._pearson_columns(view, y)
            assert bits(r_view) == bits(r)
            assert flat_view.tolist() == flat.tolist()


def p_of(t, dof):
    """The kernel's p of one t."""
    return t_two_sided_p(np.array([t]), dof).item()


class TestStudentT:
    def test_zero_statistic(self):
        assert p_of(0.0, 10) == 1.0

    def test_cauchy_closed_form(self):
        # dof=1 is Cauchy: p = 2*(1 - (1/2 + atan(t)/pi))
        expected = 2 * (1 - (0.5 + math.atan(1.0) / math.pi))
        assert p_of(1.0, 1) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [1e160, 1e300])
    def test_cauchy_far_tail(self, t):
        # t * t overflows past 1.3e154, but p = 2 atan(1/t) / pi is still a float
        assert p_of(t, 1) == pytest.approx(2 / math.pi * math.atan(1 / t), rel=1e-12, abs=0)

    def test_quadrature_oracle(self):
        assert p_of(2.5, 8) == pytest.approx(t_density_p_value(2.5, 8), abs=1e-8)

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            t_critical(0.05, 0)

    def test_monotone_decreasing_in_abs_t(self):
        ps = t_two_sided_p(np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0]), 7).tolist()
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @given(st.lists(st.tuples(st.floats(-30, 30), st.integers(1, 200)), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_against_scipy(self, lanes):
        t, dof = (np.array(v) for v in zip(*lanes))
        ref = 2 * scipy_stats.t.sf(np.abs(t), dof)
        assert t_two_sided_p(t, dof) == pytest.approx(ref, abs=1e-8)

    def test_incomplete_beta_against_scipy(self):
        from scipy.special import betainc

        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(0.1, 20, size=2)
            x = rng.uniform(0, 1)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                betainc(a, b, x), abs=1e-10
            )

    def test_t_critical_inverts_p(self):
        for dof in (3, 10, 50, 200):
            for alpha in (0.01, 0.05, 0.2):
                t = t_critical(alpha, dof)
                assert p_of(t, dof) == pytest.approx(alpha, abs=1e-9)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The t of every later kernel call, in call order."""
    calls, real = [], stats.t_two_sided_p
    monkeypatch.setattr(stats, "t_two_sided_p",
                        lambda t, dof: calls.append(t.item()) or real(t, dof))
    return calls


CLIMB_DOFS = [1, 2, 3, 7, 30, 143, 257, 1000]
CLIMB_ALPHAS = [0.5, 0.2, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6]


@pytest.mark.parametrize("dof", CLIMB_DOFS)
@pytest.mark.parametrize("alpha", CLIMB_ALPHAS)
def test_t_critical_climbs_from_below_to_the_root(alpha, dof, kernel_calls):
    t = t_critical(alpha, dof)
    root = scipy_stats.t.isf(alpha / 2, dof)
    assert kernel_calls[0] <= root  # the Newton start
    assert t == pytest.approx(bisection_t_critical(alpha, dof), rel=2e-12, abs=0)
    assert t == pytest.approx(root, rel=5e-12, abs=0)


@pytest.mark.parametrize("dof", [30, 31, 100, 143, 257, 1000, 10_000])
@pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01, 1e-3])
def test_t_critical_makes_at_most_four_kernel_calls(alpha, dof, kernel_calls):
    t_critical(alpha, dof)
    assert 1 <= len(kernel_calls) <= 4


@pytest.mark.parametrize("dof, closed_form", [
    (1, lambda a: 1 / math.tan(math.pi * a / 2)),
    (2, lambda a: (1 - a) * math.sqrt(2 / (a * (2 - a)))),
], ids=["dof1", "dof2"])
def test_t_critical_matches_the_closed_form_down_to_1e_300(dof, closed_form):
    # Newton alone gains a factor of about 1 + 1/dof a step on these tails
    for alpha in np.logspace(math.log10(0.5), -300, 61):  # numpy floats, as a caller may pass
        assert t_critical(alpha, dof) == pytest.approx(closed_form(alpha), rel=1e-10, abs=0)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


@pytest.mark.parametrize("dof, closed_form", [
    (1, lambda a: 1 / (_PI * a / 2) - _PI * a / 6),  # cot x = 1/x - x/3 - ..., x ~ 1e-300
    (2, lambda a: (1 - a) * (2 / (a * (2 - a))).sqrt()),
], ids=["dof1", "dof2"])
def test_t_critical_at_a_subnormal_alpha_matches_the_closed_form(dof, closed_form):
    # alpha / 2 is no normal float and p / alpha overflows on the climb; a subnormal p
    # carries as few bits as alpha does. At dof 1 the root passes the floats below
    # alpha ~ 3.5e-309, and the float nearest it is inf.
    with decimal.localcontext(decimal.Context(prec=50)):
        for alpha in [1e-307, 4e-309, 1e-310, 1e-312, 1e-315, 1e-318, 1e-320, 3e-322, 1e-323,
                      5e-324]:
            expected = float(closed_form(decimal.Decimal(alpha)))
            got = t_critical(alpha, dof)
            if math.isinf(expected):
                assert got == math.inf
            else:
                assert got == pytest.approx(expected, rel=1e-3, abs=0)


@pytest.mark.parametrize("dof", [3, 5, 10])
def test_t_critical_on_a_heavy_tail_matches_scipy_down_to_1e_100(dof):
    for alpha in np.logspace(math.log10(0.5), -100, 41).tolist():
        assert t_critical(alpha, dof) == pytest.approx(
            scipy_stats.t.isf(alpha / 2, dof), rel=1e-10, abs=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the kernel's 1 - I_cx(1/2, dof/2) "
                                       "cancels in the far tail, and t_critical inherits it")
def test_t_critical_in_the_far_tail_matches_scipy():
    assert t_critical(1e-12, 100) == pytest.approx(
        scipy_stats.t.isf(0.5e-12, 100), rel=1e-10, abs=0)


@st.composite
def correlation_cells(draw):
    """(r, n) with r often near where the p-value switches formula.

    r**2 is cx = t**2 / (dof + t**2): the tail switches at cx = 1/2, and the
    continued fraction switches between direct and reflected where cx
    crosses (a + 1) / (a + b + 2) for a = 1/2, b = dof/2.
    """
    n = draw(st.one_of(st.just(3), st.integers(3, 12), st.integers(100, 900)))
    edges = [0.0, 1.0, math.sqrt(0.5), math.sqrt(1.5 / ((n - 2) / 2 + 2.5))]
    r = draw(st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 1.5, -3.0, 1e-170, 5e-324]),
        st.floats(-1.0, 1.0),
        st.builds(lambda edge, rel, sign: sign * edge * (1.0 + rel),
                  st.sampled_from(edges), st.floats(-1e-6, 1e-6), st.sampled_from([1.0, -1.0])),
    ))
    return r, n


@st.composite
def t_lanes(draw):
    """(t, dof) with t often near where the kernel switches formula: the
    tail at cx = t**2 / (dof + t**2) = 1/2, and the direct against the
    reflected fraction at cx = 1.5 / (dof/2 + 2.5), the same for both tails."""
    dof = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(100, 1000)))
    edges = [math.sqrt(dof * cx / (1.0 - cx)) for cx in (0.5, 1.5 / (dof / 2 + 2.5))]
    t = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 1e-170, 5e-324, 1e6]),
        st.floats(-50.0, 50.0),
        st.builds(lambda edge, rel, sign: sign * edge * (1.0 + rel),
                  st.sampled_from(edges), st.floats(-1e-6, 1e-6), st.sampled_from([1.0, -1.0])),
    ))
    return t, dof


class TestBatchedPValues:
    @given(st.lists(correlation_cells(), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_equal_to_the_scalar_p_lane_for_lane(self, cells):
        r, n = (np.array(v) for v in zip(*cells))
        assert correlation_p_values(r, n).tolist() == [correlation_p_value(*c) for c in cells]

    @given(st.lists(t_lanes(), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_t_lanes_equal_the_scalar_p(self, lanes):
        t, dof = (np.array(v) for v in zip(*lanes))
        assert t_two_sided_p(t, dof).tolist() == [student_t_two_sided_p(*lane) for lane in lanes]
        # one dof for every lane, as a fit's coefficients share one
        assert (t_two_sided_p(t, lanes[0][1]).tolist()
                == [student_t_two_sided_p(ti, lanes[0][1]) for ti, _ in lanes])

    @pytest.mark.parametrize("dof", [1, 30, 517])
    def test_a_thousand_lanes_at_one_dof_equal_the_scalar_p(self, dof):
        # lanes share one log Beta(a, b) per tail; t from 1e-4 to 1e4 crosses both the
        # tail switch (cx = 1/2) and the direct/reflected switch (cx = 1.5 / (dof/2 + 2.5))
        t = np.geomspace(1e-4, 1e4, 500)
        t = np.concatenate([t, -t[::-1]])
        cx = t * t / (dof + t * t)
        for edge in (0.5, 1.5 / (dof / 2 + 2.5)):
            assert (cx < edge).any() and (cx > edge).any()
        assert t_two_sided_p(t, dof).tolist() == [student_t_two_sided_p(ti, dof)
                                                  for ti in t.tolist()]

    # the fraction hands its last _FEW_LANES running lanes to a plain-float loop: at 0 no
    # lane goes, at 10**9 every lane goes at the first term, in between at varying terms
    @pytest.mark.parametrize("few", [0, 1, stats._FEW_LANES, 10**9])
    @given(lanes=st.lists(t_lanes(), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_every_hand_off_point_gives_the_scalar_p(self, few, lanes):
        t, dof = (np.array(v) for v in zip(*lanes))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_FEW_LANES", few)
            assert t_two_sided_p(t, dof).tolist() == [student_t_two_sided_p(*lane)
                                                      for lane in lanes]

    @staticmethod
    def arrays_and_floats(monkeypatch, call):
        """call()'s result with no lane handed to the plain-float loop, and with every lane."""
        results = []
        for few in (0, 10**9):
            monkeypatch.setattr(stats, "_FEW_LANES", few)
            results.append(call())
        return results

    def test_t_critical_is_the_same_with_no_lane_or_every_lane_handed_off(self, monkeypatch):
        arrays, floats = self.arrays_and_floats(monkeypatch, lambda: [
            t_critical(alpha, dof) for alpha in CLIMB_ALPHAS for dof in CLIMB_DOFS])
        assert arrays == floats

    def test_the_floors_are_the_same_in_plain_floats(self, monkeypatch):
        # t_two_sided_p's lanes keep d and c far above the floor: these lanes, past
        # Beta(a, b)'s mean, make the first term's d and c exactly zero
        a, b, x = np.array([1.0, 1.0]), np.array([4.0, 0.5]), np.array([0.5, 12.0])
        arrays, floats = self.arrays_and_floats(
            monkeypatch, lambda: stats._beta_continued_fractions(a, b, x).tolist())
        assert arrays == floats
        # the floor writes into the fraction's own temporaries, never into its inputs
        assert [a.tolist(), b.tolist(), x.tolist()] == [[1.0, 1.0], [4.0, 0.5], [0.5, 12.0]]

    @given(lanes=st.lists(t_lanes(), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_the_kernel_leaves_its_inputs_alone(self, lanes):
        lanes *= 2 * stats._FEW_LANES // len(lanes) + 1  # enough lanes for the array loop
        t, dof = (np.array(v) for v in zip(*lanes))
        kept, fraction = [t.copy(), dof.copy()], stats._beta_continued_fractions
        inputs = []

        def spy(a, b, x):
            inputs.append(((a, b, x), [v.copy() for v in (a, b, x)]))
            return fraction(a, b, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_beta_continued_fractions", spy)
            t_two_sided_p(t, dof)
        (seen, copies), = inputs
        assume(len(seen[0]) > stats._FEW_LANES)  # the array loop ran
        assert [v.tobytes() for v in (t, dof, *seen)] == [v.tobytes() for v in (*kept, *copies)]

    def test_no_lanes(self):
        assert correlation_p_values(np.array([]), np.array([], dtype=int)).tolist() == []


class TestCorrelate:
    def test_constant_series_is_na(self):
        # five 0.81s have a mean that rounds to another float, so their deviations are not 0
        for x, y in [([5, 5, 5, 5], [1, 2, 3, 4]), ([0.81] * 5, [0, 0, 0, 0, 0.01]),
                     ([0, 0, 0, 0, 0.01], [0.81] * 5)]:
            res = lane(ws(x), ws(y), 0)
            assert reason(res) == "ZeroVariance" and math.isnan(res.r[0])

    def test_constructed_identity_at_shift_two(self):
        rng = np.random.default_rng(3)
        y_vals = rng.uniform(0, 100, size=30)
        y = ws(y_vals)
        # x_t = y_{t+2}: searches lead cases by two weeks
        x = ws(list(y_vals[2:]) + [0.0, 0.0])
        res = lane(x, y, 2)
        assert reason(res) is None
        assert res.r[0] == pytest.approx(1.0, abs=1e-12)
        assert res.p[0] < 0.05

    def test_insignificant_is_na_with_values_kept(self):
        rng = np.random.default_rng(4)
        res = lane(ws(rng.normal(size=40)), ws(rng.normal(size=40)), 0)
        if reason(res) is not None:
            assert reason(res) == "NotSignificant"
            assert res.p[0] >= 0.05
            assert math.isfinite(res.r[0])

    def test_short_overlap_is_na(self):
        res = lane(ws([1, 2, 3]), ws([1, 2, 3]), 2)
        assert reason(res) == "TooFewPairs" and res.n == 0

    def test_never_raises_on_degenerate_input(self):
        degenerate = [ws([0, 0, 0]), ws([1, 1, 1, 1]), ws([1]), ws([1, 2])]
        y = ws([1, 2, 3, 4])
        for x in degenerate:
            for k in (-2, -1, 0, 1, 2):
                res = lane(x, y, k)
                assert isinstance(res, GatedColumns) and res.reason.shape == (1,)
                assert reason(res) in ("ZeroVariance", "TooFewPairs")
                assert math.isnan(res.r[0]) and math.isnan(res.p[0])

    def test_p_matches_permutation_test(self):
        from .oracles import permutation_p_value

        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = 0.3 * x + rng.normal(size=40)
        r = definitional_pearson(x, y)
        p_t = correlation_p_value(r, 40)
        p_perm = permutation_p_value(x, y, seed=11)
        assert abs(p_t - p_perm) < 0.02


def _entry_points():
    """(id, call, bad value, message) of every library entry point that
    takes a shift (k = +/-3 is beyond the bound) or an alpha (outside (0, 1))."""
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 100, size=(20, 2))
    y = ws(X @ [2.0, 1.0] + rng.normal(0, 5, size=20), "cases")
    panel = Weekly(W0, ("a", "b"), X)
    fit = fit_ols(panel, y, 0)
    takes_shift = {
        "correlate": lambda k: lane(panel.subset(["a"]), y, k),
        "greedy_select": lambda k: greedy_select(panel, y, [k]),
        "fit_ols": lambda k: fit_ols(panel, y, k),
        "rolling_weekly_fit": lambda k: rolling_weekly_fit(panel, y, k),
        "paired_rows": lambda k: stats.paired_rows(panel, y, k),
        "table_overall_annual": lambda k: table_overall_annual(panel, y, ALPHA, k),
        "table_shift_scan": lambda k: table_shift_scan(panel, y, (k,)),
        "table_model_by_shift": lambda k: table_model_by_shift(panel, y, (k,)),
    }
    takes_alpha = {
        "correlate": lambda a: lane(panel.subset(["a"]), y, 0, a),
        "greedy_select": lambda a: greedy_select(panel, y, [0], a),
        "gated_columns": lambda a: gated_columns([(X, y.values)], a),
        "table_overall_annual": lambda a: table_overall_annual(panel, y, a),
        "table_shift_scan": lambda a: table_shift_scan(panel, y, (0,), a),
        "coefficient_stats": lambda a: coefficient_stats(fit, a),
        "table_coefficients": lambda a: table_coefficients(fit, a),
        "t_critical": lambda a: t_critical(a, 10),
    }
    return ([(f"{name}-shift{k}", call, k, "|shift| = 3 exceeds maximum 2")
             for name, call in takes_shift.items() for k in (-3, 3)]
            + [(f"{name}-alpha{a}", call, a, "alpha must be in (0, 1)")
               for name, call in takes_alpha.items() for a in (0.0, 1.0, 1.5, math.nan)])


@pytest.mark.parametrize("call, bad, message",
                         [pytest.param(*case[1:], id=case[0]) for case in _entry_points()])
def test_every_entry_point_rejects_a_bad_shift_or_alpha(call, bad, message):
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        call(bad)
