import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from flunowcast import stats
from flunowcast.errors import InvalidDof
from flunowcast.regress import QueryPanel
from flunowcast.stats import (
    CorrelationResult,
    NAReason,
    SignificanceConfig,
    correlate,
    correlation_p_values,
    rank_queries,
    t_critical,
    t_two_sided_p,
)
from flunowcast.timeseries import ShiftSpec, WeekStamp, WeeklySeries

from .oracles import (
    bisection_t_critical,
    correlation_p_value,
    definitional_pearson,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    t_density_p_value,
)

W0 = WeekStamp(2009, 1)
CENTI = st.integers(-10000, 10000).map(lambda i: i / 100)  # 0.01 grid on [-100, 100]


def ws(values, label=""):
    return WeeklySeries(W0, tuple(values), label)


def cell(xs, ys):
    """The shift-0 correlation cell of two aligned sequences (r is kept
    when the gate rejects it)."""
    return correlate(ws(xs), ws(ys), ShiftSpec(0))


class TestPearson:
    def test_perfect_positive(self):
        res = cell([1, 2, 3], [1, 2, 3])
        assert res.r == pytest.approx(1.0, abs=1e-15)
        assert res.n == 3

    def test_perfect_negative(self):
        assert cell([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_value(self):
        # definitional sums: sxy=4, sxx=syy=5 -> r = 4/5
        res = cell([1, 2, 3, 4], [1, 3, 2, 4])
        assert res.r == pytest.approx(
            definitional_pearson([1, 2, 3, 4], [1, 3, 2, 4]), abs=1e-15
        )
        assert res.r == pytest.approx(0.8, abs=1e-12)
        assert res.n == 4

    def test_symmetric_under_swap(self):
        xs, ys = [1.0, 2.5, 3.0, 7.0], [4.0, 1.0, 9.0, 2.0]
        assert cell(xs, ys).r == pytest.approx(cell(ys, xs).r, abs=1e-15)

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
        if res.na_reason is NAReason.ZERO_VARIANCE:
            return
        r1 = cell([a * x + b for x in xs], ys).r
        assert abs(r1 - res.r) <= 1e-9

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert cell(x, y).r == pytest.approx(definitional_pearson(x, y), abs=1e-12)


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


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 30, 143, 257, 1000])
@pytest.mark.parametrize("alpha", [0.5, 0.2, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6])
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

    def test_no_lanes(self):
        assert correlation_p_values(np.array([]), np.array([], dtype=int)).tolist() == []


class TestCorrelate:
    def test_constant_series_is_na(self):
        res = correlate(ws([5, 5, 5, 5]), ws([1, 2, 3, 4]), ShiftSpec(0))
        assert res.na and res.na_reason is NAReason.ZERO_VARIANCE

    def test_constructed_identity_at_shift_two(self):
        rng = np.random.default_rng(3)
        y_vals = rng.uniform(0, 100, size=30)
        y = ws(y_vals)
        # x_t = y_{t+2}: searches lead cases by two weeks
        x = ws(list(y_vals[2:]) + [0.0, 0.0])
        res = correlate(x, y, ShiftSpec(2))
        assert not res.na
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.p_value < 0.05

    def test_insignificant_is_na_with_values_kept(self):
        rng = np.random.default_rng(4)
        res = correlate(ws(rng.normal(size=40)), ws(rng.normal(size=40)), ShiftSpec(0))
        if res.na:
            assert res.na_reason is NAReason.NOT_SIGNIFICANT
            assert res.p_value >= 0.05
            assert math.isfinite(res.r)

    def test_short_overlap_is_na(self):
        res = correlate(ws([1, 2, 3]), ws([1, 2, 3]), ShiftSpec(2))
        assert res.na and res.na_reason is NAReason.TOO_FEW_PAIRS

    def test_never_raises_on_degenerate_input(self):
        degenerate = [ws([0, 0, 0]), ws([1, 1, 1, 1]), ws([1]), ws([1, 2])]
        y = ws([1, 2, 3, 4])
        for x in degenerate:
            for k in (-2, -1, 0, 1, 2):
                res = correlate(x, y, ShiftSpec(k))
                assert isinstance(res, CorrelationResult)

    def test_p_matches_permutation_test(self):
        from .oracles import permutation_p_value

        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = 0.3 * x + rng.normal(size=40)
        r = definitional_pearson(x, y)
        p_t = correlation_p_value(r, 40)
        p_perm = permutation_p_value(x, y, seed=11)
        assert abs(p_t - p_perm) < 0.02


class TestRankQueries:
    def _panel(self, columns):
        labels, values = zip(*columns)
        return QueryPanel(W0, labels, np.column_stack(values))

    def test_descending_with_na_last(self):
        rng = np.random.default_rng(6)
        y_vals = rng.uniform(0, 50, size=40)
        noise = rng.normal(size=40)
        panel = self._panel([
            ("mid", 0.5 * y_vals + 20 * noise),
            ("flat", np.zeros(40)),
            ("best", y_vals + 0.01 * noise),
        ])
        ranked = rank_queries(panel, ws(y_vals), [ShiftSpec(0)])[0]
        labels = [l for l, _ in ranked]
        assert labels[0] == "best"
        assert labels[-1] == "flat"
        rs = [res.r for _, res in ranked if not res.na]
        assert rs == sorted(rs, reverse=True)

    def test_prescored_screening_order(self):
        # three queries built to reproduce the screening order of a
        # pre-scored fixture: 0.50 > 0.43 > 0.39 individual correlations
        rng = np.random.default_rng(7)
        y_vals = rng.uniform(0, 100, size=200)

        def with_target_r(target, seed):
            g = np.random.default_rng(seed)
            z = g.normal(size=200)
            yc = (y_vals - y_vals.mean()) / y_vals.std()
            zc = z - (z @ yc / 200) * yc
            zc /= zc.std()
            return target * yc + math.sqrt(1 - target ** 2) * zc

        panel = self._panel([
            ("H1N1", with_target_r(0.50, 1)),
            ("H1N1 vaccine", with_target_r(0.43, 2)),
            ("virus H1N1", with_target_r(0.39, 3)),
        ])
        ranked = rank_queries(panel, ws(y_vals), [ShiftSpec(0)])[0]
        assert [l for l, _ in ranked] == ["H1N1", "H1N1 vaccine", "virus H1N1"]

    def test_tie_breaks_on_label(self):
        y_vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        panel = self._panel([("b", y_vals), ("a", y_vals)])
        ranked = rank_queries(panel, ws(y_vals), [ShiftSpec(0)])[0]
        assert [l for l, _ in ranked] == ["a", "b"]

    def test_one_call_ranks_each_shift_as_a_call_of_its_own(self):
        rng = np.random.default_rng(9)
        panel = self._panel([(f"q{i}", rng.uniform(0, 10, size=30)) for i in range(4)])
        y = ws(rng.uniform(0, 10, size=30))
        shifts = [ShiftSpec(k) for k in (-2, 0, 1)]
        assert rank_queries(panel, y, shifts) == [rank_queries(panel, y, [s])[0] for s in shifts]

    def test_output_is_permutation_of_labels(self):
        rng = np.random.default_rng(8)
        panel = self._panel([(f"q{i}", rng.uniform(0, 10, size=20)) for i in range(6)])
        ranked = rank_queries(panel, ws(rng.uniform(0, 10, size=20)), [ShiftSpec(0)])[0]
        assert sorted(l for l, _ in ranked) == sorted(panel.labels)
