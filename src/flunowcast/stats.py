"""Pearson correlation with t-test significance and NA semantics.

One kernel correlates every column of a (weeks x queries) window with
the cases at once; `correlate` is that kernel on one column. Every
Student-t p-value, the cells' and the fitted coefficients', comes from
one batched kernel, `t_two_sided_p`, whose lanes run the incomplete-beta
continued fraction side by side; `t_critical` inverts that kernel by
Newton's method. A correlation that cannot be computed
(constant series, too few pairs) or fails the significance gate is
reported as NA with a reason code, never as an exception, mirroring how
surveillance tables mark cells.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap, InsufficientOverlap, InvalidDof
from .timeseries import MIN_PAIRS, QueryPanel, ShiftSpec, WeekStamp, WeeklySeries, window

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300
_NEWTON_MAX_ITER = 200


class NAReason(enum.Enum):
    ZERO_VARIANCE = "ZeroVariance"
    TOO_FEW_PAIRS = "TooFewPairs"
    NOT_SIGNIFICANT = "NotSignificant"


@dataclass(frozen=True)
class SignificanceConfig:
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int
    na_reason: NAReason | None = None

    @property
    def na(self) -> bool:
        return self.na_reason is not None


TOO_FEW_CELL = CorrelationResult(math.nan, math.nan, 0, NAReason.TOO_FEW_PAIRS)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Column sums adding rows in order, as a sum over pairs would; a
    pairwise np.sum rounds differently and moves printed p-values."""
    return np.cumsum(a, axis=0)[-1]


def _pearson_columns(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r of each column of X (rows are weeks) against y, and which columns
    have a constant side; r is NaN there."""
    n = len(y)
    dx = X - _row_sum(X) / n
    dy = y - _row_sum(y) / n
    sxx = _row_sum(dx * dx)
    syy = _row_sum(dy * dy)
    sxy = _row_sum(dx * dy[:, None])
    flat = (sxx == 0.0) | (syy == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sxy / np.sqrt(sxx * syy)
    # guard against rounding pushing |r| past 1
    return np.clip(r, -1.0, 1.0), flat


def _beta_continued_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lentz's continued fraction for the regularized incomplete beta on
    arrays of lanes, each lane leaving as soon as it converges."""
    tiny = 1e-300

    def floor(v):  # keep Lentz's d and c off zero
        return np.where(np.abs(v) < tiny, tiny, v)

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = np.ones_like(x), 1.0 / floor(1.0 - qab * x / qap)
    h, out, lanes = d, np.empty_like(x), np.arange(len(x))
    for m in range(1, _BETA_MAX_ITER + 1):
        if not len(lanes):
            return out
        m2 = 2 * m
        # the even and the odd step of term m, which differ only in aa
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / floor(1.0 + aa * d)
            c = floor(1.0 + aa / c)
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) < _BETA_TOL
        if done.any():
            out[lanes[done]] = h[done]
            lanes, a, b, x, qab, qap, qam, c, d, h = (
                v[~done] for v in (lanes, a, b, x, qab, qap, qam, c, d, h))
    out[lanes] = h  # lanes still running at _BETA_MAX_ITER
    return out


def t_two_sided_p(t: np.ndarray, dof) -> np.ndarray:
    """P(|T| >= |t|) of each finite lane of t for Student's t with `dof`
    >= 1 degrees of freedom, one number or one per lane; lgamma, log,
    log1p and exp come from `math` lane by lane, so that a p is the same
    on every host."""
    x, cx = dof / (dof + t * t), t * t / (dof + t * t)
    upper = cx < 0.5  # p is 1 - I_cx(1/2, dof/2), else I_x(dof/2, 1/2); t = 0 gives 1
    half = dof / 2.0
    a, b, z = np.where(upper, 0.5, half), np.where(upper, half, 0.5), np.where(upper, cx, x)
    inc = (z >= 1.0).astype(float)  # I_z(a, b), 0 and 1 at the ends
    mid = (0.0 < z) & (z < 1.0)
    a, b, z = a[mid], b[mid], z[mid]
    front = np.array([
        math.exp(math.lgamma(ai + bi) - math.lgamma(ai) - math.lgamma(bi)
                 + ai * math.log(zi) + bi * math.log1p(-zi))
        for ai, bi, zi in zip(a.tolist(), b.tolist(), z.tolist())])
    # the fraction converges fast below Beta(a, b)'s mean; above, I_z(a, b) = 1 - I_1-z(b, a)
    direct = z < (a + 1.0) / (a + b + 2.0)
    v = front * _beta_continued_fractions(np.where(direct, a, b), np.where(direct, b, a),
                                          np.where(direct, z, 1.0 - z)) / np.where(direct, a, b)
    inc[mid] = np.where(direct, v, 1.0 - v)
    return np.where(upper, 1.0 - inc, inc)


def t_critical(alpha: float, dof: int) -> float:
    """Two-sided critical value: the t with t_two_sided_p(t, dof) = alpha.

    Newton's method on the kernel, whose derivative is minus twice the t
    density: p is convex and decreasing for t > 0, so from a start below
    the root (the Cornish-Fisher expansion's first two terms) each step
    climbs towards it. Quadratic convergence leaves an error of the order
    of the last step squared, so a step below 1e-9 t is the last.
    """
    from statistics import NormalDist  # here, so that only `fit` pays for importing it

    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    z = -NormalDist().inv_cdf(alpha / 2)
    t = z + (z ** 3 + z) / (4 * dof)
    log_c = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    for _ in range(_NEWTON_MAX_ITER):
        density = math.exp(log_c - (dof + 1) / 2 * math.log1p(t * t / dof))
        step = (t_two_sided_p(np.array([t]), dof).item() - alpha) / (2.0 * density)
        t += step
        if not step > 1e-9 * t:
            break
    return t


def correlation_p_values(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Two-sided p of each lane's finite r over n pairs (null: zero
    correlation, t with n - 2 dof); 0 where |r| >= 1."""
    p = np.zeros(len(r))
    live = np.abs(r) < 1.0
    r, dof = r[live], n[live] - 2
    p[live] = t_two_sided_p(r * np.sqrt(dof / (1.0 - r * r)), dof)
    return p


def paired_rows(start: WeekStamp, X: np.ndarray, y: WeeklySeries,
                s: ShiftSpec) -> tuple[np.ndarray, np.ndarray]:
    """X's weekly rows from `start` and their case values under shift s; none if too few."""
    try:
        xi, yi, n = window(start, len(X), y, s)
    except (InsufficientOverlap, EmptyOverlap):
        return X[:0], y.values[:0]
    return X[xi:xi + n], y.values[yi:yi + n]


def gated_columns(windows: list[tuple[np.ndarray, np.ndarray]],
                  cfg: SignificanceConfig) -> list[list[CorrelationResult]]:
    """Gated r of every column of each window's X (rows are weeks) against
    its y, every p-value in one kernel call; degenerate or insignificant
    columns come back as NA cells, never as exceptions."""
    pearson = [_pearson_columns(X, y) if len(y) >= MIN_PAIRS else None for X, y in windows]
    kept = [(rf[0][~rf[1]], len(y)) for (_, y), rf in zip(windows, pearson) if rf is not None]
    r = np.concatenate([np.empty(0)] + [rj for rj, _ in kept])
    n = np.repeat([n for _, n in kept], [len(rj) for rj, _ in kept])
    p = iter(correlation_p_values(r, n).tolist())

    def cell(r: float, zero: bool, n: int) -> CorrelationResult:
        if zero:
            return CorrelationResult(math.nan, math.nan, 0, NAReason.ZERO_VARIANCE)
        pj = next(p)
        return CorrelationResult(r, pj, n, NAReason.NOT_SIGNIFICANT if pj >= cfg.alpha else None)

    return [[TOO_FEW_CELL] * X.shape[1] if rf is None
            else [cell(rj, zero, len(y)) for rj, zero in zip(rf[0].tolist(), rf[1].tolist())]
            for (X, y), rf in zip(windows, pearson)]


def correlate(
    x: WeeklySeries,
    y: WeeklySeries,
    s: ShiftSpec,
    cfg: SignificanceConfig = SignificanceConfig(),
) -> CorrelationResult:
    """Shift, correlate, and significance-gate one query against cases.

    Total over valid series: degenerate inputs come back as NA with a
    reason, never raise.
    """
    return gated_columns([paired_rows(x.start, x.values[:, None], y, s)], cfg)[0][0]


def rank_queries(
    panel: QueryPanel,
    y: WeeklySeries,
    shifts: list[ShiftSpec],
    cfg: SignificanceConfig = SignificanceConfig(),
) -> list[list[tuple[str, CorrelationResult]]]:
    """At each shift, each query correlated against cases, best first, NA
    cells last; all shifts' p-values in one kernel call.

    Ties break on label code points so downstream selection is
    deterministic.
    """
    def key(item):
        label, res = item
        if res.na:
            return (1, 0.0, label)
        return (0, -res.r, label)

    windows = [paired_rows(panel.start, panel.matrix, y, s) for s in shifts]
    return [sorted(zip(panel.labels, cells), key=key) for cells in gated_columns(windows, cfg)]
