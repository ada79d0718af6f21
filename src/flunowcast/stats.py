"""Pearson correlation with t-test significance and NA semantics.

One kernel correlates every column of a (weeks x queries) window with
the cases at once; `correlate` is that kernel on one column. A
correlation that cannot be computed (constant series, too few pairs) or
fails the significance gate is reported as NA with a reason code, never
as an exception, mirroring how surveillance tables mark cells.
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


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the regularized incomplete beta."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued-fraction expansion."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom."""
    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    if not math.isfinite(t):
        raise InvalidDof("t statistic must be finite")
    if t == 0.0:
        return 1.0
    # use whichever tail argument is computed without cancellation
    x = dof / (dof + t * t)
    cx = t * t / (dof + t * t)
    if cx < 0.5:
        return 1.0 - regularized_incomplete_beta(0.5, dof / 2.0, cx)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def t_critical(alpha: float, dof: int) -> float:
    """Two-sided critical value: the t with student_t_two_sided_p(t) = alpha."""
    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, dof) > alpha:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_p(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p for the null of zero correlation, t with n-2 dof."""
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return student_t_two_sided_p(t, n - 2)


def gated_columns(X: np.ndarray, y: np.ndarray, cfg: SignificanceConfig) -> list[CorrelationResult]:
    """Gated r of every column of X (rows are weeks) against y; degenerate
    or insignificant columns come back as NA cells, never as exceptions."""
    n = len(y)
    if n < MIN_PAIRS:
        return [TOO_FEW_CELL] * X.shape[1]
    r, flat = _pearson_columns(X, y)
    cells = []
    for rj, zero in zip(r.tolist(), flat.tolist()):
        if zero:
            cells.append(CorrelationResult(math.nan, math.nan, 0, NAReason.ZERO_VARIANCE))
        elif (p := correlation_p_value(rj, n)) >= cfg.alpha:
            cells.append(CorrelationResult(rj, p, n, NAReason.NOT_SIGNIFICANT))
        else:
            cells.append(CorrelationResult(rj, p, n))
    return cells


def correlate_columns(start: WeekStamp, X: np.ndarray, y: WeeklySeries, s: ShiftSpec,
                      cfg: SignificanceConfig) -> list[CorrelationResult]:
    """gated_columns over X's weekly rows from `start` paired with y under shift s."""
    try:
        xi, yi, n = window(start, len(X), y, s)
    except (InsufficientOverlap, EmptyOverlap):
        return [TOO_FEW_CELL] * X.shape[1]
    return gated_columns(X[xi:xi + n], y.values[yi:yi + n], cfg)


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
    return correlate_columns(x.start, x.values[:, None], y, s, cfg)[0]


def rank_queries(
    panel: QueryPanel,
    y: WeeklySeries,
    s: ShiftSpec,
    cfg: SignificanceConfig = SignificanceConfig(),
) -> list[tuple[str, CorrelationResult]]:
    """Each query correlated against cases, best first, NA cells last.

    Ties break on label code points so downstream selection is
    deterministic.
    """
    scored = list(zip(panel.labels, correlate_columns(panel.start, panel.matrix, y, s, cfg)))

    def key(item):
        label, res = item
        if res.na:
            return (1, 0.0, label)
        return (0, -res.r, label)

    return sorted(scored, key=key)
