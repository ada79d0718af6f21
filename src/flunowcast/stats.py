"""Pearson correlation with t-test significance and NA semantics.

One kernel correlates every column of a (weeks x queries) window with
the cases at once, and returns the window's cells as columns: r, p and
an NA-reason code per lane. Its sums add weeks in order: numpy sums
pairwise only along the axis fastest in memory, so a row-major window of
two or more columns takes one np.add.reduce and any other layout cumsum.
Every Student-t p-value, the cells' and the fitted coefficients', comes
from one batched kernel, `t_two_sided_p`, whose lanes run the
incomplete-beta continued fraction side by side as arrays; the last
`_FEW_LANES` still running finish one by one in plain floats, with the
array loop's steps in its order and so its bits; the array loop floors
Lentz's d and c in place, in temporaries of its own. `t_critical` inverts
it by Newton's method. A correlation that cannot be computed (constant
series, too few pairs) or fails the significance gate is NA with a
reason code, never an exception, as surveillance tables mark cells.
Alpha is a float, checked to lie in (0, 1) at the gate and in `t_critical`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, InvalidConfig, InvalidDof
from .timeseries import MIN_PAIRS, Weekly, paired

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300
_BETA_TINY = 1e-300  # Lentz's floor on d and c
_NEWTON_MAX_ITER = 200
_FEW_LANES = 24  # an array iteration costs as much as ~35 lane iterations in plain floats

# a lane's NA-reason code indexes REASONS; code 0 is a lane with no reason
REASONS = (None, "ZeroVariance", "TooFewPairs", "NotSignificant")
_ZERO_VARIANCE, _TOO_FEW_PAIRS, _NOT_SIGNIFICANT = 1, 2, 3
UNTESTED = REASONS[1:3]  # lanes that count no pairs


@dataclass(frozen=True)
class GatedColumns:
    """One window's gated correlations, lane j for column j: r and p are
    NaN where the lane has none, and `reason` holds each lane's code."""
    r: np.ndarray
    p: np.ndarray
    n: int  # the window's pair count
    reason: np.ndarray


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Column sums adding rows in order, as a sum over pairs would; a
    pairwise np.sum rounds differently and moves printed p-values."""
    if a.ndim == 2 and a.shape[1] > 1 and a.flags.c_contiguous:
        return np.add.reduce(a, axis=0)
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
    flat = (sxx == 0.0) | (syy == 0.0) | (X == X[:1]).all(axis=0) | (y == y[:1]).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sxy / np.sqrt(sxx * syy)
    # guard against rounding pushing |r| past 1
    return np.clip(r, -1.0, 1.0), flat


def _beta_continued_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lentz's continued fraction for the regularized incomplete beta on
    arrays of lanes, each lane leaving as soon as it converges."""
    tiny = _BETA_TINY

    def floor(v):  # keep Lentz's d and c off zero; v is a fresh temporary, floored in place
        np.putmask(v, np.abs(v) < tiny, tiny)
        return v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = np.ones_like(x), 1.0 / floor(1.0 - qab * x / qap)
    h, out, lanes = d, np.empty_like(x), np.arange(len(x))
    for m in range(1, _BETA_MAX_ITER + 1):
        if len(lanes) <= _FEW_LANES:  # the last few finish faster in plain floats
            for j, *lane in zip(*(v.tolist() for v in (lanes, a, b, x, c, d, h))):
                out[j] = _beta_fraction_tail(m, *lane)
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
            keep = np.flatnonzero(~done)
            lanes, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (lanes, a, b, x, qab, qap, qam, c, d, h))
    out[lanes] = h  # lanes still running at _BETA_MAX_ITER
    return out


def _beta_fraction_tail(m: int, a: float, b: float, x: float, c: float, d: float,
                        h: float) -> float:
    """One lane of the fraction from term m on, in plain floats: the array
    loop's steps in its order, so that it gives the same bits."""
    tiny, qab, qap, qam = _BETA_TINY, a + b, a + 1.0, a - 1.0
    for m in range(m, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            break
    return h


def t_two_sided_p(t: np.ndarray, dof) -> np.ndarray:
    """P(|T| >= |t|) of each finite lane of t for Student's t with `dof`
    >= 1 degrees of freedom, one number or one per lane; lgamma, log,
    log1p and exp come from `math` lane by lane, so that a p is the same
    on every host."""
    # x = dof / (dof + t * t) leaves the floats past |t| ~ 1e154 sqrt(dof); from T = 1e100
    # sqrt(dof) on, the tail is a power law to double precision: p(t) = p(T) (T / |t|)**dof
    top = 1e100 * np.sqrt(dof)
    tail = (top / np.fmax(np.abs(t), top)) ** dof
    t = np.fmin(np.abs(t), top)
    x, cx = dof / (dof + t * t), t * t / (dof + t * t)
    upper = cx < 0.5  # p is 1 - I_cx(1/2, dof/2), else I_x(dof/2, 1/2); t = 0 gives 1
    half = dof / 2.0
    a, b, z = np.where(upper, 0.5, half), np.where(upper, half, 0.5), np.where(upper, cx, x)
    inc = (z >= 1.0).astype(float)  # I_z(a, b), 0 and 1 at the ends
    mid = (0.0 < z) & (z < 1.0)
    a, b, z = a[mid], b[mid], z[mid]
    ab = list(zip(a.tolist(), b.tolist()))
    # log Beta(a, b) once per distinct (a, b): a window's lanes share one dof
    log_beta = {(ai, bi): math.lgamma(ai + bi) - math.lgamma(ai) - math.lgamma(bi)
                for ai, bi in set(ab)}
    front = np.array([math.exp(log_beta[ai, bi] + ai * math.log(zi) + bi * math.log1p(-zi))
                      for (ai, bi), zi in zip(ab, z.tolist())])
    # the fraction converges fast below Beta(a, b)'s mean; above, I_z(a, b) = 1 - I_1-z(b, a)
    direct = z < (a + 1.0) / (a + b + 2.0)
    v = front * _beta_continued_fractions(np.where(direct, a, b), np.where(direct, b, a),
                                          np.where(direct, z, 1.0 - z)) / np.where(direct, a, b)
    inc[mid] = np.where(direct, v, 1.0 - v)
    return np.where(upper, 1.0 - inc, inc) * tail


def t_critical(alpha: float, dof: int) -> float:
    """Two-sided critical value: the t with t_two_sided_p(t, dof) = alpha.

    Newton's method on the kernel, whose derivative is minus twice the t
    density: p is convex and decreasing for t > 0, so from a start below
    the root (the Cornish-Fisher expansion's first two terms) each step
    climbs towards it. On a heavy tail Newton gains only a factor of about
    1 + 1/dof a step, so while p > alpha a step is the longer of Newton's
    and the power law's, t (p / alpha)**(1/dof) - t: p(ct) >= p(t) / c**dof
    for c >= 1, so that step stays below the root too. Quadratic convergence
    leaves an error of the order of the last step squared, so a step below
    1e-9 t is the last.
    """
    from statistics import NormalDist  # here, so that only `fit` pays for importing it

    if not 0.0 < alpha < 1.0:
        raise InvalidConfig("alpha must be in (0, 1)")
    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    alpha = float(alpha)  # a numpy alpha makes t numpy, whose t * t warns as it overflows
    # inv_cdf needs a normal p; at a subnormal alpha, a larger alpha's start is below the root too
    z = -NormalDist().inv_cdf(max(alpha / 2, sys.float_info.min))
    t = z + (z ** 3 + z) / (4 * dof)
    log_c = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    for _ in range(_NEWTON_MAX_ITER):
        p = t_two_sided_p(np.array([t]), dof).item()
        density = math.exp(log_c - (dof + 1) / 2 * math.log1p(t * t / dof))
        # p / alpha overflows at a subnormal alpha; t p**(1/dof) / alpha**(1/dof) does not,
        # unless the root itself is past the floats
        power = (t * ((p / alpha) ** (1.0 / dof) - 1.0) if p / alpha < math.inf
                 else t * p ** (1.0 / dof) / alpha ** (1.0 / dof) - t)
        # far out on a heavy tail the density leaves the normal floats, and the power law is exact
        newton = (p - alpha) / (2.0 * density) if density >= sys.float_info.min else power
        step = max(newton, power) if p > alpha else newton
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


def paired_rows(x: Weekly, y: Weekly, k: int) -> tuple[np.ndarray, np.ndarray]:
    """x's weekly rows and y's values paired under shift k; none if too few."""
    try:
        return paired(x, y, k)[:2]
    except InsufficientOverlap:
        return x.matrix[:0], y.values[:0]


def gated_columns(windows: list[tuple[np.ndarray, np.ndarray]],
                  alpha: float) -> list[GatedColumns]:
    """Gated r of every column of each window's X (rows are weeks) against
    its y at level alpha, every p-value in one kernel call; degenerate or
    insignificant columns come back as NA lanes, never as exceptions."""
    if not 0.0 < alpha < 1.0:
        raise InvalidConfig("alpha must be in (0, 1)")
    rs, codes = [], []
    for X, y in windows:
        if len(y) < MIN_PAIRS:
            rs.append(np.full(X.shape[1], math.nan))
            codes.append(np.full(X.shape[1], _TOO_FEW_PAIRS))
        else:
            r, flat = _pearson_columns(X, y)
            rs.append(np.where(flat, math.nan, r))
            codes.append(np.where(flat, _ZERO_VARIANCE, 0))
    widths = [len(r) for r in rs]
    r, reason = np.concatenate([np.empty(0), *rs]), np.concatenate([np.empty(0, int), *codes])
    live = reason == 0
    p = np.full(len(r), math.nan)
    p[live] = correlation_p_values(r[live], np.repeat([len(y) for _, y in windows], widths)[live])
    reason[live & (p >= alpha)] = _NOT_SIGNIFICANT
    cuts = np.cumsum(widths)[:-1]
    return [GatedColumns(rj, pj, len(y), cj) for (_, y), rj, pj, cj in
            zip(windows, np.split(r, cuts), np.split(p, cuts), np.split(reason, cuts))]

