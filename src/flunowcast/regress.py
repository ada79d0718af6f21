"""Multi-query linear nowcast model: OLS fit and rolling refits.

The model is y_t = b0 + b1*x_1t + ... + bn*x_nt, fit by least squares.
The solver is QR-based (Householder); normal equations exist only as a
test oracle elsewhere. Both nowcast modes return a one-column frame of
estimates stamped at case weeks: `predict` applies a full-period fit to
every panel week, and `rolling_weekly_fit` refits the coefficients once
per week on all strictly-prior weeks. Only the coefficients are refit:
the queries and the shift are the caller's, and `nowcast` picks them once
from all weeks. Every fit takes its rows from `timeseries.paired`.
Stacked QRs save numpy's per-call cost. A greedy step factors its
candidates together (`candidate_objectives`), each lane's objective equal
to its own fit's bit for bit; rolling windows go ROLLING_CHUNK to a stack,
zero-padded, each lane's Q^T y summed over its own rows only (not padding).
Coefficient inference (intervals, p-values) is computed only on request,
by `coefficient_stats` as one plain row a term: one critical t, and
every term's p from one call of the Student-t kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import SingularDesign, Underdetermined
from .timeseries import Weekly, paired

PIVOT_TOL = 1e-10
ROLLING_CHUNK = 16  # expanding windows per stacked QR in rolling_weekly_fit


@dataclass(frozen=True, eq=False)
class ModelFit:
    labels: tuple[str, ...]
    betas: np.ndarray  # intercept first
    std_errors: np.ndarray  # same order as betas
    r_squared: float
    residual_dof: int
    shift: int


def _singular(r: np.ndarray) -> np.ndarray:
    """Rank test of an R factor, or of each in a stack: the smallest
    diagonal entry is at most PIVOT_TOL times the largest (or 1)."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return diag.min(axis=-1) <= PIVOT_TOL * np.maximum(diag.max(axis=-1), 1.0)


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(X), 1)), X])


def _padded_qr(A: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stacked QR of the windows A[:t], t in ts, each zero-padded to the longest."""
    return np.linalg.qr(np.where(np.arange(ts[-1])[:, None] < ts[:, None, None], A[:ts[-1]], 0.0))


def _solve(A: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of yv on the design A = [1 X], via Householder QR.

    Returns (beta, R), intercept first, with A = QR. Raises
    Underdetermined below nq + 2 rows and SingularDesign on rank loss.
    """
    m, nq = A.shape[0], A.shape[1] - 1
    if m < nq + 2:
        raise Underdetermined(f"{m} fitted weeks for {nq} queries (need >= {nq + 2})")
    q, r = np.linalg.qr(A)
    if _singular(r):
        raise SingularDesign("design matrix columns are collinear")
    return np.linalg.solve(r, q.T @ yv), r


def fit_ols(panel: Weekly, y: Weekly, k: int) -> ModelFit:
    """Fit the nowcast model on the full overlapping period at shift k."""
    X, yv, _ = paired(panel, y, k)
    beta, r = _solve(_with_intercept(X), yv)
    m, nq = X.shape
    resid = yv - (beta[0] + X @ beta[1:])
    rss = float(resid @ resid)
    dof = m - (nq + 1)
    # (X'X)^-1 = R^-1 R^-T
    r_inv = np.linalg.solve(r, np.eye(r.shape[0]))
    ses = np.sqrt(np.maximum(rss / dof * np.diag(r_inv @ r_inv.T), 0.0))
    tss = float(np.sum((yv - yv.mean()) ** 2))
    return ModelFit(
        labels=panel.labels,
        betas=beta,
        std_errors=ses,
        r_squared=1.0 if tss == 0.0 else min(max(1.0 - rss / tss, 0.0), 1.0),
        residual_dof=dof,
        shift=k,
    )


def coefficient_stats(fit: ModelFit, alpha: float) -> list[tuple]:
    """Each term's row (term, estimate, std_error, ci_low, ci_high, p_value), the
    interval 1 - alpha and p two-sided; intercept first, as "(intercept)". The
    p-values do not depend on alpha."""
    tcrit = stats.t_critical(alpha, fit.residual_dof)
    live = fit.std_errors != 0.0
    p = np.zeros(len(fit.betas))
    p[live] = stats.t_two_sided_p(fit.betas[live] / fit.std_errors[live], fit.residual_dof)
    return [(term, est, se, est - tcrit * se, est + tcrit * se, pj) if se != 0.0
            else (term, est, 0.0, est, est, 0.0)
            for term, est, se, pj in zip(("(intercept)",) + fit.labels, fit.betas.tolist(),
                                         fit.std_errors.tolist(), p.tolist())]


def predict(fit: ModelFit, panel: Weekly) -> Weekly:
    """Evaluate the fitted model on every week of the panel.

    Estimates are stamped at case weeks (search week + shift); negative
    estimates are kept.
    """
    start = panel.start.add(fit.shift)  # raises off the calendar
    X = panel.subset(list(fit.labels)).matrix
    return Weekly(start, ("estimates",), (fit.betas[0] + X @ fit.betas[1:])[:, None])


def rolling_weekly_fit(panel: Weekly, y: Weekly, k: int,
                       warmup: int | None = None) -> Weekly | None:
    """One-step-ahead estimates with weekly coefficient updates.

    The estimate for week t comes from coefficients fit on all weeks
    strictly before t (expanding window); the panel's queries and the
    shift k are used as given, whatever weeks chose them. The estimates start
    at the first estimated week; None when no week gets an estimate. An
    explicit warmup's first window must be fittable; the default starts at
    the first fittable window from week nq + 4 on. The windows are factored
    ROLLING_CHUNK at a time, in one stacked QR each (`_padded_qr`).
    """
    X, yv, yi = paired(panel, y, k)
    m, nq = X.shape
    default_warmup = warmup is None
    if default_warmup:
        warmup = nq + 4
    if warmup < nq + 2:
        raise Underdetermined(f"warmup {warmup} < {nq + 2} minimum for {nq} queries")
    A = _with_intercept(X)
    values = []
    for t0 in range(warmup, m, ROLLING_CHUNK):
        ts = np.arange(t0, min(t0 + ROLLING_CHUNK, m))
        q, r = _padded_qr(A, ts)
        bad = _singular(r)
        # the default warmup runs on past singular windows (e.g.
        # still-flat query columns) to the first fittable one; adding
        # rows never lowers the column rank, so later windows fit too
        lead = int(bad.cumprod().sum()) if default_warmup and not values else 0
        if bad[lead:].any():
            raise SingularDesign("design matrix columns are collinear")
        qty = np.reshape([q[i, :t].T @ yv[:t] for i, t in enumerate(ts)], (len(ts), -1, 1))
        betas = np.linalg.solve(r[lead:], qty[lead:])[:, :, 0]
        values += [float(b[0] + X[t] @ b[1:]) for t, b in zip(ts[lead:], betas)]
    # estimates are contiguous and end at the last fitted week
    return (Weekly(y.start.add(yi + m - len(values)), ("estimates",), np.reshape(values, (-1, 1)))
            if values else None)


def candidate_objectives(X: np.ndarray, yv: np.ndarray, chosen: list[int],
                         candidates: list[int]) -> list[float | None]:
    """The selection objective of the model on X's columns `chosen` plus
    each one of `candidates`, from one stacked QR of all their designs.

    The objective is the Pearson r between full-period model estimates and
    cases; with an intercept that r is the square root of R^2, taken
    straight from the solve. No significance gating: a lane is None when
    its fit is undefined (too few rows, collinear columns) or y or its
    estimates are constant.
    """
    m, a = len(yv), len(chosen)
    objectives = [None] * len(candidates)
    if m < a + 3:  # a + 1 queries need a + 3 rows, as in _solve
        return objectives
    ybar = yv.mean()
    dy = yv - ybar
    tss = float(dy @ dy)
    if tss == 0.0:
        return objectives
    # lane j is the design [1, chosen columns, candidate j]
    A = np.empty((len(candidates), m, a + 2))
    A[:, :, 0] = 1.0
    A[:, :, 1:-1] = X[:, chosen]
    A[:, :, -1] = X[:, candidates].T
    q, r = np.linalg.qr(A)
    lanes = np.flatnonzero(~_singular(r))
    qty = np.swapaxes(q, 1, 2) @ yv
    # b as (lanes, p, 1): numpy 1.x and 2.x both read that as one vector per lane
    betas = np.linalg.solve(r[lanes], qty[lanes, :, None])[:, :, 0]
    for j, beta in zip(lanes.tolist(), betas):
        df = A[j, :, 1:] @ beta[1:] + (beta[0] - ybar)
        ess = float(df @ df)
        if ess != 0.0:
            objectives[j] = min(math.sqrt(ess / tss), 1.0)
    return objectives


def in_sample_objective(X: np.ndarray, yv: np.ndarray) -> float | None:
    """The selection objective of the model on all of X's columns, where
    X's rows are paired with the case values yv (as `stats.paired_rows`
    gives them): `candidate_objectives` with the last column as the one
    lane."""
    nq = X.shape[1]
    return candidate_objectives(X, yv, list(range(nq - 1)), [nq - 1])[0]
