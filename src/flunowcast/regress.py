"""Multi-query linear nowcast model: OLS fit and rolling refits.

The model is y_t = b0 + b1*x_1t + ... + bn*x_nt, fit by least squares.
Every fit is a lane of `_lstsq`: one Householder QR of a stack of designs,
one rank test, each lane's Q^T y over its own rows, one stacked solve;
normal equations exist only as a test oracle elsewhere. Both nowcast modes
return a one-column frame of estimates stamped at case weeks: `predict`
applies a full-period fit (`fit_ols`, a one-lane stack) to every panel
week, and `rolling_weekly_fit` refits the coefficients once per week on all
strictly-prior weeks. Only the coefficients are refit: the queries and the
shift are the caller's, and `nowcast` picks them once from all weeks. Every
fit takes its rows from `timeseries.paired`. A greedy step stacks its
candidates (`candidate_objectives`), each lane's objective equal to its own
fit's bit for bit; rolling windows go ROLLING_CHUNK to a stack, zero-padded.
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


def _lstsq(A: np.ndarray, yv: np.ndarray, rows: list[int] | np.ndarray) -> tuple[np.ndarray, ...]:
    """Least squares of yv on each design of the stack A (lanes x weeks x p),
    lane i on its first rows[i] weeks (rows below are zero), from one stacked
    Householder QR. Returns (Q, R, ok, betas): each lane's Q and R, whether it
    passes the rank test, and the betas (intercept first) of those that do."""
    q, r = np.linalg.qr(A)
    ok = ~_singular(r)
    # each lane's Q^T y over its own rows only, not the zero padding
    qty = [q[i, :t].T @ yv[:t] for i, t in enumerate(rows) if ok[i]]
    # b as (lanes, p, 1): numpy 1.x and 2.x both read that as one vector per lane
    return q, r, ok, np.linalg.solve(r[ok], np.reshape(qty, (-1, A.shape[2], 1)))[:, :, 0]


def fit_ols(panel: Weekly, y: Weekly, k: int) -> ModelFit:
    """Fit the nowcast model on the full overlapping period at shift k."""
    X, yv, _ = paired(panel, y, k)
    m, nq = X.shape
    if m < nq + 2:
        raise Underdetermined(f"{m} fitted weeks for {nq} queries (need >= {nq + 2})")
    _, r, ok, betas = _lstsq(_with_intercept(X)[None], yv, [m])
    if not ok[0]:
        raise SingularDesign("design matrix columns are collinear")
    beta, r = betas[0], r[0]
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
    the first fittable window from week nq + 4 on. The windows are fit
    ROLLING_CHUNK at a time, each chunk one `_lstsq` stack.
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
        # lane i is the window A[:ts[i]], zero-padded to the chunk's longest; q lives on to
        # the next chunk's QR, as freeing it sooner doubled the fit's page faults
        padded = np.where(np.arange(ts[-1])[:, None] < ts[:, None, None], A[:ts[-1]], 0.0)
        q, _, ok, betas = _lstsq(padded, yv, ts)
        # the default warmup runs on past singular windows (e.g. still-flat queries) to the
        # first fittable one; adding rows never lowers the column rank, so later windows fit
        lead = int((~ok).cumprod().sum()) if default_warmup and not values else 0
        if not ok[lead:].all():
            raise SingularDesign("design matrix columns are collinear")
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
    if m < a + 3:  # a + 1 queries need a + 3 rows, as in fit_ols
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
    _, _, ok, betas = _lstsq(A, yv, [m] * len(candidates))
    for j, beta in zip(np.flatnonzero(ok).tolist(), betas):
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
