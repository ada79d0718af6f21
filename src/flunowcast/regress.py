"""Multi-query linear nowcast model: OLS fit and rolling refits.

The model is y_t = b0 + b1*x_1t + ... + bn*x_nt, fit by least squares.
The solver is QR-based (Householder); normal equations exist only as a
test oracle elsewhere. Both nowcast modes return one weekly series of
estimates stamped at case weeks: `predict` applies a full-period fit to
every panel week, and `rolling_weekly_fit` refits the coefficients once
per week on all strictly-prior weeks. Only the coefficients are refit:
the queries and the shift are the caller's, and `nowcast` picks them once
from all weeks. Every fit takes its rows from `timeseries.paired`.
Coefficient inference (intervals, p-values) is computed only on request,
by `coefficient_stats`: one critical t, and every term's p from one
call of the Student-t kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import InsufficientOverlap, SingularDesign, Underdetermined
from .timeseries import ArrayFields, QueryPanel, WeeklySeries, paired

PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientStats:
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    p_value: float


@dataclass(frozen=True, eq=False)
class ModelFit(ArrayFields):
    labels: tuple[str, ...]
    betas: np.ndarray  # intercept first
    std_errors: np.ndarray  # same order as betas
    r_squared: float
    residual_dof: int
    shift: int


def _solve(X: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of yv on an intercept and X's columns, via Householder QR.

    Returns (beta, R), intercept first, with [1 X] = QR. Raises
    Underdetermined below nq + 2 rows and SingularDesign on rank loss.
    """
    m, nq = X.shape
    if m < nq + 2:
        raise Underdetermined(f"{m} fitted weeks for {nq} queries (need >= {nq + 2})")
    q, r = np.linalg.qr(np.hstack([np.ones((m, 1)), X]))
    diag = np.abs(np.diag(r))
    if np.min(diag) <= PIVOT_TOL * max(np.max(diag), 1.0):
        raise SingularDesign("design matrix columns are collinear")
    return np.linalg.solve(r, q.T @ yv), r


def fit_ols(panel: QueryPanel, y: WeeklySeries, k: int) -> ModelFit:
    """Fit the nowcast model on the full overlapping period at shift k."""
    X, yv, _ = paired(panel.start, panel.matrix, y, k)
    beta, r = _solve(X, yv)
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


def coefficient_stats(fit: ModelFit, alpha: float) -> list[tuple[str, CoefficientStats]]:
    """Each term's estimate, standard error, 1 - alpha interval and two-sided p.

    Intercept first, as "(intercept)". The p-values do not depend on alpha.
    """
    tcrit = stats.t_critical(alpha, fit.residual_dof)
    live = fit.std_errors != 0.0
    p = np.zeros(len(fit.betas))
    p[live] = stats.t_two_sided_p(fit.betas[live] / fit.std_errors[live], fit.residual_dof)
    return [(term, CoefficientStats(est, se, est - tcrit * se, est + tcrit * se, pj) if se != 0.0
             else CoefficientStats(est, 0.0, est, est, 0.0))
            for term, est, se, pj in zip(("(intercept)",) + fit.labels, fit.betas.tolist(),
                                         fit.std_errors.tolist(), p.tolist())]


def predict(fit: ModelFit, panel: QueryPanel) -> WeeklySeries:
    """Evaluate the fitted model on every week of the panel.

    Estimates are stamped at case weeks (search week + shift); negative
    estimates are kept.
    """
    X = panel.subset(list(fit.labels)).matrix
    return WeeklySeries(panel.start.add(fit.shift), fit.betas[0] + X @ fit.betas[1:],
                        "estimates")


def rolling_weekly_fit(
    panel: QueryPanel,
    y: WeeklySeries,
    k: int,
    warmup: int | None = None,
) -> WeeklySeries | None:
    """One-step-ahead estimates with weekly coefficient updates.

    The estimate for week t comes from coefficients fit on all weeks
    strictly before t (expanding window); the panel's queries and the
    shift k are used as given, whatever weeks chose them. The series starts
    at the first estimated week; None when no week gets an estimate. An
    explicit warmup's first window must be fittable; the default starts at
    the first fittable window from week nq + 4 on.
    """
    X, yv, yi = paired(panel.start, panel.matrix, y, k)
    m, nq = X.shape
    default_warmup = warmup is None
    if default_warmup:
        warmup = nq + 4
    if warmup < nq + 2:
        raise Underdetermined(f"warmup {warmup} < {nq + 2} minimum for {nq} queries")
    values = []
    for t in range(warmup, m):
        try:
            beta, _ = _solve(X[:t], yv[:t])
        except SingularDesign:
            # the default warmup runs on past singular windows (e.g.
            # still-flat query columns) to the first fittable one; adding
            # rows never lowers the column rank, so later windows fit too
            if values or not default_warmup:
                raise
            continue
        values.append(float(beta[0] + X[t] @ beta[1:]))
    # estimates are contiguous and end at the last fitted week
    return WeeklySeries(y.start.add(yi + m - len(values)), values, "estimates") if values else None


def in_sample_objective(panel: QueryPanel, y: WeeklySeries, k: int) -> float | None:
    """Pearson r between full-period model estimates and cases.

    With an intercept that r is the square root of R^2, taken straight
    from the solve. The selection objective: no significance gating,
    None when the fit is undefined or y or the estimates are constant.
    """
    try:
        X, yv, _ = paired(panel.start, panel.matrix, y, k)
        beta, _ = _solve(X, yv)
    except (Underdetermined, SingularDesign, InsufficientOverlap):
        return None
    dy = yv - yv.mean()
    df = X @ beta[1:] + (beta[0] - yv.mean())
    tss, ess = float(dy @ dy), float(df @ df)
    if tss == 0.0 or ess == 0.0:
        return None
    return min(math.sqrt(ess / tss), 1.0)
