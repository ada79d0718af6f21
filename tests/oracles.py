"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: correlation from
the definitional sums, p-values from permutation resampling and
quadrature, OLS from Gaussian elimination on the normal equations,
subset selection by exhaustive enumeration, ISO weeks from stepping a
date one week at a time, and figure rows from one stable sort. The
one exception is `correlation_p_value`: one scalar library p-value per
cell, the reference that the batched p-value kernel must equal exactly.
"""

import datetime
import itertools
import math

import numpy as np

from flunowcast.stats import student_t_two_sided_p


def definitional_pearson(xs, ys):
    """Pearson r straight from the definition, no library calls."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def permutation_p_value(xs, ys, n_perm=10_000, seed=0):
    """Two-sided permutation p for the null of no association."""
    rng = np.random.default_rng(seed)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    r_obs = abs(definitional_pearson(x, y))
    xc = x - x.mean()
    xs_norm = xc / np.sqrt((xc ** 2).sum())
    hits = 0
    perms = np.empty((n_perm, len(y)))
    for i in range(n_perm):
        perms[i] = rng.permutation(y)
    pc = perms - perms.mean(axis=1, keepdims=True)
    denom = np.sqrt((pc ** 2).sum(axis=1))
    r_perm = np.abs(pc @ xs_norm) / denom
    hits = int(np.sum(r_perm >= r_obs - 1e-15))
    return (hits + 1) / (n_perm + 1)


def correlation_p_value(r, n):
    """Two-sided p for the null of zero correlation, t with n-2 dof, one
    scalar student_t_two_sided_p call per cell."""
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return student_t_two_sided_p(t, n - 2)


def t_density_p_value(t, dof, n_points=400_001):
    """P(|T| >= |t|) by Simpson quadrature of the t density tail.

    Integrates the central region on a fine grid and subtracts from 1;
    accurate well past 1e-8 for the dof used in tests.
    """
    t = abs(t)
    if t == 0.0:
        return 1.0
    log_c = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)

    xs = np.linspace(-t, t, n_points)
    dens = np.exp(log_c - ((dof + 1) / 2) * np.log1p(xs ** 2 / dof))
    h = xs[1] - xs[0]
    central = h / 3 * (dens[0] + dens[-1] + 4 * dens[1:-1:2].sum() + 2 * dens[2:-2:2].sum())
    return max(1.0 - central, 0.0)


def normal_equations_ols(X, y):
    """OLS coefficients by Gaussian elimination with partial pivoting.

    X excludes the intercept column; it is prepended here.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    M = A.T @ A
    b = A.T @ y
    n = M.shape[0]
    aug = np.hstack([M, b.reshape(-1, 1)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-12:
            raise ZeroDivisionError("singular normal equations")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        for row in range(col + 1, n):
            factor = aug[row, col] / aug[col, col]
            aug[row, col:] -= factor * aug[col, col:]
    beta = np.zeros(n)
    for col in range(n - 1, -1, -1):
        beta[col] = (aug[col, -1] - aug[col, col + 1:n] @ beta[col + 1:]) / aug[col, col]
    return beta


def model_r(X, y):
    """Pearson r between fitted values of an intercept OLS model and y."""
    beta = normal_equations_ols(X, y)
    fitted = beta[0] + np.asarray(X, dtype=float) @ beta[1:]
    return definitional_pearson(fitted, y)


def exhaustive_best_subset(columns, y):
    """Best model_r over all non-empty subsets of the candidate columns.

    `columns` maps label -> 1-D array. Returns (best labels, best r).
    """
    labels = sorted(columns)
    best_set, best_r = None, -math.inf
    for size in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, size):
            X = np.column_stack([columns[l] for l in combo])
            try:
                r = model_r(X, y)
            except (ZeroDivisionError, FloatingPointError, ValueError):
                continue
            if math.isnan(r):
                continue
            if r > best_r:
                best_set, best_r = combo, r
    return best_set, best_r


def isocalendar_walk(iso_year, iso_week, n):
    """(ISO year, ISO week) of the n weeks from the given one, stepping a
    date by 7 days; OverflowError where the walk leaves the calendar."""
    day = datetime.date.fromisocalendar(iso_year, iso_week, 1)
    weeks = []
    for i in range(n):
        if i:
            day += datetime.timedelta(weeks=1)
        weeks.append(day.isocalendar()[:2])
    return weeks


def sorted_figure_data(series):
    """Figure CSV by definition: every (week, label, value) row of every
    series, stably sorted by (week stamp, label)."""
    rows = []
    for s in series:
        weeks = isocalendar_walk(*map(int, str(s.start).split("-W")), len(s.values))
        rows += [("%04d-W%02d" % w, s.label, v) for w, v in zip(weeks, s.values.tolist())]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["week,label,value"] + [f"{w},{label},{v:.2f}" for w, label, v in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")
