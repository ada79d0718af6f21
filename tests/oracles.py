"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: correlation from
the definitional sums, p-values from permutation resampling and
quadrature, OLS from Gaussian elimination on the normal equations,
subset selection by exhaustive enumeration, ISO weeks from stepping a
date one week at a time, and figure rows from one stable sort. The
Student-t p-value is also here one scalar continued fraction at a
time: the batched kernel must equal it exactly, lane for lane, and
`t_critical` must agree with its bisection.
"""

import datetime
import itertools
import math

import numpy as np

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300


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


def _beta_continued_fraction(a, b, x):
    """Lentz's continued fraction for the regularized incomplete beta
    (Press et al., Numerical Recipes, section 6.4)."""
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


def regularized_incomplete_beta(a, b, x):
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


def student_t_two_sided_p(t, dof):
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom."""
    if t == 0.0:
        return 1.0
    # use whichever tail argument is computed without cancellation
    x = dof / (dof + t * t)
    cx = t * t / (dof + t * t)
    if cx < 0.5:
        return 1.0 - regularized_incomplete_beta(0.5, dof / 2.0, cx)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def bisection_t_critical(alpha, dof):
    """The t with student_t_two_sided_p(t, dof) = alpha, by 200 bisection
    steps from a doubling bracket."""
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
