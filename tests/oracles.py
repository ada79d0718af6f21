"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: correlation from
the definitional sums, column sums one row at a time in order, p-values
from permutation resampling and quadrature, OLS from Gaussian
elimination on the normal equations, subset selection by exhaustive
enumeration, OLS betas from numpy's single-design QR and solve, the
selection objective and greedy selection by one least-squares fit per
candidate, ISO weeks from stepping a date one week at a time, week
stamps from a regular expression and `date.fromisocalendar`, figure rows
from one stable sort, sidecar JSON from the standard library's encoder,
the CSV readers one line at a time (cell count, stamp, integers, then
values), the panel writer from one str() a cell, and 0-100 rescaling one
series at a time. The
Student-t p-value is also here one scalar continued fraction at a
time: the batched kernel must equal it exactly, lane for lane, and
`t_critical` must agree with its bisection.
"""

import datetime
import itertools
import json
import math
import re

import numpy as np

from flunowcast.errors import (
    GapInCases,
    InvalidConfig,
    MalformedHeader,
    MalformedRow,
    NegativeCount,
    NonContiguousAfterFill,
    ValueOutOfRange,
)
from flunowcast.timeseries import WeekStamp, Weekly

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


def sequential_column_sums(a):
    """Each column's sum of a (rows x columns) array, or a vector's sum,
    adding its rows one at a time in order, in Python floats."""
    rows = a.tolist()
    totals = rows[0]
    for row in rows[1:]:
        totals = totals + row if a.ndim == 1 else [t + v for t, v in zip(totals, row)]
    return np.array(totals)


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


def one_fit_betas(X, y):
    """Intercept-first OLS betas of y on [1 X] from numpy's single-design
    calls: one Householder QR, R's solve against q.T @ y. None below nq + 2
    rows or for collinear columns (a diagonal entry of R at most 1e-10 times
    the largest, or 1). X is taken C-order, as a panel holds its columns.
    """
    X = np.ascontiguousarray(X, dtype=float)
    m, nq = X.shape
    if m < nq + 2:
        return None
    q, r = np.linalg.qr(np.hstack([np.ones((m, 1)), X]))
    diag = np.abs(np.diag(r))
    if np.min(diag) <= 1e-10 * max(np.max(diag), 1.0):
        return None
    return np.linalg.solve(r, q.T @ np.asarray(y, dtype=float))


def one_fit_objective(X, y):
    """The selection objective of one candidate model by its own fit.

    Pearson r of an intercept OLS model of y on X's columns, as
    sqrt(ESS/TSS), from the betas of `one_fit_betas`. None where those are,
    or when y or the fitted values are constant. It makes numpy's
    single-design calls on a C-order X, as a panel holds its columns, so a
    stacked fast path must equal it bit for bit (an F-order X sums
    X @ beta in another order).
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = one_fit_betas(X, y)
    if beta is None:
        return None
    dy = y - y.mean()
    df = X @ beta[1:] + (beta[0] - y.mean())
    tss, ess = float(dy @ dy), float(df @ df)
    if tss == 0.0 or ess == 0.0:
        return None
    return min(math.sqrt(ess / tss), 1.0)


def greedy_forward(X, y, pool, eps):
    """Greedy forward selection over X's columns by one `one_fit_objective`
    call per candidate and step.

    Starts from pool[0]; each step scans the rest in pool order, keeps a
    candidate whose objective beats the best kept so far by more than eps,
    and adds the last one kept. Returns the
    trace [(step, column added, objective after)], or None when pool[0]
    alone has no objective.
    """
    chosen = [pool[0]]
    objective = one_fit_objective(X[:, chosen], y)
    if objective is None:
        return None
    trace = [(1, pool[0], objective)]
    remaining = list(pool[1:])
    while remaining:
        best, best_obj = None, objective
        for j in remaining:
            obj = one_fit_objective(X[:, chosen + [j]], y)
            if obj is not None and obj > best_obj + eps:
                best, best_obj = j, obj
        if best is None:
            break
        chosen.append(best)
        remaining.remove(best)
        objective = best_obj
        trace.append((len(chosen), best, objective))
    return trace


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


def iso_week_number(iso_year, iso_week):
    """The number of an ISO week, its Monday's day ordinal // 7, from
    `datetime.date.fromisocalendar`; InvalidConfig worded as `WeekStamp` words it."""
    try:
        return datetime.date.fromisocalendar(iso_year, iso_week, 1).toordinal() // 7
    except ValueError:
        raise InvalidConfig(f"invalid ISO week {iso_year:04d}-W{iso_week:02d}") from None


def stamp_week_number(stamp):
    """The number of a 'YYYY-Www' stamp by one regular expression and
    `iso_week_number`; InvalidConfig worded as `WeekStamp.parse` words it."""
    if not re.fullmatch(r"[0-9]{4}-W[0-9]{2}", stamp):
        raise InvalidConfig(f"not a YYYY-Www week stamp: {stamp!r}")
    return iso_week_number(int(stamp[:4]), int(stamp[6:]))


def sorted_figure_data(frames):
    """Figure CSV by definition: every (week, label, value) row of every
    column of every frame, stably sorted by (week stamp, label)."""
    rows = []
    for f in frames:
        weeks = isocalendar_walk(*map(int, str(f.start).split("-W")), len(f.matrix))
        for j, label in enumerate(f.labels):
            rows += [("%04d-W%02d" % w, label, v) for w, v in zip(weeks, f.matrix[:, j].tolist())]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["week,label,value"] + [f"{w},{label},{v:.2f}" for w, label, v in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def json_sidecar(obj):
    """Sidecar JSON by definition: the standard library's indent-2 encoder."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _row_reader_lines(data):
    """The lines of a CSV input, after its encoding and line-ending checks."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not valid UTF-8: {exc}") from None
    if "\r" in text:
        raise MalformedRow("CRLF line endings are not accepted (LF only)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedHeader("empty input")
    return lines


def _row_reader_int(text, lineno):
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedRow(f"line {lineno}: not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise MalformedRow(f"line {lineno}: integer of {len(digits)} digits is too long") from None


def _row_reader_rows(lines, width):
    """(line number, stamp, week number, integer cells) of each data row,
    each row checked for its cell count, then its stamp by `stamp_week_number`,
    then each cell."""
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedRow(f"line {i}: expected {width} cells, got {len(cells)}")
        try:
            week = stamp_week_number(cells[0])
        except InvalidConfig as exc:
            raise MalformedRow(f"line {i}: {exc}") from None
        yield i, cells[0], week, [_row_reader_int(c, i) for c in cells[1:]]


def row_by_row_trends_csv(data):
    """A search-volume panel read one line at a time, as the CSV reader
    once did: each row's grammar, its volumes in 0-100, then its week
    after the last; omitted weeks zero-filled."""
    lines = _row_reader_lines(data)
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "week":
        raise MalformedHeader(f"expected 'week,<label>,...', got {lines[0]!r}")
    labels = header[1:]
    if len(labels) != len(set(labels)) or any(not l for l in labels):
        raise MalformedHeader("query labels must be non-empty and distinct")
    weeks, rows = [], []
    for i, stamp, week, vals in _row_reader_rows(lines, len(header)):
        for v in vals:
            if not 0 <= v <= 100:
                raise ValueOutOfRange(f"line {i}: search volume {v} outside 0-100")
        if weeks and week <= weeks[-1]:
            raise NonContiguousAfterFill(f"week {stamp} out of order or duplicated")
        weeks.append(week)
        rows.append(vals)
    if not rows:
        raise MalformedRow("panel has no data rows")
    matrix = np.zeros((weeks[-1] - weeks[0] + 1, len(labels)))
    for week, vals in zip(weeks, rows):
        matrix[week - weeks[0]] = vals
    return Weekly(WeekStamp.parse(lines[1][:8]), tuple(labels), matrix)  # the first row's week


def row_by_row_cases_csv(data):
    """Weekly case counts read one line at a time, as the CSV reader once
    did: each row's grammar, its count in 0..2**53, then its week one
    after the last."""
    lines = _row_reader_lines(data)
    if lines[0] != "week,cases":
        raise MalformedHeader(f"expected 'week,cases', got {lines[0]!r}")
    weeks, counts = [], []
    for i, stamp, week, (count,) in _row_reader_rows(lines, 2):
        if count < 0:
            raise NegativeCount(f"line {i}: negative case count {count}")
        if count > 2 ** 53:
            raise MalformedRow(f"line {i}: case count above 2**53")
        if weeks and week - weeks[-1] > 1:
            raise GapInCases(f"missing week(s) before {stamp}")
        if weeks and week <= weeks[-1]:
            raise NonContiguousAfterFill(f"week {stamp} out of order or duplicated")
        weeks.append(week)
        counts.append(count)
    if not weeks:
        raise MalformedRow("case file has no data rows")
    return Weekly(WeekStamp.parse(lines[1][:8]), ("cases",), [[c] for c in counts])  # row 1's week


def str_per_cell_trends_csv(panel):
    """A search-volume panel's CSV by definition: its header, then one row a
    week, its stamp from a one-week calendar walk and each volume by str()
    of its int."""
    weeks = isocalendar_walk(*map(int, str(panel.start).split("-W")), len(panel.matrix))
    lines = ["week," + ",".join(panel.labels)]
    lines += ["%04d-W%02d," % w + ",".join(str(int(v)) for v in row)
              for w, row in zip(weeks, panel.matrix.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


def series_scale_0_100(values):
    """One series rescaled so its max maps to 100, rounding half up: a copy,
    or `values` itself when they are all zero; ValueError on a negative."""
    values = np.asarray(values, dtype=float)
    if (values < 0).any():
        raise ValueError("negative value")
    top = values.max()
    if top == 0:
        return values
    return np.floor(100.0 * values / top + 0.5)
