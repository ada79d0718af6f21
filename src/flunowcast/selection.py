"""Greedy forward selection of query subsets.

Selection starts from the query with the highest individual correlation
and keeps adding the candidate that most improves the model objective,
per candidate shift; the shift with the best final objective wins. Each
shift pairs the panel's rows with the cases once; the first query is
scored alone (`regress.in_sample_objective`), and each later greedy
step scores all of its remaining candidates in one stacked
factorization (`regress.candidate_objectives`). R^2 never falls as columns
are added, so a shift's whole pool bounds every subset greedy can reach
(Furnival & Wilson, 1974). Shifts run highest bound first, those with none
first of all; once a bound is below the best so far minus IMPROVEMENT_EPS,
that shift and the rest cannot win and are skipped, so the result is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import stats
from .errors import NoUsableQuery
from .regress import candidate_objectives, in_sample_objective
from .timeseries import ALPHA, Weekly

IMPROVEMENT_EPS = 1e-6


@dataclass(frozen=True)
class SelectionResult:
    chosen_labels: tuple[str, ...]
    best_shift: int
    objective: float
    trace: tuple[tuple[int, str, float], ...]  # (step, label added, objective after)


def _greedy_one_shift(X, yv, k: int, labels: tuple[str, ...],
                      pool: list[int]) -> SelectionResult | None:
    """Greedy selection from X's columns `pool`, best first, where X's rows
    are paired with the case values yv at shift k."""
    if not pool:
        return None
    chosen = pool[:1]
    objective = in_sample_objective(X[:, chosen], yv)
    if objective is None:
        return None
    trace = [(1, labels[pool[0]], objective)]
    remaining = pool[1:]
    while remaining:
        best, best_obj = None, objective
        # pool order encodes individual rank, which is the tie-break
        for j, obj in zip(remaining, candidate_objectives(X, yv, chosen, remaining)):
            if obj is not None and obj > best_obj + IMPROVEMENT_EPS:
                best, best_obj = j, obj
        if best is None:
            break
        chosen.append(best)
        remaining.remove(best)
        objective = best_obj
        trace.append((len(chosen), labels[best], objective))
    return SelectionResult(tuple(labels[j] for j in chosen), k, objective, tuple(trace))


def greedy_select(panel: Weekly, y: Weekly, shifts: list[int],
                  alpha: float = ALPHA) -> SelectionResult:
    """Run greedy selection at each shift its pool's bound leaves in play (an
    empty, too wide or singular pool has none) and keep the best outcome.
    Ties between shifts keep the earlier entry of `shifts`."""
    windows = [stats.paired_rows(panel, y, k) for k in shifts]
    runs, outcomes = [], {}  # runs: (bound or +inf, k, X, yv, pool)
    for k, (X, yv), cols in zip(shifts, windows, stats.gated_columns(windows, alpha)):
        # candidates: a positive, significant correlation, best first, ties on label code points
        lanes = enumerate(zip(panel.labels, cols.r.tolist(), cols.reason.tolist()))
        pool = [j for _, _, j in sorted((-r, label, j) for j, (label, r, code) in lanes
                                        if code == 0 and r > 0.0)]
        bound = in_sample_objective(X[:, pool], yv) if pool else None
        runs.append((math.inf if bound is None else bound, k, X, yv, pool))
    for bound, k, X, yv, pool in sorted(runs, key=lambda run: -run[0]):  # equal bounds keep order
        top = max((o.objective for o in outcomes.values() if o), default=-math.inf)
        if bound >= top - IMPROVEMENT_EPS:
            outcomes[k] = _greedy_one_shift(X, yv, k, panel.labels, pool)
    # a skipped shift's objective is at most its bound, below top: it cannot have won
    best = max(filter(None, map(outcomes.get, shifts)), key=lambda o: o.objective, default=None)
    if best is None:
        raise NoUsableQuery("no query has a usable correlation at any shift")
    return best
