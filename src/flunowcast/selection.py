"""Greedy forward selection of query subsets.

Selection starts from the query with the highest individual correlation
and keeps adding the candidate that most improves the model objective,
per candidate shift; the shift with the best final objective wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stats
from .errors import NoUsableQuery
from .regress import in_sample_objective
from .stats import ALPHA
from .timeseries import QueryPanel, WeeklySeries

IMPROVEMENT_EPS = 1e-6


@dataclass(frozen=True)
class SelectionResult:
    chosen_labels: tuple[str, ...]
    best_shift: int
    objective: float
    trace: tuple[tuple[int, str, float], ...]  # (step, label added, objective after)


def _greedy_one_shift(
    panel: QueryPanel,
    y: WeeklySeries,
    k: int,
    pool: list[str],
) -> SelectionResult | None:
    if not pool:
        return None
    chosen = [pool[0]]
    objective = in_sample_objective(panel.subset(chosen), y, k)
    if objective is None:
        return None
    trace = [(1, pool[0], objective)]
    remaining = pool[1:]
    while remaining:
        best_label, best_obj = None, objective
        # pool order encodes individual rank, which is the tie-break
        for label in remaining:
            obj = in_sample_objective(panel.subset(chosen + [label]), y, k)
            if obj is not None and obj > best_obj + IMPROVEMENT_EPS:
                best_label, best_obj = label, obj
        if best_label is None:
            break
        chosen.append(best_label)
        remaining.remove(best_label)
        objective = best_obj
        trace.append((len(chosen), best_label, objective))
    return SelectionResult(tuple(chosen), k, objective, tuple(trace))


def greedy_select(
    panel: QueryPanel,
    y: WeeklySeries,
    shifts: list[int],
    alpha: float = ALPHA,
) -> SelectionResult:
    """Run greedy selection at every shift and keep the best outcome.

    Ties between shifts keep the earlier entry of `shifts`.
    """
    windows = [stats.paired_rows(panel.start, panel.matrix, y, k) for k in shifts]
    best = None
    for k, cols in zip(shifts, stats.gated_columns(windows, alpha)):
        # candidates: a positive, significant correlation, best first, ties on label code points
        lanes = zip(panel.labels, cols.r.tolist(), cols.reason.tolist())
        pool = sorted((-r, label) for label, r, code in lanes if code == 0 and r > 0.0)
        outcome = _greedy_one_shift(panel, y, k, [label for _, label in pool])
        if outcome is not None and (best is None or outcome.objective > best.objective):
            best = outcome
    if best is None:
        raise NoUsableQuery("no query has a usable correlation at any shift")
    return best
