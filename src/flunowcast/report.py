"""Machine-readable tables and figure data.

Tables render to CSV with every number at exactly two decimal places and
`NA` cells; the significance and NA-reason detail the formatted tables
drop is available as a JSON sidecar. Figure data is a long-format CSV
(week, label, value).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import stats
from .errors import EmptyLabel, EmptyOverlap, InsufficientOverlap
from .regress import QueryPanel, in_sample_objective
from .selection import SelectionResult
from .stats import CorrelationResult, NAReason, SignificanceConfig
from .timeseries import ShiftSpec, WeeklySeries, week_range, window

FOOTNOTES = ("NA: Not applicable", "p<0.05")
DEFAULT_SHIFTS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]  # formatted cells, first cell is the row label
    footnotes: tuple[str, ...]
    sidecar: tuple[dict, ...]  # unformatted detail, one dict per row

    def to_csv(self) -> bytes:
        lines = [",".join(self.columns)]
        lines.extend(",".join(row) for row in self.rows)
        lines.extend(self.footnotes)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_sidecar_json(self) -> bytes:
        return (json.dumps(list(self.sidecar), indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _fmt(res: CorrelationResult) -> str:
    return "NA" if res.na else f"{res.r:.2f}"


def _cell_detail(res: CorrelationResult) -> dict:
    if res.na:
        return {
            "value": None if math.isnan(res.r) else res.r,
            "p": None if math.isnan(res.p_value) else res.p_value,
            "n": res.n or None,
            "na_reason": res.na_reason.value,
        }
    return {"value": res.r, "p": res.p_value, "n": res.n, "na_reason": None}


def shifted_cells(
    x: WeeklySeries,
    y: WeeklySeries,
    s: ShiftSpec,
    cfg: SignificanceConfig,
) -> tuple[CorrelationResult, dict[int, CorrelationResult]]:
    """Overall plus per-year correlation for one query at one shift.

    Years are assigned from the case-series week of each pair.
    """
    try:
        xi, yi, n = window(x.start, len(x), y, s)
    except (InsufficientOverlap, EmptyOverlap):
        na = CorrelationResult.not_applicable(NAReason.TOO_FEW_PAIRS)
        return na, {}
    pairs = list(zip(x.values[xi:xi + n], y.values[yi:yi + n]))
    years = [w.iso_year for w in week_range(y.start.add(yi), n)]
    return stats.gated_by_year(pairs, years, cfg)


def table_overall_annual(
    panel: QueryPanel,
    y: WeeklySeries,
    cfg: SignificanceConfig = SignificanceConfig(),
    s: ShiftSpec = ShiftSpec(0),
) -> Table:
    """Per-query correlations, overall and per year (zero shift by default)."""
    years = sorted({w.iso_year for w in y.weeks()})
    columns = ("query", "overall") + tuple(str(yr) for yr in years)
    rows, sidecar = [], []
    for label, series in panel.items():
        overall, per_year = shifted_cells(series, y, s, cfg)
        na = CorrelationResult.not_applicable(NAReason.TOO_FEW_PAIRS)
        cells = [overall] + [per_year.get(yr, na) for yr in years]
        rows.append((label,) + tuple(_fmt(c) for c in cells))
        sidecar.append({
            "query": label,
            "overall": _cell_detail(overall),
            "years": {str(yr): _cell_detail(per_year.get(yr, na)) for yr in years},
        })
    return Table(columns, tuple(rows), FOOTNOTES, tuple(sidecar))


def shift_row_label(k: int) -> str:
    return f"{-k}-week preceding" if k < 0 else f"{k}-week lagging"


def table_shift_scan(
    panel: QueryPanel,
    y: WeeklySeries,
    shifts: tuple[int, ...] = DEFAULT_SHIFTS,
    cfg: SignificanceConfig = SignificanceConfig(),
) -> Table:
    """Per-year, per-shift, per-query correlation grid."""
    years = sorted({w.iso_year for w in y.weeks()})
    columns = ("year", "dataset") + tuple(panel.labels)
    na = CorrelationResult.not_applicable(NAReason.TOO_FEW_PAIRS)
    # per (query, shift): overall + per-year cells, computed once
    grid = {
        (label, k): shifted_cells(series, y, ShiftSpec(k), cfg)
        for label, series in panel.items()
        for k in shifts
    }
    rows, sidecar = [], []
    for yr in years:
        for k in shifts:
            cells = [grid[(label, k)][1].get(yr, na) for label in panel.labels]
            rows.append((str(yr), shift_row_label(k)) + tuple(_fmt(c) for c in cells))
            sidecar.append({
                "year": yr,
                "shift": k,
                "cells": {label: _cell_detail(c) for label, c in zip(panel.labels, cells)},
            })
    return Table(columns, tuple(rows), FOOTNOTES, tuple(sidecar))


def table_model_by_shift(
    panel: QueryPanel,
    y: WeeklySeries,
    selection: SelectionResult,
    cfg: SignificanceConfig = SignificanceConfig(),
    shifts: tuple[int, ...] = DEFAULT_SHIFTS,
) -> Table:
    """Model objective for the selected query set at each shift."""
    sub = panel.subset(list(selection.chosen_labels))
    columns = ("dataset",) + tuple(shift_row_label(k) for k in shifts)
    cells, detail = [], {}
    for k in shifts:
        obj = in_sample_objective(sub, y, ShiftSpec(k))
        cells.append("NA" if obj is None else f"{obj:.2f}")
        detail[shift_row_label(k)] = obj
    rows = (("model",) + tuple(cells),)
    sidecar = ({"dataset": "model", "objectives": detail,
                "queries": list(selection.chosen_labels)},)
    return Table(columns, rows, ("p<0.05",), sidecar)


def figure_data(series: list[WeeklySeries]) -> bytes:
    """Long-format plot data: week,label,value sorted by (week, label)."""
    if not series:
        raise EmptyLabel("figure needs at least one series")
    rows = []
    for s in series:
        if not s.label:
            raise EmptyLabel("every figure series needs a non-empty label")
        rows.extend((str(w), s.label, v) for w, v in zip(s.weeks(), s.values))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["week,label,value"]
    lines.extend(f"{w},{label},{v:.2f}" for w, label, v in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")
