"""Machine-readable tables and figure data.

Tables render to CSV with every number at exactly two decimal places and
`NA` cells; the significance and NA-reason detail the formatted tables
drop is available as a JSON sidecar, written as
`json.dumps(..., indent=2, ensure_ascii=False)` would write it. Figure
data is a long-format CSV (week, label, value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

from . import stats
from .errors import EmptyLabel, InsufficientOverlap
from .regress import in_sample_objective
from .stats import ALPHA, CorrelationResult
from .timeseries import (DEFAULT_SHIFTS, QueryPanel, WeeklySeries, iso_years, paired,
                         week_labels)


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
        return (_json(self.sidecar, "") + "\n").encode("utf-8")


def _float(v: float) -> str:
    if v - v == 0.0:  # finite
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


# JSON text of a leaf by its exact type, so that a bool is not written as the int it subclasses
_LEAF = {type(None): lambda v: "null", bool: lambda v: "true" if v else "false",
         int: int.__repr__, float: _float, str: encode_basestring}


def _json(o, indent: str) -> str:
    """A str-keyed dict, a list or a tuple as `json.dumps(o, indent=2,
    ensure_ascii=False)` writes it, its closing line under `indent`. json's
    C encoder does not indent, so json.dumps would run its Python one."""
    inner = indent + "  "
    if type(o) is dict:
        parts = [encode_basestring(k) + ": "
                 + (leaf(v) if (leaf := _LEAF.get(type(v))) else _json(v, inner))
                 for k, v in o.items()]
        ends = "{}"
    elif type(o) in (list, tuple):
        parts = [leaf(v) if (leaf := _LEAF.get(type(v))) else _json(v, inner) for v in o]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not parts:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + ends[1]


def _fmt(res: CorrelationResult) -> str:
    return "NA" if res.na else f"{res.r:.2f}"


def _cell_detail(res: CorrelationResult) -> dict:
    return {
        "value": None if math.isnan(res.r) else res.r,
        "p": None if math.isnan(res.p_value) else res.p_value,
        "n": res.n or None,
        "na_reason": res.na_reason and res.na_reason.value,
    }


def _footnotes(alpha: float) -> tuple[str, ...]:
    return ("NA: Not applicable", f"p<{alpha:g}")


def _year_windows(panel: QueryPanel, y: WeeklySeries,
                  k: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The (search rows, case values) window of each ISO year of the cases
    at one shift, empty where the shift leaves the year no pairs. Years are
    assigned from the case-series week of each pair, so one year's pairs
    are a contiguous run of rows."""
    years = iso_years(y.start, len(y))
    windows = dict.fromkeys(years.tolist(), (panel.matrix[:0], y.values[:0]))  # weeks are in order
    try:
        X, yv, yi = paired(panel.start, panel.matrix, y, k)
    except InsufficientOverlap:
        return windows
    years = years[yi:yi + len(yv)]
    cuts = [0, *(np.flatnonzero(np.diff(years)) + 1).tolist(), len(yv)]
    windows.update((int(years[a]), (X[a:b], yv[a:b])) for a, b in zip(cuts, cuts[1:]))
    return windows


def table_overall_annual(
    panel: QueryPanel,
    y: WeeklySeries,
    alpha: float = ALPHA,
    k: int = 0,
) -> Table:
    """Per-query correlations, overall and per year (zero shift by default)."""
    windows = _year_windows(panel, y, k)
    overall, *year_cells = stats.gated_columns(
        [stats.paired_rows(panel.start, panel.matrix, y, k), *windows.values()], alpha)
    columns = ("query", "overall") + tuple(str(yr) for yr in windows)
    rows, sidecar = [], []
    for j, label in enumerate(panel.labels):
        by_year = {str(yr): cells[j] for yr, cells in zip(windows, year_cells)}
        rows.append((label, _fmt(overall[j])) + tuple(_fmt(c) for c in by_year.values()))
        sidecar.append({
            "query": label,
            "overall": _cell_detail(overall[j]),
            "years": {yr: _cell_detail(c) for yr, c in by_year.items()},
        })
    return Table(columns, tuple(rows), _footnotes(alpha), tuple(sidecar))


def shift_row_label(k: int) -> str:
    return f"{-k}-week preceding" if k < 0 else f"{k}-week lagging"


def table_shift_scan(
    panel: QueryPanel,
    y: WeeklySeries,
    shifts: tuple[int, ...] = DEFAULT_SHIFTS,
    alpha: float = ALPHA,
) -> Table:
    """Per-year, per-shift, per-query correlation grid."""
    columns = ("year", "dataset") + tuple(panel.labels)
    windows = {(k, yr): w for k in shifts
               for yr, w in _year_windows(panel, y, k).items()}
    grid = dict(zip(windows, stats.gated_columns(list(windows.values()), alpha)))
    rows, sidecar = [], []
    for yr in dict.fromkeys(iso_years(y.start, len(y)).tolist()):
        for k in shifts:
            cells = grid[k, yr]
            rows.append((str(yr), shift_row_label(k)) + tuple(_fmt(c) for c in cells))
            sidecar.append({
                "year": yr,
                "shift": k,
                "cells": {label: _cell_detail(c) for label, c in zip(panel.labels, cells)},
            })
    return Table(columns, tuple(rows), _footnotes(alpha), tuple(sidecar))


def table_model_by_shift(
    chosen: QueryPanel,
    y: WeeklySeries,
    shifts: tuple[int, ...] = DEFAULT_SHIFTS,
) -> Table:
    """Model objective of the chosen queries at each shift; no sidecar."""
    columns = ("dataset",) + tuple(shift_row_label(k) for k in shifts)
    objectives = [in_sample_objective(chosen, y, k) for k in shifts]
    cells = tuple("NA" if obj is None else f"{obj:.2f}" for obj in objectives)
    return Table(columns, (("model",) + cells,), (f"p<{ALPHA:g}",), ())


def figure_data(series: list[WeeklySeries]) -> bytes:
    """Long-format plot data: week,label,value rows week by week, and
    within a week in label order (equal labels in input order)."""
    if not series:
        raise EmptyLabel("figure needs at least one series")
    if not all(s.label for s in series):
        raise EmptyLabel("every figure series needs a non-empty label")
    first = min(s.start for s in series)
    columns = [(s.start - first, s.label.replace("%", "%%") + ",%.2f\n", s.values)
               for s in sorted(series, key=lambda s: s.label)]
    cuts = sorted({at for at, _, _ in columns} | {at + len(v) for at, _, v in columns})
    weeks = week_labels(first, cuts[-1])
    out = ["week,label,value\n"]
    # the live series are fixed between two cuts, so a run of weeks has one %-template,
    # `week,label,%.2f` rows in label order
    for a, b in zip(cuts, cuts[1:]):
        live = [(row, v[a - at:b - at]) for at, row, v in columns if at <= a < at + len(v)]
        if live:
            rows = ["", *(row for row, _ in live)]
            out.extend((week + ",").join(rows) % tuple(values) for week, values in
                       zip(weeks[a:b], np.column_stack([v for _, v in live]).tolist()))
    return "".join(out).encode("utf-8")
