"""Machine-readable tables and figure data.

Tables render to CSV with every number at exactly two decimal places and
`NA` cells; the significance and NA-reason detail the formatted tables
drop is available as a JSON sidecar. The sidecar is the text that
`json.dumps(..., indent=2, ensure_ascii=False)` would write, printed from
the gate's columns with one %-template per cell and one per row. Figure
data is a long-format CSV (week, label, value).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring

import numpy as np

from . import stats
from .errors import EmptyLabel, InsufficientOverlap
from .regress import in_sample_objective
from .stats import ALPHA
from .timeseries import (DEFAULT_SHIFTS, QueryPanel, WeeklySeries, iso_years, paired,
                         week_labels)


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]  # formatted cells, first cell is the row label
    footnotes: tuple[str, ...]
    sidecar: str  # JSON text of the unformatted detail, one object per row; "" if none

    def to_csv(self) -> bytes:
        lines = [",".join(self.columns)]
        lines.extend(",".join(row) for row in self.rows)
        lines.extend(self.footnotes)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_sidecar_json(self) -> bytes:
        return (self.sidecar + "\n").encode("utf-8")


# a sidecar cell, `key: {value, p, n, na_reason}`, its key indented 4 or 6 spaces
_OUTER_CELL, _INNER_CELL = (
    f'{i}%s: {{\n{i}  "value": %s,\n{i}  "p": %s,\n{i}  "n": %s,\n{i}  "na_reason": %s\n{i}}}'
    for i in (" " * 4, " " * 6))
_ANNUAL_ROW = '  {\n    "query": %s,\n%s,\n    "years": {\n%s\n    }\n  }'
_SCAN_ROW = '  {\n    "year": %d,\n    "shift": %d,\n    "cells": {\n%s\n    }\n  }'
# the JSON text of each NA-reason code, stats.REASONS[code]
_REASON_JSON = tuple("null" if r is None else encode_basestring(r.value) for r in stats.REASONS)


def _cells(cols: stats.GatedColumns, keys, template: str) -> tuple[list[str], list[str]]:
    """Each lane's CSV cell, NA or r to two places, and its sidecar text under
    its key (JSON text): floats as float.__repr__ writes them, NaN as null."""
    n = ["null" if reason in stats.UNTESTED else str(cols.n) for reason in stats.REASONS]
    r, p, codes = cols.r.tolist(), cols.p.tolist(), cols.reason.tolist()
    csv = ["NA" if c else f"{v:.2f}" for v, c in zip(r, codes)]
    text = [template % (key, v if v == v else "null", pv if pv == pv else "null", n[c],
                        _REASON_JSON[c]) for key, v, pv, c in zip(keys, r, p, codes)]
    return csv, text


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


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
    gated = stats.gated_columns(
        [stats.paired_rows(panel.start, panel.matrix, y, k), *windows.values()], alpha)
    overall = _cells(gated[0], repeat('"overall"'), _OUTER_CELL)
    years = [_cells(cols, repeat(f'"{yr}"'), _INNER_CELL) for cols, yr in zip(gated[1:], windows)]
    columns = ("query", "overall") + tuple(str(yr) for yr in windows)
    rows = tuple(zip(panel.labels, overall[0], *(csv for csv, _ in years)))
    sidecar = [_ANNUAL_ROW % (encode_basestring(label), cell, ",\n".join(year_cells))
               for label, cell, *year_cells in zip(panel.labels, overall[1],
                                                   *(text for _, text in years))]
    return Table(columns, rows, _footnotes(alpha), _json_list(sidecar))


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
    keys = [encode_basestring(label) for label in panel.labels]
    rows, sidecar = [], []
    for yr in dict.fromkeys(iso_years(y.start, len(y)).tolist()):
        for k in shifts:
            csv, text = _cells(grid[k, yr], keys, _INNER_CELL)
            rows.append((str(yr), shift_row_label(k), *csv))
            sidecar.append(_SCAN_ROW % (yr, k, ",\n".join(text)))
    return Table(columns, tuple(rows), _footnotes(alpha), _json_list(sidecar))


def table_model_by_shift(
    chosen: QueryPanel,
    y: WeeklySeries,
    shifts: tuple[int, ...] = DEFAULT_SHIFTS,
) -> Table:
    """Model objective of the chosen queries at each shift; no sidecar."""
    columns = ("dataset",) + tuple(shift_row_label(k) for k in shifts)
    objectives = [in_sample_objective(*stats.paired_rows(chosen.start, chosen.matrix, y, k))
                  for k in shifts]
    cells = tuple("NA" if obj is None else f"{obj:.2f}" for obj in objectives)
    return Table(columns, (("model",) + cells,), (f"p<{ALPHA:g}",), "")


def figure_data(series: list[WeeklySeries]) -> bytes:
    """Long-format plot data: week,label,value rows week by week, and
    within a week in label order (equal labels in input order)."""
    if not series:
        raise EmptyLabel("figure needs at least one series")
    if not all(s.label for s in series):
        raise EmptyLabel("every figure series needs a non-empty label")
    first = min(s.start for s in series)
    columns = [(s.start - first, s.label.replace("%", "%%") + ",%s\n", s.values)
               for s in sorted(series, key=lambda s: s.label)]
    cuts = sorted({at for at, _, _ in columns} | {at + len(v) for at, _, v in columns})
    weeks = week_labels(first, cuts[-1])
    out = ["week,label,value\n"]
    # the live series are fixed between two cuts, so a run of weeks has one %-template,
    # `week,label,%s` rows in label order, filled from the run's distinct values, each
    # printed once; distinct by bit pattern, so -0.0 prints as -0.00
    for a, b in zip(cuts, cuts[1:]):
        live = [(row, v[a - at:b - at]) for at, row, v in columns if at <= a < at + len(v)]
        if live:
            rows = ["", *(row for row, _ in live)]
            block = np.column_stack([v for _, v in live])
            bits, index = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            text = np.array(["%.2f" % v for v in bits.view(float).tolist()], dtype=object)
            out.extend((week + ",").join(rows) % tuple(values) for week, values in
                       zip(weeks[a:b], text[index].reshape(block.shape).tolist()))
    return "".join(out).encode("utf-8")
