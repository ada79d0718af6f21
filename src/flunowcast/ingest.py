"""Parsers and writers for the weekly-data interchange formats.

Two fixed CSV layouts, both UTF-8 with LF endings and no quoting:

  search panel:  week,<label1>,<label2>,...   rows YYYY-Www,<int 0-100>,...
  case counts:   week,cases                   rows YYYY-Www,<int >= 0>

Search-volume files may omit zero weeks (zero-filled on parse); case
files must be complete, a gap there is an error.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    GapInCases,
    MalformedHeader,
    MalformedRow,
    NegativeCount,
    NonContiguousAfterFill,
    ValueOutOfRange,
)
from .timeseries import QueryPanel, WeekStamp, WeeklySeries, week_labels


def _decode_lines(data: bytes) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not valid UTF-8: {exc}") from None
    if "\r" in text:
        raise MalformedRow("CRLF line endings are not accepted (LF only)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_week(text: str, lineno: int) -> WeekStamp:
    try:
        return WeekStamp.parse(text)
    except ValueError as exc:
        raise MalformedRow(f"line {lineno}: {exc}") from None


def _parse_int(text: str, lineno: int) -> int:
    digits = text[1:] if text.startswith("-") else text
    # str.isdigit alone admits non-ASCII digits such as '²' and '١'
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedRow(f"line {lineno}: not an integer: {text!r}")
    return int(text)


def parse_trends_csv(data: bytes) -> QueryPanel:
    """Parse a search-volume panel, zero-filling omitted weeks."""
    lines = _decode_lines(data)
    if not lines:
        raise MalformedHeader("empty input")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "week":
        raise MalformedHeader(f"expected 'week,<label>,...', got {lines[0]!r}")
    labels = header[1:]
    if len(labels) != len(set(labels)) or any(not l for l in labels):
        raise MalformedHeader("query labels must be non-empty and distinct")

    rows: list[tuple[WeekStamp, list[int]]] = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise MalformedRow(f"line {i}: expected {len(header)} cells, got {len(cells)}")
        week = _parse_week(cells[0], i)
        vals = [_parse_int(c, i) for c in cells[1:]]
        for v in vals:
            if not 0 <= v <= 100:
                raise ValueOutOfRange(f"line {i}: search volume {v} outside 0-100")
        rows.append((week, vals))
    if not rows:
        raise MalformedRow("panel has no data rows")

    start = rows[0][0]
    offsets = [start.weeks_until(week) for week, _ in rows]
    for (week, _), prev, at in zip(rows[1:], offsets, offsets[1:]):
        if at <= prev:
            raise NonContiguousAfterFill(f"week {week} out of order or duplicated")
    # weeks the file omits stay zero
    matrix = np.zeros((offsets[-1] + 1, len(labels)))
    matrix[offsets] = [vals for _, vals in rows]
    return QueryPanel(start, tuple(labels), matrix)


def parse_cases_csv(data: bytes) -> WeeklySeries:
    """Parse weekly case counts; the series must have no gaps."""
    lines = _decode_lines(data)
    if not lines:
        raise MalformedHeader("empty input")
    if lines[0] != "week,cases":
        raise MalformedHeader(f"expected 'week,cases', got {lines[0]!r}")
    weeks: list[WeekStamp] = []
    counts: list[int] = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise MalformedRow(f"line {i}: expected 2 cells, got {len(cells)}")
        week = _parse_week(cells[0], i)
        count = _parse_int(cells[1], i)
        if count < 0:
            raise NegativeCount(f"line {i}: negative case count {count}")
        if weeks:
            gap = weeks[-1].weeks_until(week) - 1
            if gap > 0:
                raise GapInCases(f"missing week(s) before {week}")
            if gap < 0:
                raise NonContiguousAfterFill(f"week {week} out of order or duplicated")
        weeks.append(week)
        counts.append(count)
    if not weeks:
        raise MalformedRow("case file has no data rows")
    return WeeklySeries(weeks[0], counts, "cases")


def write_trends_csv(panel: QueryPanel) -> bytes:
    lines = ["week," + ",".join(panel.labels)]
    rows = panel.matrix.astype(int).tolist()
    for week, row in zip(week_labels(panel.start, panel.n_weeks), rows):
        lines.append(f"{week}," + ",".join(map(str, row)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_cases_csv(cases: WeeklySeries) -> bytes:
    lines = ["week,cases"]
    for week, v in zip(week_labels(cases.start, len(cases)), cases.values.tolist()):
        lines.append(f"{week},{int(v)}")
    return ("\n".join(lines) + "\n").encode("utf-8")
