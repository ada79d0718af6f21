"""Parsers and writers for the weekly-data interchange formats.

Two fixed CSV layouts, both UTF-8 with LF endings and no quoting:

  search panel:  week,<label1>,<label2>,...   rows YYYY-Www,<int 0-100>,...
  case counts:   week,cases                   rows YYYY-Www,<int 0-2**53>

Search-volume files may omit zero weeks (zero-filled on parse); case
files must be complete, a gap there is an error.
"""

from __future__ import annotations

import re

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
    if not lines:
        raise MalformedHeader("empty input")
    return lines


def _parse_int(text: str, lineno: int) -> int:
    digits = text[1:] if text.startswith("-") else text
    # str.isdigit alone admits non-ASCII digits such as '²' and '١'
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedRow(f"line {lineno}: not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise MalformedRow(f"line {lineno}: integer of {len(digits)} digits is too long") from None


def _rows(lines: list[str], width: int):
    """(line number, week, integer cells) of each data row after the header."""
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedRow(f"line {i}: expected {width} cells, got {len(cells)}")
        try:
            week = WeekStamp.parse(cells[0])
        except ValueError as exc:
            raise MalformedRow(f"line {i}: {exc}") from None
        yield i, week, [_parse_int(c, i) for c in cells[1:]]


def _table(lines: list[str], width: int) -> tuple[list[WeekStamp], np.ndarray]:
    """Every data row's week and its cells as one (rows x width - 1) array;
    no rows if a row misses the row grammar (cells of at most 15 digits, read
    as int64 and so exact as floats) or its ISO week, for the row reader."""
    body = lines[1:]
    row = re.compile(rf"[0-9]{{4}}-W[0-9]{{2}}(?:,-?[0-9]{{1,15}}){{{width - 1}}}")
    try:  # a row that misses leaves `weeks` short
        weeks = [WeekStamp.parse(line[:8]) for line in body if row.fullmatch(line)]
    except ValueError:  # a week number past the year's last
        weeks = []
    if not body or len(weeks) < len(body):
        return [], np.empty((0, width - 1))
    cells = np.fromstring(",".join(line[9:] for line in body), sep=",", dtype=np.int64)
    return weeks, cells.astype(float).reshape(len(body), width - 1)  # -0 reads as 0


def parse_trends_csv(data: bytes) -> QueryPanel:
    """Parse a search-volume panel, zero-filling omitted weeks."""
    lines = _decode_lines(data)
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "week":
        raise MalformedHeader(f"expected 'week,<label>,...', got {lines[0]!r}")
    labels = header[1:]
    if len(labels) != len(set(labels)) or any(not l for l in labels):
        raise MalformedHeader("query labels must be non-empty and distinct")
    weeks, rows = _table(lines, len(header))
    if not (len(rows) and ((rows >= 0) & (rows <= 100)).all() and (np.diff(weeks) > 0).all()):
        weeks, rows = [], []
        for i, week, vals in _rows(lines, len(header)):
            for v in vals:
                if not 0 <= v <= 100:
                    raise ValueOutOfRange(f"line {i}: search volume {v} outside 0-100")
            if weeks and week <= weeks[-1]:
                raise NonContiguousAfterFill(f"week {week} out of order or duplicated")
            weeks.append(week)
            rows.append(vals)
        if not rows:
            raise MalformedRow("panel has no data rows")
    # weeks the file omits stay zero
    matrix = np.zeros((weeks[-1] - weeks[0] + 1, len(labels)))
    matrix[[w - weeks[0] for w in weeks]] = rows
    return QueryPanel(weeks[0], tuple(labels), matrix)


def parse_cases_csv(data: bytes) -> WeeklySeries:
    """Parse weekly case counts; the series must have no gaps."""
    lines = _decode_lines(data)
    if lines[0] != "week,cases":
        raise MalformedHeader(f"expected 'week,cases', got {lines[0]!r}")
    weeks, rows = _table(lines, 2)
    counts = rows[:, 0]
    if not (len(counts) and (counts >= 0).all() and (np.diff(weeks) == 1).all()):
        weeks, counts = [], []
        for i, week, (count,) in _rows(lines, 2):
            if count < 0:
                raise NegativeCount(f"line {i}: negative case count {count}")
            if count > 2 ** 53:  # past it, a float no longer holds every count
                raise MalformedRow(f"line {i}: case count above 2**53")
            if weeks and week - weeks[-1] > 1:
                raise GapInCases(f"missing week(s) before {week}")
            if weeks and week <= weeks[-1]:
                raise NonContiguousAfterFill(f"week {week} out of order or duplicated")
            weeks.append(week)
            counts.append(count)
        if not weeks:
            raise MalformedRow("case file has no data rows")
    return WeeklySeries(weeks[0], counts, "cases")


def _write_rows(header: str, start: WeekStamp, rows: list[list[int]]) -> bytes:
    lines = [header] + [f"{week}," + ",".join(map(str, row))
                        for week, row in zip(week_labels(start, len(rows)), rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_trends_csv(panel: QueryPanel) -> bytes:
    return _write_rows("week," + ",".join(panel.labels), panel.start,
                       panel.matrix.astype(int).tolist())


def write_cases_csv(cases: WeeklySeries) -> bytes:
    return _write_rows("week,cases", cases.start, [[int(v)] for v in cases.values.tolist()])
