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
from .timeseries import QueryPanel, WeekStamp, WeeklySeries, week_labels, week_numbers


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


def _table(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Every data row's week number and its cells as one (rows x width - 1)
    array; no rows if a row misses the row grammar (cells of at most 15
    digits, read as int64 and so exact as floats) or its ISO week, for the
    row reader."""
    body = lines[1:]
    row = re.compile(rf"[0-9]{{4}}-W[0-9]{{2}}(?:,-?[0-9]{{1,15}}){{{width - 1}}}")
    if body and all(map(row.fullmatch, body)):
        weeks, valid = week_numbers("".join(line[:8] for line in body).encode("ascii"))
        if valid.all():  # else a week number past the year's last
            cells = np.fromstring(",".join(line[9:] for line in body), sep=",", dtype=np.int64)
            return weeks, cells.astype(float).reshape(len(body), width - 1)  # -0 reads as 0
    return np.empty(0, np.int64), np.empty((0, width - 1))


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
    start = WeekStamp.parse(lines[1][:8])  # the first row's week, which both readers accept
    # weeks the file omits stay zero
    matrix = np.zeros((weeks[-1] - start + 1, len(labels)))
    matrix[np.subtract(weeks, start)] = rows
    return QueryPanel(start, tuple(labels), matrix)


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
    return WeeklySeries(WeekStamp.parse(lines[1][:8]), counts, "cases")  # the first row's week


def _int_rows(start: WeekStamp, values: np.ndarray, top: int, out_of_range) -> list:
    """`values`, a (weeks x columns) array from `start`, as the int rows the
    writer prints. The first week holding a value the parser would refuse
    raises as the parser does: MalformedRow for a non-integer, else
    out_of_range(week, value) for one outside 0..top."""
    with np.errstate(invalid="ignore"):  # a value past int64 casts to a wrong int, refused below
        ints = values.astype(np.int64)
    # min and max rather than comparisons with a scalar, which raise synth's peak RSS ~0.15 MB
    if not (ints.min() >= 0 and ints.max() <= top and (ints == values).all()):
        t = int(((ints != values) | (ints < 0) | (ints > top)).any(axis=1).argmax())
        week, cells = start.add(t), values[t].tolist()
        fraction = next((v for v in cells if not v.is_integer()), None)
        if fraction is not None:
            raise MalformedRow(f"week {week}: not an integer: {fraction!r}")
        raise out_of_range(week, next(v for v in cells if not 0 <= v <= top))
    return ints.tolist()


def _write_rows(header: str, start: WeekStamp, rows: list) -> bytes:
    lines = [header] + [f"{week}," + ",".join(map(str, row))
                        for week, row in zip(week_labels(start, len(rows)), rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_trends_csv(panel: QueryPanel) -> bytes:
    if any(not l or "," in l or "\n" in l or "\r" in l for l in panel.labels):
        raise MalformedHeader("query labels must be non-empty, without commas or line breaks")
    rows = _int_rows(panel.start, panel.matrix, 100, lambda week, v: ValueOutOfRange(
        f"week {week}: search volume {v:g} outside 0-100"))
    return _write_rows("week," + ",".join(panel.labels), panel.start, rows)


def write_cases_csv(cases: WeeklySeries) -> bytes:
    def refuse(week, count):
        if count < 0:
            return NegativeCount(f"week {week}: negative case count {count:g}")
        return MalformedRow(f"week {week}: case count above 2**53")

    return _write_rows("week,cases", cases.start,
                       _int_rows(cases.start, cases.values[:, None], 2 ** 53, refuse))
