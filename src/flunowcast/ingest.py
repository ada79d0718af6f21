"""Parsers and writers for the weekly-data interchange formats.

Two fixed CSV layouts, both UTF-8 with LF endings and no quoting:

  search panel:  week,<label1>,<label2>,...   rows YYYY-Www,<int 0-100>,...
  case counts:   week,cases                   rows YYYY-Www,<int 0-2**53>

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


def _row_starts(body: np.ndarray, width: int) -> np.ndarray | None:
    """Where each row of `body`, LF-ended data rows as bytes, starts, if each
    is an 8-byte stamp and width - 1 cells of 1-15 ASCII digits after an
    optional "-"; else None. The digit count takes 6 digits a stamp: the
    caller's week_numbers checks the stamps' bytes."""
    newline = body == 10
    rows = np.count_nonzero(newline)
    seps = np.flatnonzero(newline | (body == 44))  # "\n" and ","
    if len(seps) != rows * width:
        return None
    # width separators a row, the last its newline, and 8 stamp bytes before the first
    seps = seps.reshape(rows, width)
    starts = np.concatenate(([0], seps[:-1, -1] + 1))
    if not (newline[seps[:, -1]].all() and (seps[:, 0] - starts == 8).all()):
        return None
    digits = np.diff(seps, axis=1)
    digits -= 1 + (body[seps[:, :-1] + 1] == 45)  # a cell's length less its "-"
    # with 6 digits a stamp, the count leaves no other byte in a cell
    if not (digits.min() >= 1 and digits.max() <= 15
            and np.count_nonzero((body >= 48) & (body <= 57)) == 6 * rows + digits.sum()):
        return None
    return starts


def _table(data: bytes, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Every data row's week number and its cells as one (rows x width - 1)
    array, read from the bytes after the header line; no rows if a row
    misses the row grammar `YYYY-Www(,-?D{1,15}){width - 1}` (D an ASCII
    digit; at most 15, so an int64 read is exact as a float) or its ISO
    week, for the row reader."""
    empty = np.empty(0, np.int64), np.empty((0, width - 1))
    head = data.find(b"\n") + 1
    if not head or head == len(data):
        return empty
    body = np.frombuffer(data if data.endswith(b"\n") else data + b"\n", np.uint8, offset=head)
    starts = _row_starts(body, width)
    if starts is None:
        return empty
    stamp = starts[:, None] + np.arange(9)  # with its comma
    weeks, valid = week_numbers(body[stamp[:, :8]].tobytes())
    if not valid.all():  # else a week number past the year's last
        return empty
    cells = np.delete(body[:-1], stamp.ravel())
    cells[cells == 10] = 44
    values = np.fromstring(cells.tobytes(), dtype=np.int64, sep=",")
    return weeks, values.astype(float).reshape(len(starts), width - 1)  # -0 reads as 0


def parse_trends_csv(data: bytes) -> QueryPanel:
    """Parse a search-volume panel, zero-filling omitted weeks."""
    lines = _decode_lines(data)
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "week":
        raise MalformedHeader(f"expected 'week,<label>,...', got {lines[0]!r}")
    labels = header[1:]
    if len(labels) != len(set(labels)) or any(not l for l in labels):
        raise MalformedHeader("query labels must be non-empty and distinct")
    weeks, rows = _table(data, len(header))
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
    weeks, rows = _table(data, 2)
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


def _int_rows(start: WeekStamp, values: np.ndarray, top: int, out_of_range) -> np.ndarray:
    """`values`, a (weeks x columns) array from `start`, as the int64 rows
    the writer prints. The first week holding a value the parser would
    refuse raises as the parser does: MalformedRow for a non-integer, else
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
    return ints


# the text of each search volume, printed by lookup rather than one str() a cell
_VOLUMES = np.array([str(v) for v in range(101)], dtype=object)


def _volume_rows(ints: np.ndarray) -> list[str]:
    """Each row of a (weeks x queries) array of volumes 0..100 as the text of
    its cells, 64 rows at a time: an object array of the whole panel would
    raise synth's peak RSS."""
    return [",".join(row) for i in range(0, len(ints), 64)
            for row in _VOLUMES[ints[i:i + 64]].tolist()]


def _write_rows(header: str, start: WeekStamp, rows: list[str]) -> bytes:
    """The header, then each row's week stamp and its cells' text `rows[i]`."""
    weeks = week_labels(start, len(rows))
    return "".join([header + "\n", *map("{},{}\n".format, weeks, rows)]).encode("utf-8")


def write_trends_csv(panel: QueryPanel) -> bytes:
    if any(not l or "," in l or "\n" in l or "\r" in l for l in panel.labels):
        raise MalformedHeader("query labels must be non-empty, without commas or line breaks")
    rows = _volume_rows(_int_rows(panel.start, panel.matrix, 100, lambda week, v: ValueOutOfRange(
        f"week {week}: search volume {v:g} outside 0-100")))  # the ints are freed before printing
    return _write_rows("week," + ",".join(panel.labels), panel.start, rows)


def write_cases_csv(cases: WeeklySeries) -> bytes:
    def refuse(week, count):
        if count < 0:
            return NegativeCount(f"week {week}: negative case count {count:g}")
        return MalformedRow(f"week {week}: case count above 2**53")

    ints = _int_rows(cases.start, cases.values[:, None], 2 ** 53, refuse)
    return _write_rows("week,cases", cases.start, list(map(str, ints[:, 0].tolist())))
