"""Parsers and writers for the weekly-data interchange formats.

Two fixed CSV layouts, both UTF-8 with LF endings and no quoting:

  search panel:  week,<label1>,<label2>,...   rows YYYY-Www,<int 0-100>,...
  case counts:   week,cases                   rows YYYY-Www,<int 0-2**53>

An <int> is ASCII digits after an optional "-", leading zeros allowed (-0
reads as 0), at most int()'s 4,300-digit limit. Panels may omit zero weeks
(zero-filled on parse); case files may not. Each parser flags every row with
array steps on the bytes and words the first bad line's refusal from them.
"""

from __future__ import annotations

import re
import sys

import numpy as np

from .errors import (
    GapInCases,
    InvalidConfig,
    MalformedHeader,
    MalformedRow,
    NegativeCount,
    NonContiguousAfterFill,
    ValueOutOfRange,
)
from .timeseries import Weekly, WeekStamp, week_labels, week_numbers

# int()'s limit on a str's digits (0 for none), so int() reads every cell the grammar admits
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or np.inf


def _header(data: bytes) -> str:
    """The header line of `data`, once all of it is non-empty UTF-8 with LF endings."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not valid UTF-8: {exc}") from None
    if b"\r" in data:
        raise MalformedRow("CRLF line endings are not accepted (LF only)")
    if not data:
        raise MalformedHeader("empty input")
    return data.split(b"\n", 1)[0].decode()


def _line(data: bytes, lineno: int) -> list[str]:
    """The cells of line `lineno` of `data`, 1 the header."""
    return data.split(b"\n", lineno)[lineno - 1].decode().split(",")


def _first(flags: np.ndarray) -> int:
    """The index of the first true flag, or len(flags) if none is."""
    return int(flags.argmax()) if flags.any() else len(flags)


def _kept_rows(body: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, int, tuple]:
    """For `body`, LF-ended data rows: where each starts and the last ends, their
    week numbers, how many come before the first off the row grammar
    `YYYY-Www(,-?D{1,_MAX_DIGITS}){width - 1}` (D an ASCII digit, the stamp an ISO week),
    and the first rule it breaks: ("cells", its cell count), ("stamp", its stamp), or of
    its first bad cell ("integer", its text) or ("digits", its digit count); () if none."""
    newline = body == 10
    seps = np.flatnonzero(newline | (body == 44))  # "\n" and ","
    last = np.flatnonzero(newline[seps])  # where each row's newline is among seps
    counts = np.diff(last, prepend=-1)  # each row's cells
    bounds = np.concatenate(([0], seps[last] + 1))
    firsts = seps[last - counts + 1]  # where each row's first cell ends
    stamps = body.take(bounds[:-1, None] + np.arange(8), mode="clip")
    weeks, _, valid = week_numbers(stamps.tobytes())
    # the rows before the first with a wrong cell count or stamp
    n = _first((counts != width) | (firsts - bounds[:-1] != 8) | ~valid)
    broken = (() if n == len(counts) else ("cells", int(counts[n])) if counts[n] != width
              else ("stamp", body[bounds[n]:firsts[n]].tobytes().decode()))
    seps = seps[:n * width].reshape(n, width)
    digits = np.diff(seps, axis=1)
    digits -= 1 + (body[seps[:, :-1] + 1] == 45)  # a cell's length less its "-", in place
    is_digit = body[:bounds[n]] - 48 < 10  # "0".."9": uint8 bytes below "0" wrap past 10
    # with 6 digits a stamp, the count leaves no other byte in a cell; it
    # covers only rows that keep the other rules, so two bad rows cannot balance
    if n and not (digits.min() >= 1 and digits.max() <= _MAX_DIGITS
                  and np.count_nonzero(is_digit) == 6 * n + digits.sum()):
        found = np.diff(np.cumsum(is_digit)[seps], axis=1)  # each cell's digits: no sep is one
        wrong = (digits < 1) | (found != digits)
        bad = wrong | (digits > _MAX_DIGITS)
        n, j = divmod(int(bad.argmax()), width - 1)  # the first bad row, its first bad cell
        broken = (("integer", body[seps[n, j] + 1:seps[n, j + 1]].tobytes().decode())
                  if wrong[n, j] else ("digits", int(digits[n, j])))
    return bounds, weeks, n, broken


def _refuse_volume(where: str, v, text: str) -> None:
    raise ValueOutOfRange(f"{where}: search volume {text} outside 0-100")


def _refuse_count(where: str, v, text: str) -> None:
    raise (NegativeCount(f"{where}: negative case count {text}") if v < 0
           else MalformedRow(f"{where}: case count above 2**53"))


MAX_CASES = 2 ** 53  # the largest case count: past it a float no longer holds every count

# each format's (top, refuse): its values are the integers 0..top, and refuse(where, v,
# text) raises its error for a v outside them, printed as `text` at "line N" of a file or
# "week W" of a frame
_PANEL_VALUES = (100, _refuse_volume)
_CASE_VALUES = (MAX_CASES, _refuse_count)


def _table(data: bytes, width: int, top: int, refuse, gaps: bool) -> tuple[np.ndarray, np.ndarray]:
    """The week numbers and int64 cells of `data`'s rows, once each keeps the
    row grammar and its format's values (0..top, else `refuse`), and its week
    comes after the last one's: right after it unless `gaps`. Only the rows
    before the first off the grammar are converted; a cell past int64 saturates."""
    head = data.find(b"\n") + 1 or len(data) + 1  # past the header line, or past the end
    body = np.frombuffer(data if data.endswith(b"\n") else data + b"\n", np.uint8, offset=head)
    bounds, weeks, n, broken = _kept_rows(body, width)
    text = np.delete(body[:bounds[n]], (bounds[:n, None] + np.arange(9)).ravel())  # less stamps
    text[text == 10] = 44
    cells = np.fromstring(text[:-1].tobytes(), dtype=np.int64, sep=",").reshape(n, width - 1)
    out = (cells < 0) | (cells > top)
    steps = np.diff(weeks[:n], prepend=weeks[:1] - 1)
    i = _first(out.any(axis=1) | (steps < 1 if gaps else steps != 1))
    if i < n:
        line = _line(data, i + 2)
        if out[i].any():
            v = int(line[1 + out[i].argmax()])  # exact, where the array holds int64's bound
            refuse(f"line {i + 2}", v, str(v))
        raise (GapInCases(f"missing week(s) before {line[0]}") if steps[i] > 1 else
               NonContiguousAfterFill(f"week {line[0]} out of order or duplicated"))
    if broken:
        rule, value = broken
        if rule == "stamp":
            try:
                WeekStamp.parse(value)
            except InvalidConfig as exc:
                raise MalformedRow(f"line {n + 2}: {exc}") from None
        raise MalformedRow(f"line {n + 2}: " + (
            f"expected {width} cells, got {value}" if rule == "cells" else
            f"not an integer: {value!r}" if rule == "integer" else
            f"integer of {value} digits is too long"))
    return weeks[:n], cells


def parse_trends_csv(data: bytes) -> Weekly:
    """Parse a search-volume panel, zero-filling omitted weeks."""
    header = _header(data)
    names = header.split(",")
    if len(names) < 2 or names[0] != "week":
        raise MalformedHeader(f"expected 'week,<label>,...', got {header!r}")
    labels = names[1:]
    if len(labels) != len(set(labels)) or any(not l for l in labels):
        raise MalformedHeader("query labels must be non-empty and distinct")
    weeks, volumes = _table(data, len(names), *_PANEL_VALUES, gaps=True)
    if not len(weeks):
        raise MalformedRow("panel has no data rows")
    # weeks the file omits stay zero
    matrix = np.zeros((weeks[-1] - weeks[0] + 1, len(labels)))
    matrix[weeks - weeks[0]] = volumes
    return Weekly(WeekStamp(1, 1).add(weeks[0]), labels, matrix)  # 0001-W01 is week 0


def parse_cases_csv(data: bytes) -> Weekly:
    """Parse weekly case counts, a one-column frame "cases" with no gaps."""
    header = _header(data)
    if header != "week,cases":
        raise MalformedHeader(f"expected 'week,cases', got {header!r}")
    weeks, counts = _table(data, 2, *_CASE_VALUES, gaps=False)
    if not len(weeks):
        raise MalformedRow("case file has no data rows")
    return Weekly(WeekStamp(1, 1).add(weeks[0]), ("cases",), counts)  # 0001-W01 is week 0


def _int_rows(start: WeekStamp, values: np.ndarray, top: int, refuse) -> np.ndarray:
    """`values`, a (weeks x columns) array from `start`, as the int64 rows
    the writer prints. The first week holding a value the parser would
    refuse raises as the parser does: MalformedRow for a non-integer, else
    the format's `refuse` for one outside 0..top."""
    with np.errstate(invalid="ignore"):  # a value past int64 casts to a wrong int, refused below
        ints = values.astype(np.int64)
    # min and max rather than comparisons with a scalar, which raise synth's peak RSS ~0.15 MB
    if not (ints.min() >= 0 and ints.max() <= top and (ints == values).all()):
        t = int(((ints != values) | (ints < 0) | (ints > top)).any(axis=1).argmax())
        week, cells = start.add(t), values[t].tolist()
        fraction = next((v for v in cells if not v.is_integer()), None)
        if fraction is not None:
            raise MalformedRow(f"week {week}: not an integer: {fraction!r}")
        v = next(v for v in cells if not 0 <= v <= top)
        refuse(f"week {week}", v, f"{v:g}")
    return ints


# the text of each search volume, printed by lookup rather than one str() a cell
_VOLUME_TEXT = np.array([str(v) for v in range(_PANEL_VALUES[0] + 1)], dtype=object)


def _volume_rows(ints: np.ndarray) -> list[str]:
    """Each row of a (weeks x queries) array of volumes 0..100 as the text of
    its cells, 64 rows at a time: an object array of the whole panel would
    raise synth's peak RSS."""
    return [",".join(row) for i in range(0, len(ints), 64)
            for row in _VOLUME_TEXT[ints[i:i + 64]].tolist()]


def _write_rows(header: str, start: WeekStamp, rows: list[str]) -> bytes:
    """The header, then each row's week stamp and its cells' text `rows[i]`."""
    weeks = week_labels(start, len(rows))
    return "".join([header + "\n", *map("{},{}\n".format, weeks, rows)]).encode("utf-8")


_UNWRITABLE = re.compile("[,\n\r\ud800-\udfff]")  # a comma, a line break or a lone surrogate


def check_labels(labels: tuple[str, ...], what: str) -> None:
    """Raise MalformedHeader, naming `what`, unless every label can head a
    column of a CSV written here: non-empty, without commas or line breaks,
    and UTF-8 (no lone surrogate)."""
    if not all(labels) or _UNWRITABLE.search("".join(labels)):
        raise MalformedHeader(f"{what} labels must be non-empty UTF-8, "
                              "without commas or line breaks")


def write_trends_csv(panel: Weekly) -> bytes:
    check_labels(panel.labels, "query")
    rows = _volume_rows(_int_rows(panel.start, panel.matrix, *_PANEL_VALUES))  # ints freed here
    return _write_rows("week," + ",".join(panel.labels), panel.start, rows)


def write_cases_csv(cases: Weekly) -> bytes:
    (counts,) = _int_rows(cases.start, cases.matrix, *_CASE_VALUES).T  # its one column
    return _write_rows("week,cases", cases.start, list(map(str, counts.tolist())))
