"""Date-anchored weekly data: week arithmetic, shifted pairing, 0-100 scaling.

All weekly data is one type, `Weekly`: a start week, column labels and a
read-only C-order (weeks x columns) float64 matrix. Cases and estimates
are one-column frames, a query panel has a column per query. Only this
module turns week positions into stamps and ISO years; 0001-W01..9999-W52
is the range.

A shift is a plain int k. Sign convention: +k ("lagging") pairs search
week t with case week t+k, i.e. the case data are moved later relative
to the searches; -k ("preceding") is the mirror image. `paired` is the
one routine that applies a shift: it pairs the rows of one frame with
the one column of another, and it rejects shifts beyond +/-MAX_SHIFT
(2 weeks). DEFAULT_SHIFTS and ALPHA, the default significance level, are here too.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap, InsufficientOverlap, InvalidConfig, MissingQuery, NegativeValue

MAX_SHIFT = 2
DEFAULT_SHIFTS = (-2, -1, 0, 1, 2)
MIN_PAIRS = 3
ALPHA = 0.05  # the default significance level


class WeekStamp(int):
    """One ISO-8601 week, held as its number: its Monday's day ordinal // 7.

    So 0001-W01 is 0, stamps order by (year, week), and `b - a` is the
    number of weeks from a to b. The calendar is consulted only to print a
    stamp; building and parsing one is day-ordinal arithmetic.
    """

    def __new__(cls, iso_year: int, iso_week: int) -> "WeekStamp":
        number, exists = _week_number(iso_year, iso_week)
        if not exists:
            raise InvalidConfig(f"invalid ISO week {iso_year:04d}-W{iso_week:02d}")
        return int.__new__(cls, number)

    @classmethod
    def parse(cls, text: str) -> "WeekStamp":
        """Parse the 'YYYY-Www' interchange form (ASCII digits only)."""
        if len(text) == 8 and text.isascii():
            (number,), (formed,), (valid,) = week_numbers(text.encode())
            if valid:
                return int.__new__(cls, number)
            if formed:
                raise InvalidConfig(f"invalid ISO week {text}")
        raise InvalidConfig(f"not a YYYY-Www week stamp: {text!r}")

    def __str__(self) -> str:
        return "%04d-W%02d" % _dt.date.fromordinal(7 * self + 1).isocalendar()[:2]

    __repr__ = __str__

    def __reduce__(self):  # int's own would call WeekStamp(number)
        return WeekStamp.parse, (str(self),)

    def add(self, weeks: int) -> "WeekStamp":
        if not 0 <= self + weeks <= LAST_WEEK:
            raise InvalidConfig(f"{weeks:+d} weeks from {self} is outside 0001-W01..{LAST_WEEK}")
        return int.__new__(WeekStamp, self + weeks)


def _week_number(year, week):
    """The number of ISO week `week` of `year`, ints or arrays of them, and
    whether that week exists in 0001..9999; a number that does not means nothing."""
    # day ordinals of 4 January of year and year + 1, then of the Mondays of their weeks, week 1
    jan4 = [365 * y + y // 4 - y // 100 + y // 400 + 4 for y in (year - 1, year)]
    monday, next_monday = (d - (d - 1) % 7 for d in jan4)  # ordinal 1, 0001-01-01, is a Monday
    exists = (1 <= year) & (year <= 9999) & (1 <= week) & (7 * week <= next_monday - monday)
    return monday // 7 + week - 1, exists


LAST_WEEK = WeekStamp(9999, 52)  # the last ISO week a `date` can hold


def week_numbers(stamps: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The number of each 'YYYY-Www' stamp in `stamps`, eight bytes apiece,
    whether it has that form (ASCII digits), and whether it is also an ISO
    week, as `WeekStamp.parse` needs; all stamps are read in one array step."""
    chars = np.frombuffer(stamps, np.uint8).reshape(-1, 8).astype(np.int64)
    digits = chars[:, [0, 1, 2, 3, 6, 7]].T - ord("0")
    formed = (((digits >= 0) & (digits <= 9)).all(axis=0) & (chars[:, 4] == ord("-"))
              & (chars[:, 5] == ord("W")))
    y1, y2, y3, y4, w1, w2 = digits
    number, exists = _week_number(((y1 * 10 + y2) * 10 + y3) * 10 + y4, w1 * 10 + w2)
    return number, formed, formed & exists


@dataclass(frozen=True, eq=False)
class Weekly:
    """Labelled weekly values: `matrix[t, j]` is column j's value in week t
    from `start`, a read-only C-order float64 copy of what was given.

    Cases are the one column "cases", model estimates "estimates", and a
    search panel has one column per query. eq=False, since a generated ==
    would compare the arrays and raise; this == compares the matrices
    element-wise, NaN equal to NaN.
    """

    start: WeekStamp
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, order="C")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise InvalidConfig("panel needs at least one column")
        if len(self.labels) != len(set(self.labels)):
            repeated = next(l for i, l in enumerate(self.labels) if l in self.labels[:i])
            raise InvalidConfig(f"panel labels must be distinct: {repeated!r} is repeated")
        if m.ndim != 2 or m.shape[1] != len(self.labels):
            raise InvalidConfig(f"matrix shape {m.shape} is not weeks x {len(self.labels)} columns")
        if len(m) < 1:
            raise InvalidConfig("panel must hold at least one week")
        if not np.isfinite(m).all():
            raise InvalidConfig("panel values must be finite")

    def __eq__(self, other):
        if type(other) is not Weekly:
            return NotImplemented
        return (self.start == other.start and self.labels == other.labels
                and np.array_equal(self.matrix, other.matrix, equal_nan=True))

    @property
    def values(self) -> np.ndarray:
        """The one column of a one-column frame, 1-D."""
        if len(self.labels) != 1:
            raise InvalidConfig(f"a frame of {len(self.labels)} columns has no single column")
        return self.matrix[:, 0]

    def subset(self, labels: list[str]) -> "Weekly":
        missing = [l for l in labels if l not in self.labels]
        if missing:
            raise MissingQuery(f"query {missing[0]!r} not in panel")
        columns = [self.labels.index(l) for l in labels]
        return Weekly(self.start, tuple(labels), self.matrix[:, columns])


def week_labels(start: WeekStamp, n: int) -> list[str]:
    """'YYYY-Www' stamps of the n consecutive weeks from `start`."""
    start.add(max(n - 1, 0))  # raises if the range runs off the calendar
    return ["%04d-W%02d" % _dt.date.fromordinal(d).isocalendar()[:2]
            for d in range(7 * start + 1, 7 * (start + n), 7)]


def iso_years(start: WeekStamp, n: int) -> np.ndarray:
    """ISO year of each of the n consecutive weeks from `start`: the
    calendar year of the week's Thursday."""
    start.add(max(n - 1, 0))
    monday = np.datetime64(_dt.date.fromordinal(7 * start + 1), "D")
    return (monday + np.arange(3, 7 * n, 7)).astype("datetime64[Y]").astype(int) + 1970


def paired(x: Weekly, y: Weekly, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """x's weekly rows paired with the values of y's one column, search
    week t with case week t+k, and y's index of the first pair. Disjoint
    ranges raise EmptyOverlap, the zero-pair case of InsufficientOverlap."""
    if abs(k) > MAX_SHIFT:
        raise InvalidConfig(f"|shift| = {abs(k)} exceeds maximum {MAX_SHIFT}")
    nx, ny = len(x.matrix), len(y.matrix)
    d = y.start - x.start  # y's first week, in x's rows
    lo, hi = max(0, d), min(nx, d + ny)
    if lo >= hi:
        raise EmptyOverlap(
            f"series ranges {x.start}..{x.start.add(nx - 1)} and "
            f"{y.start}..{y.start.add(ny - 1)} are disjoint"
        )
    n = max(hi - lo - abs(k), 0)
    if n < MIN_PAIRS:
        raise InsufficientOverlap(f"only {n} pairs remain after shifting by {k} (need {MIN_PAIRS})")
    xi, yi = lo + max(-k, 0), lo - d + max(k, 0)
    return x.matrix[xi:xi + n], y.values[yi:yi + n], yi


def scale_0_100(m: np.ndarray) -> np.ndarray:
    """Rescale each column of the (weeks x columns) float array `m` in
    place so its max maps to 100, rounding half-up to integers, and return it.

    Matches the integer normalization of search-volume exports; an
    all-zero column is left untouched.
    """
    if (m < 0).any():
        raise NegativeValue(f"negative value in column {int((m < 0).any(axis=0).argmax())}")
    top = m.max(axis=0)
    live = top != 0
    np.multiply(m, 100.0, out=m, where=live)
    np.divide(m, top, out=m, where=live)
    np.add(m, 0.5, out=m, where=live)
    return np.floor(m, out=m, where=live)
