"""Date-anchored weekly data: week arithmetic, shifted pairing, 0-100 scaling.

Weekly values are read-only float64 arrays: one per series, and one
C-order (weeks x queries) matrix per query panel. Only this module turns
week positions into stamps and ISO years; 0001-W01..9999-W52 is the range.

A shift is a plain int k. Sign convention: +k ("lagging") pairs search
week t with case week t+k, i.e. the case data are moved later relative
to the searches; -k ("preceding") is the mirror image. `paired` is the
one routine that applies a shift, and it rejects shifts beyond
+/-MAX_SHIFT (2 weeks).
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap, InsufficientOverlap, InvalidConfig, MissingQuery, NegativeValue

MAX_SHIFT = 2
DEFAULT_SHIFTS = (-2, -1, 0, 1, 2)
MIN_PAIRS = 3
_STAMP = re.compile(r"[0-9]{4}-W[0-9]{2}")
# 9999-W52 is the last ISO week a `date` can hold
_LAST_WEEK = _dt.date.fromisocalendar(9999, 52, 1).toordinal() // 7


class WeekStamp(int):
    """One ISO-8601 week, held as its number: its Monday's day ordinal // 7.

    So 0001-W01 is 0, stamps order by (year, week), and `b - a` is the
    number of weeks from a to b. The calendar is consulted only to build,
    parse and print a stamp.
    """

    def __new__(cls, iso_year: int, iso_week: int) -> "WeekStamp":
        # fromisocalendar validates the week number against the year
        try:
            monday = _dt.date.fromisocalendar(iso_year, iso_week, 1)
        except ValueError as exc:
            raise ValueError(f"invalid ISO week {iso_year:04d}-W{iso_week:02d}") from exc
        return int.__new__(cls, monday.toordinal() // 7)

    @classmethod
    def parse(cls, text: str) -> "WeekStamp":
        """Parse the 'YYYY-Www' interchange form (ASCII digits only)."""
        if not _STAMP.fullmatch(text):
            raise ValueError(f"not a YYYY-Www week stamp: {text!r}")
        return cls(int(text[:4]), int(text[6:]))

    def __str__(self) -> str:
        return "%04d-W%02d" % _dt.date.fromordinal(7 * self + 1).isocalendar()[:2]

    __repr__ = __str__

    def __reduce__(self):  # int's own would call WeekStamp(number)
        return WeekStamp.parse, (str(self),)

    def add(self, weeks: int) -> "WeekStamp":
        if not 0 <= self + weeks <= _LAST_WEEK:
            raise ValueError(f"{weeks:+d} weeks from {self} is outside 0001-W01..9999-W52")
        return int.__new__(WeekStamp, self + weeks)


def _week_one_monday(year: np.ndarray) -> np.ndarray:
    """Day ordinal of the Monday of each year's ISO week 1, the week that holds 4 January."""
    y = year - 1
    jan4 = 365 * y + y // 4 - y // 100 + y // 400 + 4
    return jan4 - (jan4 - 1) % 7  # ordinal 1, 0001-01-01, is a Monday


def week_numbers(stamps: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The number of each 'YYYY-Www' stamp in `stamps`, eight ASCII bytes
    apiece, and whether `WeekStamp.parse` accepts it; the number of a stamp
    it refuses means nothing. All stamps are read in one array step."""
    chars = np.frombuffer(stamps, np.uint8).reshape(-1, 8).astype(np.int64)
    digits = chars[:, [0, 1, 2, 3, 6, 7]] - ord("0")
    year, week = digits[:, :4] @ (1000, 100, 10, 1), digits[:, 4:] @ (10, 1)
    monday = _week_one_monday(year)
    weeks_in_year = (_week_one_monday(year + 1) - monday) // 7
    valid = (((digits >= 0) & (digits <= 9)).all(axis=1) & (chars[:, 4] == ord("-"))
             & (chars[:, 5] == ord("W")) & (year >= 1) & (week >= 1) & (week <= weeks_in_year))
    return monday // 7 + week - 1, valid


class ArrayFields:
    """Base of the dataclasses that hold arrays, weekly values read-only.

    They take eq=False, since a generated == would compare the arrays and
    raise; this == compares array fields element-wise, NaN equal to NaN.
    """

    def _freeze(self, name: str) -> np.ndarray:
        """Replace field `name` by a read-only C-order float64 copy."""
        a = np.array(getattr(self, name), dtype=float, order="C")
        a.flags.writeable = False
        object.__setattr__(self, name, a)
        return a

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)
        return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


@dataclass(frozen=True, eq=False)
class WeeklySeries(ArrayFields):
    """Contiguous weekly values anchored at a start week."""

    start: WeekStamp
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = self._freeze("values")
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("series must contain at least one week")
        if not np.isfinite(vals).all():
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class QueryPanel(ArrayFields):
    """Search volumes of distinct queries on one week range.

    `matrix[t, j]` is query j's volume in week t from `start`.
    """

    start: WeekStamp
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = self._freeze("matrix")
        if not self.labels:
            raise ValueError("panel needs at least one query")
        if len(self.labels) != len(set(self.labels)):
            repeated = next(l for i, l in enumerate(self.labels) if l in self.labels[:i])
            raise ValueError(f"panel labels must be distinct: {repeated!r} is repeated")
        if m.ndim != 2 or m.shape[1] != len(self.labels) or len(m) < 1:
            raise ValueError(f"matrix shape {m.shape} is not weeks x {len(self.labels)} queries")
        if not np.isfinite(m).all():
            raise ValueError("panel values must be finite")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def series(self) -> tuple[WeeklySeries, ...]:
        return tuple(WeeklySeries(self.start, col, label)
                     for label, col in zip(self.labels, self.matrix.T))

    def subset(self, labels: list[str]) -> "QueryPanel":
        missing = [l for l in labels if l not in self.labels]
        if missing:
            raise MissingQuery(f"query {missing[0]!r} not in panel")
        columns = [self.labels.index(l) for l in labels]
        return QueryPanel(self.start, tuple(labels), self.matrix[:, columns])


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


def paired(start: WeekStamp, X: np.ndarray, y: WeeklySeries,
           k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """X's weekly rows from `start` paired with y's values, search week t
    with case week t+k, and y's index of the first pair. Disjoint ranges
    raise EmptyOverlap, the zero-pair case of InsufficientOverlap."""
    if abs(k) > MAX_SHIFT:
        raise InvalidConfig(f"|shift| = {abs(k)} exceeds maximum {MAX_SHIFT}")
    d = y.start - start  # y's first week, in X's rows
    lo, hi = max(0, d), min(len(X), d + len(y))
    if lo >= hi:
        raise EmptyOverlap(
            f"series ranges {start}..{start.add(len(X) - 1)} and "
            f"{y.start}..{y.start.add(len(y) - 1)} are disjoint"
        )
    n = max(hi - lo - abs(k), 0)
    if n < MIN_PAIRS:
        raise InsufficientOverlap(f"only {n} pairs remain after shifting by {k} (need {MIN_PAIRS})")
    xi, yi = lo + max(-k, 0), lo - d + max(k, 0)
    return X[xi:xi + n], y.values[yi:yi + n], yi


def scale_0_100(s: WeeklySeries) -> WeeklySeries:
    """Rescale so the max maps to 100, rounding half-up to integers.

    Matches the integer normalization of search-volume exports; an
    all-zero series is returned unchanged.
    """
    if (s.values < 0).any():
        raise NegativeValue(f"negative value in series {s.label!r}")
    top = s.values.max()
    if top == 0:
        return s
    return WeeklySeries(s.start, np.floor(100.0 * s.values / top + 0.5), s.label)
