"""Date-anchored weekly series: week arithmetic, shift windows, 0-100 scaling.

Sign convention for shifts: +k ("lagging") pairs search week t with case
week t+k, i.e. the case data are moved later relative to the searches.
-k ("preceding") is the mirror image. Shifts beyond +/-MAX_SHIFT (2
weeks) are rejected.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import EmptyOverlap, InsufficientOverlap, NegativeValue

MAX_SHIFT = 2
MIN_PAIRS = 3
_STAMP = re.compile(r"[0-9]{4}-W[0-9]{2}")
_ONE_WEEK = _dt.timedelta(weeks=1)


@dataclass(frozen=True, order=True)
class WeekStamp:
    """One ISO-8601 week, ordered lexicographically by (year, week)."""

    iso_year: int
    iso_week: int

    def __post_init__(self):
        # fromisocalendar validates the week number against the year
        try:
            _dt.date.fromisocalendar(self.iso_year, self.iso_week, 1)
        except ValueError as exc:
            raise ValueError(f"invalid ISO week {self.iso_year}-W{self.iso_week:02d}") from exc

    @classmethod
    def parse(cls, text: str) -> "WeekStamp":
        """Parse the 'YYYY-Www' interchange form (ASCII digits only)."""
        if not _STAMP.fullmatch(text):
            raise ValueError(f"not a YYYY-Www week stamp: {text!r}")
        return cls(int(text[:4]), int(text[6:]))

    def __str__(self) -> str:
        return f"{self.iso_year:04d}-W{self.iso_week:02d}"

    def _monday(self) -> _dt.date:
        return _dt.date.fromisocalendar(self.iso_year, self.iso_week, 1)

    def add(self, weeks: int) -> "WeekStamp":
        d = self._monday() + _dt.timedelta(weeks=weeks)
        y, w, _ = d.isocalendar()
        return WeekStamp(y, w)

    def weeks_until(self, other: "WeekStamp") -> int:
        """Signed number of weeks from self to other."""
        return (other._monday() - self._monday()).days // 7


@dataclass(frozen=True)
class WeeklySeries:
    """Contiguous weekly values anchored at a start week."""

    start: WeekStamp
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("series must contain at least one week")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> WeekStamp:
        """Last week covered (inclusive)."""
        return self.start.add(len(self.values) - 1)

    def weeks(self) -> Iterator[WeekStamp]:
        return week_range(self.start, len(self.values))


@dataclass(frozen=True)
class ShiftSpec:
    """Signed week offset: +k lagging, -k preceding."""

    weeks: int

    def __post_init__(self):
        if abs(self.weeks) > MAX_SHIFT:
            raise ValueError(f"|shift| = {abs(self.weeks)} exceeds maximum {MAX_SHIFT}")


def week_range(start: WeekStamp, n: int) -> Iterator[WeekStamp]:
    """The n consecutive weeks from `start`, stepping one date by 7 days."""
    day = start._monday()
    for _ in range(n):
        year, week, _ = day.isocalendar()
        yield WeekStamp(year, week)
        day += _ONE_WEEK


def window(x_start: WeekStamp, x_len: int, y: WeeklySeries, s: ShiftSpec) -> tuple[int, int, int]:
    """Index offsets pairing search week t with case week t+k under shift s.

    x is a weekly column of `x_len` values from `x_start`. Pair i is
    (x[xi + i], y.values[yi + i]) for i < n, both taken from the weeks the
    two ranges share.
    """
    d = x_start.weeks_until(y.start)  # y's first week, in x indices
    lo, hi = max(0, d), min(x_len, d + len(y))
    if lo >= hi:
        raise EmptyOverlap(
            f"series ranges {x_start}..{x_start.add(x_len - 1)} and {y.start}..{y.end} are disjoint"
        )
    k = s.weeks
    n = max(hi - lo - abs(k), 0)
    if n < MIN_PAIRS:
        raise InsufficientOverlap(f"only {n} pairs remain after shifting by {k} (need {MIN_PAIRS})")
    return lo + max(-k, 0), lo - d + max(k, 0), n


def shift_pair(x: WeeklySeries, y: WeeklySeries, s: ShiftSpec) -> list[tuple[float, float]]:
    """Pairs (x_t, y_{t+k}) for shift +k; (x_t, y_{t-k}) for -k."""
    xi, yi, n = window(x.start, len(x), y, s)
    return list(zip(x.values[xi:xi + n], y.values[yi:yi + n]))


def _round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def scale_0_100(s: WeeklySeries) -> WeeklySeries:
    """Rescale so the max maps to 100, rounding half-up to integers.

    Matches the integer normalization of search-volume exports; an
    all-zero series is returned unchanged.
    """
    if any(v < 0 for v in s.values):
        raise NegativeValue(f"negative value in series {s.label!r}")
    top = max(s.values)
    if top == 0:
        return s
    scaled = tuple(float(_round_half_up(100.0 * v / top)) for v in s.values)
    return WeeklySeries(s.start, scaled, s.label)
