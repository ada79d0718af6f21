"""Structured error types shared across the pipeline.

Every error raised by library code derives from DataError, so the CLI
catches DataError alone and any other exception shows as the bug it is.
"""


class DataError(Exception):
    """Base class for all data/validation errors raised by this package."""


# -- timeseries ---------------------------------------------------------

class InsufficientOverlap(DataError):
    """Fewer than the minimum number of pairs remain after shifting."""


class EmptyOverlap(InsufficientOverlap):
    """Two series share no common week range: the zero-pair case."""


class NegativeValue(DataError):
    """Search-volume scaling requires non-negative input."""


# -- stats --------------------------------------------------------------

class InvalidDof(DataError):
    """Degrees of freedom must be a positive integer."""


# -- regress ------------------------------------------------------------

class Underdetermined(DataError):
    """Not enough fitted weeks for the number of coefficients."""


class SingularDesign(DataError):
    """Design matrix columns are (near-)collinear."""


class MissingQuery(DataError):
    """A fitted query label is absent from the prediction panel."""


# -- selection ----------------------------------------------------------

class NoUsableQuery(DataError):
    """Every candidate query is NA at every candidate shift."""


# -- ingest -------------------------------------------------------------

class MalformedHeader(DataError):
    """CSV header does not match the interchange format."""


class MalformedRow(DataError):
    """CSV data row does not match the interchange format."""


class NonContiguousAfterFill(DataError):
    """Week stamps are out of order or duplicated, so zero-fill cannot repair them."""


class ValueOutOfRange(DataError):
    """Search-volume value outside the 0-100 range."""


class GapInCases(DataError):
    """Case series has a missing week (cases must be complete)."""


class NegativeCount(DataError):
    """Case counts must be non-negative."""


# -- parameters (synth, timeseries, stats) -------------------------------

class InvalidConfig(DataError):
    """A parameter out of its range: a scenario configuration against its
    invariants, a shift beyond +/-2 weeks, an alpha outside (0, 1), a week
    stamp that is no ISO week or lies outside 0001-W01..9999-W52 (figure
    weeks or estimates included), or a `Weekly` frame against its invariants."""


# -- report -------------------------------------------------------------

class EmptyLabel(DataError):
    """Figure series must carry a non-empty label."""
