"""Exception types raised by the panelresponse package.

Every error raised on a violated data contract derives from
:class:`PanelResponseError`, so callers (and the CLI) can catch one
base class for all validation failures.  Each other class is one kind of fault
a caller can act on: a value out of range (:class:`BadParameter`), a file,
document or container of the wrong shape (:class:`SchemaError`), four data
faults that name the offending series or cell, and a numerical failure on
valid input (:class:`EigensolverFailure`).
"""

from __future__ import annotations


class PanelResponseError(Exception):
    """Base class for all panelresponse data and contract errors."""


class BadParameter(PanelResponseError, ValueError):
    """An argument lies outside its valid range.

    A mode count, lag, half-width, frequency index, series id, layout,
    confidence, seed or synthetic-panel value.  Also a
    :class:`ValueError`, so callers that catch ``ValueError`` for a bad
    argument keep working.
    """


class SchemaError(PanelResponseError):
    """A file, document or container has the wrong shape.

    Unreadable or malformed CSV and JSON, a missing or wrong-typed field, a
    duplicate or irregular month, a duplicate series, an asymmetric matrix,
    or arrays whose dimensions disagree.
    """


class MissingData(PanelResponseError):
    """A required cell is empty inside the analysis window."""

    def __init__(self, series: str, date: str):
        self.series = series
        self.date = date
        super().__init__(f"missing value for series {series} at {date}")


class NonPositiveLevel(PanelResponseError):
    """An index level is zero or negative (its log is undefined)."""

    def __init__(self, series: str, date: str, value: float):
        self.series = series
        self.date = date
        self.value = value
        super().__init__(f"non-positive level {value!r} for series {series} at {date}")


class DegenerateSeries(PanelResponseError):
    """A series has zero variance and cannot be standardized."""

    def __init__(self, series: int | str):
        self.series = series
        super().__init__(f"series {series} has zero variance")


class DegenerateWeights(PanelResponseError):
    """A series' phase weights all vanish; its circular mean is undefined."""

    def __init__(self, series: str):
        self.series = series
        super().__init__(f"series {series} has no spectral weight in the chosen band")


class EigensolverFailure(PanelResponseError, RuntimeError):
    """The eigendecomposition failed its residual check.

    Also a :class:`RuntimeError`, the type this failure used to raise.
    """
