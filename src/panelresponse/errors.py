"""Exception types raised by the panelresponse package.

Every error raised on a violated data contract derives from
:class:`PanelResponseError`, so callers (and the CLI) can catch one base
class for all validation failures.
"""

from __future__ import annotations


class PanelResponseError(Exception):
    """Base class for all panelresponse data and contract errors."""


class BadParameter(PanelResponseError, ValueError):
    """A numeric argument lies outside its valid range.

    Also a :class:`ValueError`, so callers that catch ``ValueError`` for a
    bad argument keep working.
    """


# ---------------------------------------------------------------------------
# panel ingestion / transformation
# ---------------------------------------------------------------------------


class SchemaError(PanelResponseError):
    """Input file does not match the expected CSV schema."""


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


class IrregularTimeAxis(PanelResponseError):
    """Monthly time axis has gaps, duplicates, or uneven spacing."""


class DuplicateSeries(PanelResponseError):
    """The same series identifier occurs more than once."""


class DegenerateSeries(PanelResponseError):
    """A series has zero variance and cannot be standardized."""

    def __init__(self, series: int | str):
        self.series = series
        super().__init__(f"series {series} has zero variance")


class MissingWeight(PanelResponseError):
    """No weight is available for a goods category."""

    def __init__(self, goods: int):
        self.goods = goods
        super().__init__(f"no weight for goods category g={goods}")


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


class NotSymmetric(PanelResponseError):
    """Matrix expected to be symmetric is not."""


class DimensionMismatch(PanelResponseError):
    """Array dimensions of two inputs are incompatible."""


class EigensolverFailure(PanelResponseError, RuntimeError):
    """The eigendecomposition failed its residual check.

    Also a :class:`RuntimeError`, the type this failure used to raise.
    """


class BadModeIndex(PanelResponseError):
    """Eigenmode index outside the valid range [1, M]."""


class QOutOfRange(PanelResponseError):
    """Aspect ratio Q = N'/M must exceed 1."""


class EmptyInput(PanelResponseError):
    """An operation received an empty collection."""


# ---------------------------------------------------------------------------
# null models
# ---------------------------------------------------------------------------


class LagOutOfRange(PanelResponseError):
    """Autocorrelation lag outside the estimable range."""


class BadConfidence(PanelResponseError):
    """Confidence level must lie strictly between 0 and 1."""


class EmptyEnsemble(PanelResponseError):
    """The Monte Carlo ensemble contains no samples."""


# ---------------------------------------------------------------------------
# noise-filtered matrix / linear response
# ---------------------------------------------------------------------------


class BadModeCount(PanelResponseError):
    """Number of retained modes outside [0, M] (or [1, M] where required)."""


class BadBeta(PanelResponseError):
    """Inverse-temperature scale must be positive."""


class UnknownSeries(PanelResponseError):
    """Series identifier cannot be resolved against the matrix layout."""


class LayoutMismatch(PanelResponseError):
    """Operation requires the standard 3-variable, 21-goods panel layout."""


# ---------------------------------------------------------------------------
# cycles / Fourier analysis
# ---------------------------------------------------------------------------


class WindowTooWide(PanelResponseError):
    """Moving-average half-width is as long as the series itself."""


class InsufficientOverlap(PanelResponseError):
    """Lagged overlap between two series is shorter than two points."""


class BadFrequencyIndex(PanelResponseError):
    """Fourier index outside [1, N'-1]."""


class ReferenceAmplitudeZero(PanelResponseError):
    """Reference series has no amplitude at the requested frequency."""


class DegenerateWeights(PanelResponseError):
    """All phase weights vanish; the circular mean is undefined."""

    def __init__(self, series: int | str):
        self.series = series
        super().__init__(f"series {series} has no spectral weight in the chosen band")


class SingularSusceptibility(PanelResponseError):
    """Reduced susceptibility matrix is numerically singular."""


# ---------------------------------------------------------------------------
# synthetic panels
# ---------------------------------------------------------------------------


class InfeasibleSpec(PanelResponseError):
    """Synthetic-panel variance budget cannot be satisfied."""
