"""Business-cycle analysis: smoothing, Fourier bands, phases, external stimuli.

The two leading mode series carry the economy-wide cycles.  A centered
moving average strips the fast month-to-month noise; an inverse Fourier
reconstruction restricted to low frequency indices isolates the long-period
(business-cycle) component.  The difference between the two is the residual
disturbance, and inverting the reduced two-mode susceptibility on that
residual recovers the external stimulus series driving the economy beyond
its inherent cycles.

Fourier convention: coefficients are (1/sqrt(N')) sum_j x(t_j) e^{+i w_k t_j}
with w_k = 2 pi k / N' per month and t_j = j = 1..N', and series are
reconstructed with e^{-i w_k t_j}.  Only :func:`dft` and :func:`inverse_dft`
spell it out; the band filter and the phase tables read their bins from
:func:`dft`.  Under that convention a positive relative phase means the
series peaks earlier than (is ahead of) the reference.

Frequency presets below (k = {1,2,4,6}, roughly 240/120/60/40-month periods,
and k <= 9, all periods over two years) are tuned to ~240-month panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._files import write_rows
from .errors import BadParameter, DegenerateWeights, SchemaError
from .panel import SeriesId, Variable, _class_rows, _freeze, _goods, _layout_entries, _row
from .response import ReducedSusceptibility
from .spectral import ModeBasis, ModeSeries

#: The four dominant cycle tones of a ~240-month panel.
KSET_BUSINESS_CYCLES: tuple[int, ...] = (1, 2, 4, 6)

#: Every component with period above two years in a ~240-month panel.
KSET_LONG_PERIODS: tuple[int, ...] = tuple(range(1, 10))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def moving_average(x: Sequence[float] | np.ndarray, half_width: int) -> np.ndarray:
    """Mean over the window [j - half_width, j + half_width], clipped to the series.

    The window shrinks at the boundaries.  half_width = 0 returns a copy of
    the input; constants and (at interior points) linear ramps are preserved
    for any width.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if half_width < 0:
        raise BadParameter(f"half-width must be >= 0, got {half_width}")
    if half_width >= n:
        raise BadParameter(f"half-width {half_width} >= series length {n}")
    if half_width == 0:
        return arr.copy()
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    j = np.arange(n)
    lo = np.maximum(j - half_width, 0)
    hi = np.minimum(j + half_width + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def lag_correlation(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    lag: int,
    half_width: int = 0,
) -> float:
    """Normalized lagged correlation <x(t) y(t - lag)>_t after smoothing both.

    The lagged product is averaged over the overlapping months; the
    normalization uses each smoothed series' full-sample root mean square,
    so the value is a correlation coefficient comparable across lags.
    """
    xs = moving_average(x, half_width)
    ys = moving_average(y, half_width)
    if xs.size != ys.size:
        raise SchemaError("series lengths differ")
    n = xs.size
    if n - abs(lag) < 2:
        raise BadParameter(f"overlap for lag {lag} shorter than 2 points")
    if lag >= 0:
        num = float(np.mean(xs[lag:] * ys[: n - lag]))
    else:
        num = float(np.mean(xs[: n + lag] * ys[-lag:]))
    den = float(np.sqrt(np.mean(xs**2) * np.mean(ys**2)))
    if den == 0.0:
        raise BadParameter("a smoothed series vanishes identically")
    return num / den


# ---------------------------------------------------------------------------
# Fourier decomposition
# ---------------------------------------------------------------------------


def dft(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coefficients (1/sqrt(N')) sum_j x(t_j) e^{+i w_k t_j}, t_j = j months, k = 0 .. N'-1."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 2:
        raise SchemaError(f"need at least 2 points, got {n}")
    k = np.arange(n)
    # t_j = j with j = 1..N', so the array origin carries one extra phase step
    phase = np.exp(2j * np.pi * k / n)
    return np.sqrt(n) * phase * np.fft.ifft(arr)


def inverse_dft(coeffs: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Reconstruct x(t_j) = (1/sqrt(N')) sum_k coeffs_k e^{-i w_k t_j}."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size
    if n < 2:
        raise SchemaError(f"need at least 2 coefficients, got {n}")
    k = np.arange(n)
    out = np.fft.fft(c * np.exp(-2j * np.pi * k / n)) / np.sqrt(n)
    scale = np.abs(c).max()
    if np.abs(out.imag).max() > 1e-9 * max(scale, 1.0):
        raise BadParameter("coefficients are not conjugate-symmetric; result not real")
    return out.real


def _check_kset(kset: Iterable[int], n: int) -> list[int]:
    ks = sorted(set(int(k) for k in kset))
    if not ks:
        raise BadParameter("empty frequency set")
    for k in ks:
        if not 1 <= k <= n - 1:
            raise BadParameter(f"frequency index {k} outside [1, {n - 1}]")
    return ks


def long_period(x: Sequence[float] | np.ndarray, kset: Iterable[int]) -> np.ndarray:
    """Inverse transform keeping only kset and its conjugate partners N' - k.

    The retained pair (k, N' - k) keeps the output real; anything outside the
    band, including the mean (k = 0), is annihilated.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    ks = _check_kset(kset, n)
    keep = np.concatenate([ks, n - np.array(ks)])
    masked = np.zeros(n, dtype=complex)
    masked[keep] = dft(arr)[keep]
    return inverse_dft(masked)


# ---------------------------------------------------------------------------
# residual disturbance and external stimuli
# ---------------------------------------------------------------------------


def _mode_residuals(
    ms: ModeSeries, half_width: int, kset: tuple[int, ...]
) -> np.ndarray:
    """Smoothed-minus-long-period residual of the two leading mode series (2 x N')."""
    if ms.coeffs.shape[0] < 2:
        raise SchemaError("need the two leading mode series")
    return np.stack(
        [moving_average(a, half_width) - long_period(a, kset) for a in ms.coeffs[:2]]
    )


def residual_disturbance(
    ms: ModeSeries,
    basis: ModeBasis,
    half_width: int = 6,
    kset: Iterable[int] = KSET_BUSINESS_CYCLES,
) -> np.ndarray:
    """Per-series residual fluctuation <w_l(t)> beyond the inherent cycles.

    Combines the two leading modes: smoothed coefficients minus their
    long-period components, mapped back through the eigenvectors (M x N').
    """
    if basis.m < 2:
        raise SchemaError("need at least two modes in the basis")
    # read once, so a one-shot iterable serves both modes
    resid = _mode_residuals(ms, half_width, tuple(kset))
    return basis.vectors[:, :2] @ resid


@dataclass(frozen=True, eq=False)
class StimulusSeries:
    """Inferred external fields acting on the two leading modes.

    Only the series are kept: beta, the smoothing half-width and the
    frequency set are the caller's arguments, not kept here.
    """

    months: np.ndarray
    values: np.ndarray  # 2 x N'

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(np.asarray(self.values)))

    @property
    def eta1(self) -> np.ndarray:
        return self.values[0]

    @property
    def eta2(self) -> np.ndarray:
        return self.values[1]

    def to_csv(self, target: str | Path | TextIO) -> None:
        eta1, eta2 = self.values.tolist()
        write_rows(target, [("date", "eta1", "eta2"), *zip(self.months, eta1, eta2)])


def external_stimuli(
    ms: ModeSeries,
    basis: ModeBasis,
    chi: ReducedSusceptibility,
    half_width: int = 6,
    kset: Iterable[int] = KSET_BUSINESS_CYCLES,
) -> StimulusSeries:
    """Invert the reduced linear response on the residual mode fluctuations.

    (eta1, eta2)(t) = chi^-1 (  <a1>, <a2> )(t) with <a_n> the smoothed mode
    series minus its long-period component; the system is assumed to respond
    to the fields instantaneously.
    """
    if chi.values.shape != (2, 2):
        raise SchemaError("stimulus inversion uses exactly the two leading modes")
    det = abs(float(np.linalg.det(chi.values)))
    if det <= 1e-12 * float(np.sum(chi.values**2)):
        raise BadParameter(f"determinant {det:.3e} too small")
    # read once, so a one-shot iterable serves both modes
    resid = _mode_residuals(ms, half_width, tuple(kset))
    return StimulusSeries(months=ms.months, values=np.linalg.solve(chi.values, resid))


# ---------------------------------------------------------------------------
# phase tables
# ---------------------------------------------------------------------------


def _wrap_degrees(d: np.ndarray) -> np.ndarray:
    out = (np.asarray(d, dtype=float) + 180.0) % 360.0 - 180.0
    return np.where(out == -180.0, 180.0, out)


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Per-series oscillation phases in degrees, relative to a reference series.

    Values lie in (-180, 180]; positive means the series peaks earlier than
    the reference.  The reference entry is exactly zero.  ``phases`` is
    read-only, one entry per series of a 3 x G layout (else SchemaError);
    ``n_goods`` is derived from their number M = 3G.  The reference series
    and the frequency set are the caller's arguments, not kept here;
    ``period_label`` is what the ``phases`` command prints.
    """

    phases: np.ndarray
    period_label: str

    def __post_init__(self):
        object.__setattr__(self, "phases", _layout_entries(self.phases, "phase"))

    @property
    def n_goods(self) -> int:
        return _goods(self.phases.size)

    def phase(self, sid: SeriesId) -> float:
        return float(self.phases[_row(sid, self.phases.size)])

    def class_average(self, alpha: Variable | int) -> float:
        """Arithmetic mean phase over goods for one variable class."""
        return float(self.phases[_class_rows(alpha, self.phases.size)].mean())

    def to_csv(self, target: str | Path | TextIO) -> None:
        """Goods rows with P/S/I columns, one decimal, plus a class-average row."""
        by_class = self.phases.reshape(3, self.n_goods).tolist()
        write_rows(target, [
            ("goods", "P", "S", "I"),
            *([g] + [f"{p:.1f}" for p in row] for g, row in enumerate(zip(*by_class), 1)),
            ["average"] + [f"{self.class_average(a):.1f}" for a in (1, 2, 3)],
        ])


def _two_mode_amplitudes(ms: ModeSeries, basis: ModeBasis, ks: list[int]) -> np.ndarray:
    """Complex amplitude of each series at each frequency of ks in the two-mode picture (M x K)."""
    if ms.coeffs.shape[0] < 2 or basis.m < 2:
        raise SchemaError("need the two leading modes")
    bins = np.stack([dft(a)[ks] for a in ms.coeffs[:2]])
    return basis.vectors[:, :2] @ bins


def mode_phases(
    ms: ModeSeries, basis: ModeBasis, k: int, ref: SeriesId
) -> PhaseTable:
    """Phases of every series at one frequency, relative to the reference.

    The two-mode reconstruction fixes each series' complex amplitude at w_k;
    the table lists wrap(arg ref - arg series) in degrees, so a positive
    entry peaks ahead of the reference.
    """
    ref_idx = _row(ref, basis.m)
    n = ms.coeffs.shape[1]
    amp = _two_mode_amplitudes(ms, basis, _check_kset([k], n))[:, 0]
    if np.abs(amp[ref_idx]) < 1e-12:
        raise BadParameter(f"reference {ref.label} has no amplitude at k={k}")
    rel = _wrap_degrees(np.degrees(np.angle(amp[ref_idx]) - np.angle(amp)))
    rel[ref_idx] = 0.0
    return PhaseTable(phases=rel, period_label=f"T={round((n + 1) / k)}")


def freq_avg_phases(
    ms: ModeSeries,
    basis: ModeBasis,
    kset: Iterable[int] = KSET_LONG_PERIODS,
    ref: SeriesId | None = None,
) -> PhaseTable:
    """Amplitude-weighted circular mean of the relative phases over kset.

    Each frequency contributes its relative phase weighted by the series'
    squared amplitude there; a series with no spectral weight anywhere in
    the band has no defined phase and raises DegenerateWeights.
    """
    if ref is None:
        ref = SeriesId(Variable.PRODUCTION, 20)
    ref_idx = _row(ref, basis.m)
    n = ms.coeffs.shape[1]
    ks = _check_kset(kset, n)
    amp = _two_mode_amplitudes(ms, basis, ks)
    weight = np.abs(amp) ** 2
    rel = np.angle(amp[ref_idx]) - np.angle(amp)
    resultant = np.sum(weight * np.exp(1j * rel), axis=1)
    degenerate = np.flatnonzero(weight.sum(axis=1) < 1e-12)
    if degenerate.size:
        raise DegenerateWeights(int(degenerate[0]) + 1)
    phases = _wrap_degrees(np.degrees(np.angle(resultant)))
    phases[ref_idx] = 0.0
    return PhaseTable(phases=phases, period_label="frequency-averaged")
