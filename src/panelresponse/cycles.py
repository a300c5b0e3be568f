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
from .panel import (
    SeriesId, Variable, _class_rows, _freeze, _goods, _integer, _layout_entries, _row, _series,
    _series_by_month, _series_ids,
)
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
    arr = _series(x)
    n, half_width = arr.size, _integer("half-width", half_width)
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
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray, lag: int
) -> float:
    """Normalized lagged correlation <x(t) y(t - lag)>_t.

    The lagged product is averaged over the N' - |lag| overlapping months
    and divided by each series' full-sample root mean square, so by
    Cauchy-Schwarz |value| <= N' / (N' - |lag|), reached when both series
    vanish off the overlap.  The bound is 1 only at lag 0; at N' = 20 and
    lag -18 it is 10.  Smooth the series with :func:`moving_average` first
    to correlate their cycles.
    """
    xs, ys = _series(x), _series(y)
    if xs.size != ys.size:
        raise SchemaError("series lengths differ")
    n, lag = xs.size, _integer("lag", lag)
    if n - abs(lag) < 2:
        raise BadParameter(f"overlap for lag {lag} shorter than 2 points")
    if lag >= 0:
        num = float(np.mean(xs[lag:] * ys[: n - lag]))
    else:
        num = float(np.mean(xs[: n + lag] * ys[-lag:]))
    den = float(np.sqrt(np.mean(xs**2) * np.mean(ys**2)))
    if den == 0.0:
        raise BadParameter("a series vanishes identically")
    return num / den


# ---------------------------------------------------------------------------
# Fourier decomposition
# ---------------------------------------------------------------------------


def dft(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coefficients (1/sqrt(N')) sum_j x(t_j) e^{+i w_k t_j}, t_j = j months, k = 0 .. N'-1."""
    arr = _series(x)
    n = arr.size
    if n < 2:
        raise SchemaError(f"need at least 2 points, got {n}")
    k = np.arange(n)
    # t_j = j with j = 1..N', so the array origin carries one extra phase step
    phase = np.exp(2j * np.pi * k / n)
    return np.sqrt(n) * phase * np.fft.ifft(arr)


def inverse_dft(coeffs: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Reconstruct x(t_j) = (1/sqrt(N')) sum_k coeffs_k e^{-i w_k t_j}."""
    c = _series(coeffs, complex)
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
    ks = sorted({_integer("frequency index", k) for k in kset})
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
    arr = _series(x)
    n = arr.size
    ks = _check_kset(kset, n)
    keep = np.concatenate([ks, n - np.array(ks)])
    masked = np.zeros(n, dtype=complex)
    masked[keep] = dft(arr)[keep]
    return inverse_dft(masked)


# ---------------------------------------------------------------------------
# residual disturbance and external stimuli
# ---------------------------------------------------------------------------


def _two_modes(ms: ModeSeries, basis: ModeBasis | None = None) -> np.ndarray:
    """The two leading mode series (2 x N'), once ms and any basis hold two modes."""
    if ms.coeffs.shape[0] < 2 or (basis is not None and basis.m < 2):
        raise SchemaError("need the two leading modes")
    return ms.coeffs[:2]


def _residuals(pair: np.ndarray, half_width: int, kset: Iterable[int]) -> np.ndarray:
    """Smoothed-minus-long-period residual of each mode series of pair (2 x N')."""
    ks = tuple(kset)  # read once, so a one-shot iterable serves both modes
    return np.stack([moving_average(a, half_width) - long_period(a, ks) for a in pair])


def residual_disturbance(
    ms: ModeSeries, basis: ModeBasis, half_width: int, kset: Iterable[int]
) -> np.ndarray:
    """Per-series residual fluctuation <w_l(t)> beyond the inherent cycles.

    Combines the two leading modes: smoothed coefficients minus their
    long-period components, mapped back through the eigenvectors (M x N').
    """
    return basis.vectors[:, :2] @ _residuals(_two_modes(ms, basis), half_width, kset)


@dataclass(frozen=True, eq=False)
class StimulusSeries:
    """Inferred external fields acting on the two leading modes, in units of 1/beta.

    Only the series are kept: the smoothing half-width and the frequency set
    are the caller's arguments, not kept here.
    """

    months: np.ndarray
    values: np.ndarray  # 2 x N'

    def __post_init__(self):
        months, values = _series_by_month(self.months, self.values, "stimulus values")
        if values.shape[0] != 2:
            raise SchemaError(f"stimulus values need 2 rows (eta1, eta2), got {values.shape[0]}")
        object.__setattr__(self, "months", _freeze(months))
        object.__setattr__(self, "values", _freeze(values))

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
    ms: ModeSeries, chi: np.ndarray, half_width: int, kset: Iterable[int]
) -> StimulusSeries:
    """Invert the reduced linear response on the residual mode fluctuations.

    (eta1, eta2)(t) = chi^-1 (  <a1>, <a2> )(t) with <a_n> the smoothed mode
    series minus its long-period component; the system is assumed to respond
    to the fields instantaneously.  ``chi`` is the 2 x 2 array
    :func:`~panelresponse.response.reduced_susceptibility` returns for k = 2
    (another shape is a SchemaError); a singular one, judged at chi's own
    scale, or one whose stimuli leave the float range is a BadParameter.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (2, 2):
        raise SchemaError("stimulus inversion uses exactly the two leading modes")
    tiny = np.finfo(float).tiny
    scale = float(np.abs(chi).max())
    # det and the sum of squares both scale as chi^2, so test chi / scale, which neither
    # overflows nor underflows at any scale a caller fills chi with
    unit = chi / max(scale, tiny)
    det = abs(float(np.linalg.det(unit)))
    if not det > 1e-12 * float(np.sum(unit**2)):
        raise BadParameter(f"determinant {det:.3e} too small")
    eta = np.linalg.solve(chi, _residuals(_two_modes(ms), half_width, kset))
    if not np.isfinite(eta).all() or ((eta != 0) & (np.abs(eta) < tiny)).any():
        raise BadParameter(f"stimuli leave the float range at chi scale {scale:.3e}")
    return StimulusSeries(months=ms.months, values=eta)


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
    and the frequency set are the caller's arguments, not kept here.
    """

    phases: np.ndarray

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


def freq_avg_phases(
    ms: ModeSeries, basis: ModeBasis, kset: Iterable[int], ref: SeriesId
) -> PhaseTable:
    """Amplitude-weighted circular mean of the relative phases over kset.

    The two-mode reconstruction fixes each series' complex amplitude at
    every w_k of kset; each frequency contributes wrap(arg ref - arg series),
    weighted by the series' squared amplitude there, so a positive entry
    peaks ahead of the reference.  A one-tone table is the one-bin set
    ``[k]``.  A series with no spectral weight anywhere in the band, the
    reference included, has no defined phase and raises DegenerateWeights.
    """
    ref_idx = _row(ref, basis.m)
    ks = _check_kset(kset, ms.coeffs.shape[1])
    bins = np.stack([dft(a)[ks] for a in _two_modes(ms, basis)])
    amp = basis.vectors[:, :2] @ bins
    weight = np.abs(amp) ** 2
    rel = np.angle(amp[ref_idx]) - np.angle(amp)
    resultant = np.sum(weight * np.exp(1j * rel), axis=1)
    degenerate = np.flatnonzero(weight.sum(axis=1) < 1e-12)
    if degenerate.size:
        raise DegenerateWeights(_series_ids(basis.m)[degenerate[0]].label)
    phases = _wrap_degrees(np.degrees(np.angle(resultant)))
    phases[ref_idx] = 0.0
    return PhaseTable(phases=phases)
