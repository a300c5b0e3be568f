"""Synthetic standardized panels with planted modes and tunable autocorrelation.

These generators provide a controlled testbed for the whole pipeline: panels
of pure AR(1) noise reproduce the Marchenko-Pastur spectrum (and, with a
nonzero coefficient, the gap between complete and rotational null edges),
while planted orthonormal loading vectors with target eigenvalues let
recovery of known structure be checked end to end.

Each mode contributes c_n(t) U^(n) with a sinusoid or AR(1) driver scaled so
the mode's population eigenvalue approximates the target; independent AR(1)
noise fills each series' remaining unit variance.  The panel is
re-standardized after generation, so targets are approximate by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO, Union

import numpy as np

from ._files import json_fields, read_json, write_json
from .errors import BadParameter, SchemaError
from .panel import (
    GrowthPanel,
    Panel,
    StandardizedPanel,
    _freeze,
    _frozen,
    parse_month,
    standardize,
)

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Sinusoid:
    """Deterministic driver sin(2 pi t / period + phase), unit variance."""

    period: float
    phase: float = 0.0


@dataclass(frozen=True)
class Ar1:
    """Stationary AR(1) driver with unit marginal variance."""

    coefficient: float

    def __post_init__(self):
        if not -1.0 < self.coefficient < 1.0:
            raise BadParameter(f"AR(1) coefficient {self.coefficient} outside (-1, 1)")


Driver = Union[Sinusoid, Ar1]


@dataclass(frozen=True)
class PlantedMode:
    """One planted correlation mode: loading direction, strength, dynamics.

    ``loading`` is a unit vector (or None to draw a random direction,
    orthonormalized against the other modes at generation time);
    ``eigenvalue`` is the target population eigenvalue of the mode.
    """

    eigenvalue: float
    driver: Driver
    loading: np.ndarray | None = None

    def __post_init__(self):
        if self.loading is not None:
            object.__setattr__(self, "loading", _freeze(np.asarray(self.loading)))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic standardized panel."""

    n_series: int
    n_obs: int
    modes: tuple[PlantedMode, ...] = ()
    noise_ar1: float | Sequence[float] | None = 0.0
    seed: int = 0
    start: str = "1988-01"

    def __post_init__(self):
        if self.n_series < 1 or self.n_obs < 2:
            raise BadParameter("panel must have at least 1 series and 2 months")
        if self.seed < 0:
            raise BadParameter(f"seed must be >= 0, got {self.seed}")
        if sum(m.eigenvalue for m in self.modes) > self.n_series + 1e-9:
            raise BadParameter("planted eigenvalues exceed the trace budget M")
        for m in self.modes:
            if m.loading is not None and m.loading.shape != (self.n_series,):
                raise SchemaError("loading length differs from series count")
        if self.noise_ar1 is not None and not np.isscalar(self.noise_ar1):
            if len(self.noise_ar1) != self.n_series:  # type: ignore[arg-type]
                raise SchemaError("per-series noise coefficients differ from M")
        object.__setattr__(self, "modes", tuple(self.modes))


def _noise_coeffs(spec: SynthSpec) -> np.ndarray | None:
    if spec.noise_ar1 is None:
        return None
    phi = np.broadcast_to(np.asarray(spec.noise_ar1, dtype=float), (spec.n_series,))
    if np.any(np.abs(phi) >= 1.0):
        raise BadParameter("noise AR(1) coefficients must lie in (-1, 1)")
    return np.array(phi)


def _ar1_rows(rng: np.random.Generator, phi: np.ndarray, n: int) -> np.ndarray:
    """Stationary unit-variance AR(1) rows, one per coefficient.

    x(t) = u(t) + phi x(t-1), run over all rows at once, column by column.
    """
    eps = rng.standard_normal((phi.size, n))
    u = eps * np.sqrt(1.0 - phi * phi)[:, np.newaxis]
    u[:, 0] = eps[:, 0]  # stationary start
    rows = np.empty_like(u)
    acc = np.zeros(phi.size)
    for t in range(n):
        acc = u[:, t] + phi * acc
        rows[:, t] = acc
    return rows


def _resolve_loadings(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Stack loading vectors (M x K), drawing and orthonormalizing random ones."""
    k = len(spec.modes)
    loadings = np.zeros((spec.n_series, k))
    random_cols = [i for i, m in enumerate(spec.modes) if m.loading is None]
    explicit_cols = [i for i, m in enumerate(spec.modes) if m.loading is not None]
    for i in explicit_cols:
        loadings[:, i] = spec.modes[i].loading
    if random_cols:
        draw = rng.standard_normal((spec.n_series, len(random_cols)))
        # remove components along the explicit loadings, then orthonormalize
        for i in explicit_cols:
            v = loadings[:, i]
            draw -= np.outer(v, v @ draw) / (v @ v)
        q, _ = np.linalg.qr(draw)
        for j, i in enumerate(random_cols):
            loadings[:, i] = q[:, j]
    gram = loadings.T @ loadings
    if np.abs(gram - np.eye(k)).max() > _ORTHO_TOL:
        raise BadParameter("planted loadings are not pairwise orthonormal")
    return loadings


def generate(spec: SynthSpec) -> StandardizedPanel:
    """Generate the panel described by the spec (deterministic given its seed).

    The generated series are standardized by :func:`standardize`.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.n_series, spec.n_obs
    phi = _noise_coeffs(spec)
    k = len(spec.modes)

    floor = 1.0 if phi is not None else 0.0
    scales = np.empty(k)
    for i, mode in enumerate(spec.modes):
        if mode.eigenvalue < floor:
            raise BadParameter(
                f"target eigenvalue {mode.eigenvalue} below the noise floor {floor}"
            )
        scales[i] = np.sqrt(mode.eigenvalue - floor)

    loadings = np.zeros((m, 0))
    mode_var = np.zeros(m)
    if k:
        has_random = any(mode.loading is None for mode in spec.modes)
        # a random draw can land too much of a strong mode on one series;
        # redraw (still driven by the spec seed) until the budget fits
        for attempt in range(100):
            loadings = _resolve_loadings(spec, rng)
            mode_var = (loadings**2 * scales**2).sum(axis=1)
            if np.all(mode_var <= 1.0 + 1e-9) or phi is None:
                break
            if not has_random:
                break
        if phi is not None and np.any(mode_var > 1.0 + 1e-9):
            worst = int(np.argmax(mode_var))
            raise BadParameter(
                f"mode variance {mode_var[worst]:.3f} exceeds 1 for series {worst + 1}"
            )

    drivers = np.empty((k, n))
    t = np.arange(1, n + 1, dtype=float)
    for i, mode in enumerate(spec.modes):
        if isinstance(mode.driver, Sinusoid):
            drivers[i] = np.sqrt(2.0) * np.sin(
                2.0 * np.pi * t / mode.driver.period + mode.driver.phase
            )
        else:
            drivers[i] = _ar1_rows(rng, np.array([mode.driver.coefficient]), n)[0]

    values = (loadings * scales) @ drivers if k else np.zeros((m, n))
    if phi is not None:
        sigma = np.sqrt(np.clip(1.0 - mode_var, 0.0, None))
        values = values + sigma[:, None] * _ar1_rows(rng, phi, n)

    months = parse_month(spec.start) + np.arange(n)
    return standardize(GrowthPanel(months=months, rates=_frozen(values)))


#: First level and log10 step per unit of standardized growth of :func:`to_level_panel`.
_BASE_LEVEL = 100.0
_LOG_STEP = 0.01


def to_level_panel(w: StandardizedPanel) -> Panel:
    """Integrate a standardized panel into positive monthly index levels.

    Levels start at 100 and follow S(t_{j+1}) = S(t_j) 10^(0.01 w), so
    loading the result and taking log growth rates recovers the panel
    exactly up to standardization (which removes the affine scale).
    """
    if w.n_goods is None:
        raise SchemaError("panel series count is not 3 x G; cannot tag series")
    m, n = w.values.shape
    levels = np.empty((m, n + 1))
    levels[:, 0] = _BASE_LEVEL
    levels[:, 1:] = _BASE_LEVEL * np.power(10.0, _LOG_STEP * np.cumsum(w.values, axis=1))
    months = np.concatenate([w.months, [w.months[-1] + 1]])
    return Panel(months=months, values=_frozen(levels))


# ---------------------------------------------------------------------------
# config-file form
# ---------------------------------------------------------------------------


def spec_to_json(spec: SynthSpec, target: str | Path | TextIO | None = None) -> dict:
    modes = []
    for mode in spec.modes:
        if isinstance(mode.driver, Sinusoid):
            driver = {"kind": "sinusoid", "period": mode.driver.period,
                      "phase": mode.driver.phase}
        else:
            driver = {"kind": "ar1", "coefficient": mode.driver.coefficient}
        modes.append({
            "eigenvalue": mode.eigenvalue,
            "driver": driver,
            "loading": "random" if mode.loading is None else mode.loading.tolist(),
        })
    noise = spec.noise_ar1
    if noise is not None and not np.isscalar(noise):
        noise = list(np.asarray(noise, dtype=float))
    doc = {
        "n_series": spec.n_series,
        "n_obs": spec.n_obs,
        "seed": spec.seed,
        "start": spec.start,
        "noise_ar1": noise,
        "modes": modes,
    }
    if target is not None:
        write_json(target, doc, indent=2)
    return doc


def spec_from_json(source: str | Path | TextIO | dict) -> SynthSpec:
    """Spec from a JSON document.

    Unreadable JSON, a missing or wrong-typed field and an unknown driver kind
    raise SchemaError; a value the spec refuses raises BadParameter.
    """
    with json_fields("spec"):
        return _spec_from_doc(read_json(source))


def _field(value, key: str, kind: type | tuple = (int, float)):
    """A spec field's value, checked to be a JSON number, integer or string (kind)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {int: "an integer", str: "a string"}.get(kind, "a number")
        raise SchemaError(f"spec field {key!r} must be {what}, got {value!r}")
    return value


def _spec_from_doc(doc: dict) -> SynthSpec:
    modes = []
    for entry in doc.get("modes", []):
        dspec = entry["driver"]
        if dspec["kind"] == "sinusoid":
            driver: Driver = Sinusoid(
                period=_field(dspec["period"], "period"),
                phase=_field(dspec.get("phase", 0.0), "phase"),
            )
        elif dspec["kind"] == "ar1":
            driver = Ar1(coefficient=_field(dspec["coefficient"], "coefficient"))
        else:
            raise SchemaError(f"unknown driver kind {dspec['kind']!r}")
        loading = entry.get("loading", "random")
        modes.append(PlantedMode(
            eigenvalue=_field(entry["eigenvalue"], "eigenvalue"),
            driver=driver,
            loading=None if loading == "random" else np.asarray(loading, dtype=float),
        ))
    noise = doc.get("noise_ar1", 0.0)
    for value in [] if noise is None else noise if isinstance(noise, list) else [noise]:
        _field(value, "noise_ar1")
    return SynthSpec(
        n_series=_field(doc["n_series"], "n_series", int),
        n_obs=_field(doc["n_obs"], "n_obs", int),
        modes=tuple(modes),
        noise_ar1=noise,
        seed=_field(doc.get("seed", 0), "seed", int),
        start=_field(doc.get("start", "1988-01"), "start", str),
    )
