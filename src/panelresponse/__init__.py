"""Noise-filtered correlation and linear-response analysis of monthly index panels.

The package takes monthly multivariate index panels (production, shipments,
inventory per goods category), separates genuine mutual correlations from
finite-sample noise with random-matrix and rotational-shuffling null models,
and answers linear-response questions (ripple effects, reduced
susceptibilities, external stimuli, business-cycle phases) under the
fluctuation-dissipation ansatz.

Importing the package loads none of its submodules, numpy included: each
public name is imported from its submodule on first use (PEP 562).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: The thread-count variables of the BLAS libraries numpy may load, each read
#: once, when its library loads.  The command line's entry point sets them and
#: its manifest records them; the library sets none of them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Every public name, under the submodule that defines it
_EXPORTS = {
    "panel": (
        "Variable", "SeriesId", "Panel", "GrowthPanel", "StandardizedPanel",
        "DEFAULT_GOODS_LABELS", "canonical_ids", "load_panel", "write_panel_csv",
        "log_growth", "simple_growth", "standardize", "parse_month", "parse_window",
    ),
    "spectral": (
        "CorrMatrix", "ModeBasis", "ModeSeries", "correlation_matrix",
        "eigendecompose", "mode_series", "reconstruct", "mp_bounds", "mp_density",
        "corr_to_csv", "corr_from_csv", "corr_from_json",
    ),
    "nullmodel": (
        "NullEnsemble", "EdgeEstimate", "autocorrelations", "cyclic_autocorrelation",
        "no_autocorr_band", "complete_shuffle", "rotational_shuffle", "null_ensemble",
        "upper_edge",
    ),
    "genuine": ("genuine_matrix", "default_mode_count"),
    "response": ("ripple", "final_to_intermediate", "reduced_susceptibility"),
    "cycles": (
        "KSET_BUSINESS_CYCLES", "KSET_LONG_PERIODS", "moving_average",
        "lag_correlation", "dft", "inverse_dft", "long_period",
        "residual_disturbance", "external_stimuli", "freq_avg_phases",
    ),
    "synth": (
        "SynthSpec", "PlantedMode", "Sinusoid", "Ar1", "generate",
        "to_level_panel", "spec_to_json", "spec_from_json",
    ),
    "errors": ("PanelResponseError",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
