"""Noise-filtered correlation and linear-response analysis of monthly index panels.

The package takes monthly multivariate index panels (production, shipments,
inventory per goods category), separates genuine mutual correlations from
finite-sample noise with random-matrix and rotational-shuffling null models,
and answers linear-response questions (ripple effects, reduced
susceptibilities, external stimuli, business-cycle phases) under the
fluctuation-dissipation ansatz.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cycles import (
    KSET_BUSINESS_CYCLES,
    KSET_LONG_PERIODS,
    PhaseTable,
    StimulusSeries,
    dft,
    external_stimuli,
    freq_avg_phases,
    inverse_dft,
    lag_correlation,
    long_period,
    moving_average,
    residual_disturbance,
)
from .errors import PanelResponseError
from .genuine import default_mode_count, genuine_matrix
from .nullmodel import (
    EdgeEstimate,
    NullEnsemble,
    autocorrelations,
    complete_shuffle,
    cyclic_autocorrelation,
    no_autocorr_band,
    null_ensemble,
    rotational_shuffle,
    upper_edge,
)
from .panel import (
    DEFAULT_GOODS_LABELS,
    GrowthPanel,
    Panel,
    SeriesId,
    StandardizedPanel,
    Variable,
    canonical_ids,
    load_panel,
    log_growth,
    parse_month,
    parse_window,
    simple_growth,
    standardize,
    write_panel_csv,
)
from .response import (
    final_to_intermediate,
    final_to_intermediate_csv,
    reduced_susceptibility,
    ripple,
)
from .spectral import (
    CorrMatrix,
    ModeBasis,
    ModeSeries,
    corr_from_csv,
    corr_from_json,
    corr_to_csv,
    correlation_matrix,
    eigendecompose,
    mode_series,
    mp_bounds,
    mp_density,
    reconstruct,
)
from .synth import (
    Ar1,
    PlantedMode,
    Sinusoid,
    SynthSpec,
    generate,
    spec_from_json,
    spec_to_json,
    to_level_panel,
)

__all__ = [
    "__version__",
    # panel
    "Variable", "SeriesId", "Panel", "GrowthPanel", "StandardizedPanel",
    "DEFAULT_GOODS_LABELS", "canonical_ids", "load_panel", "write_panel_csv",
    "log_growth", "simple_growth", "standardize", "parse_month", "parse_window",
    # spectral
    "CorrMatrix", "ModeBasis", "ModeSeries", "correlation_matrix",
    "eigendecompose", "mode_series", "reconstruct", "mp_bounds", "mp_density",
    "corr_to_csv", "corr_from_csv", "corr_from_json",
    # nullmodel
    "NullEnsemble", "EdgeEstimate", "autocorrelations", "cyclic_autocorrelation",
    "no_autocorr_band", "complete_shuffle", "rotational_shuffle", "null_ensemble",
    "upper_edge",
    # genuine
    "genuine_matrix", "default_mode_count",
    # response
    "ripple", "final_to_intermediate", "final_to_intermediate_csv",
    "reduced_susceptibility",
    # cycles
    "KSET_BUSINESS_CYCLES", "KSET_LONG_PERIODS", "PhaseTable",
    "StimulusSeries", "moving_average", "lag_correlation", "dft",
    "inverse_dft", "long_period", "residual_disturbance", "external_stimuli",
    "freq_avg_phases",
    # synth
    "SynthSpec", "PlantedMode", "Sinusoid", "Ar1", "generate",
    "to_level_panel", "spec_to_json", "spec_from_json",
    # errors
    "PanelResponseError",
]
