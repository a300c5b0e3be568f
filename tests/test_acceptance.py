"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 1-10 run on synthetic data and are the binding gate; the
criterion-11 checks need the real monthly industrial panel (its headline
numbers are tied to that dataset) and are skipped unless IIP_PANEL_CSV
points at it.  A per-criterion pass/fail summary is printed at the end of
the pytest run (see conftest).
"""

import numpy as np
import pytest

from panelresponse import (
    KSET_BUSINESS_CYCLES,
    SeriesId,
    StandardizedPanel,
    Variable,
    complete_shuffle,
    correlation_matrix,
    default_mode_count,
    dft,
    eigendecompose,
    external_stimuli,
    freq_avg_phases,
    genuine_matrix,
    inverse_dft,
    lag_correlation,
    load_panel,
    log_growth,
    long_period,
    mode_series,
    moving_average,
    mp_bounds,
    null_ensemble,
    reduced_susceptibility,
    residual_disturbance,
    ripple,
    rotational_shuffle,
    standardize,
    synth,
)
from panelresponse.spectral import CorrMatrix

from oracles import MpReference, gaussian_regression_slope, ks_distance


def cyclic_acf_all_lags(values: np.ndarray) -> np.ndarray:
    """Cyclic autocorrelation of every row at every lag, via the FFT identity."""
    spec = np.abs(np.fft.fft(values, axis=1)) ** 2
    return np.real(np.fft.ifft(spec, axis=1)) / values.shape[1]


def lag_one(values: np.ndarray) -> np.ndarray:
    n = values.shape[1]
    return (values[:, :-1] * values[:, 1:]).sum(axis=1) / (n - 1)


# ---------------------------------------------------------------------------
# criterion 1: Marchenko-Pastur bounds at the panel aspect ratio
# ---------------------------------------------------------------------------


def test_c01_mp_bounds():
    lo, hi = mp_bounds(239 / 63)
    assert lo == pytest.approx(0.2365, abs=1e-3)
    assert hi == pytest.approx(2.2914, abs=1e-3)


# ---------------------------------------------------------------------------
# criterion 2: complete-shuffle ensemble converges to the MP density
# ---------------------------------------------------------------------------


def test_c02_null_model_convergence(iid_panel):
    ensemble = null_ensemble(iid_panel, "complete", 1000, seed=42)
    ref = MpReference(iid_panel.n_obs / iid_panel.n_series)
    assert ks_distance(ensemble.pooled.ravel(), ref.cdf) <= 0.05


# ---------------------------------------------------------------------------
# criterion 3: shuffle invariants (cyclic preservation vs decorrelation)
# ---------------------------------------------------------------------------


def test_c03_rotational_preserves_cyclic_autocorrelation(ar1_panel):
    rng = np.random.default_rng(7)
    shuffled = rotational_shuffle(ar1_panel, rng)
    before = cyclic_acf_all_lags(ar1_panel.values)
    after = cyclic_acf_all_lags(shuffled.values)
    assert np.abs(before - after).max() <= 1e-12
    for i in range(ar1_panel.n_series):
        assert np.array_equal(
            np.sort(shuffled.values[i]), np.sort(ar1_panel.values[i])
        )


def test_c03_complete_kills_lag_one_rotational_keeps_it(ar1_panel):
    rng = np.random.default_rng(8)
    orig = lag_one(ar1_panel.values).mean()
    complete_means = []
    rotational_means = []
    for _ in range(100):
        complete_means.append(lag_one(complete_shuffle(ar1_panel, rng).values).mean())
        rotational_means.append(lag_one(rotational_shuffle(ar1_panel, rng).values).mean())
    assert abs(np.mean(complete_means)) < 0.05
    assert abs(np.mean(rotational_means) - orig) < 0.05


# ---------------------------------------------------------------------------
# criterion 4: rotational edge exceeds complete edge on autocorrelated data
# ---------------------------------------------------------------------------


def test_c04_directional_null_separation(ar1_panel):
    complete = null_ensemble(ar1_panel, "complete", 1000, seed=1, keep_pooled=False)
    rotational = null_ensemble(ar1_panel, "rotational", 1000, seed=2, keep_pooled=False)
    assert rotational.edge.center > complete.edge.center


# ---------------------------------------------------------------------------
# criterion 5: spectral identities on every panel
# ---------------------------------------------------------------------------


def test_c05_spectral_identities(iid_panel, ar1_panel, planted_panel):
    rng = np.random.default_rng(55)
    small = rng.standard_normal((9, 80))
    small = (small - small.mean(1, keepdims=True)) / small.std(1, keepdims=True)
    panels = [iid_panel, ar1_panel, planted_panel, StandardizedPanel.from_values(small)]
    for w in panels:
        basis = eigendecompose(correlation_matrix(w))
        m = w.n_series
        assert abs(basis.eigenvalues.sum() - m) <= 1e-8
        assert np.abs(basis.vectors.T @ basis.vectors - np.eye(m)).max() <= 1e-10
        ms = mode_series(w, basis)
        strength = ms.coeffs @ ms.coeffs.T / w.n_obs
        assert np.abs(strength - np.diag(basis.eigenvalues)).max() <= 1e-8


# ---------------------------------------------------------------------------
# criterion 6: noise-filtered matrix limits
# ---------------------------------------------------------------------------


def test_c06_genuine_matrix_limits(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    assert np.array_equal(genuine_matrix(basis, 0).values, np.eye(basis.m))
    assert np.abs(genuine_matrix(basis, basis.m).values - c.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# criterion 7: ripple relation = Gaussian conditional expectation
# ---------------------------------------------------------------------------


def test_c07_linear_response_oracle():
    matrices = [
        np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
        np.array([[1.0, -0.4, 0.6], [-0.4, 1.0, -0.1], [0.6, -0.1, 1.0]]),
    ]
    rng = np.random.default_rng(77)
    for corr in matrices:
        cg = CorrMatrix(values=corr)
        responses = ripple(cg, SeriesId(Variable.PRODUCTION, 1))
        for target in (1, 2):
            slope = gaussian_regression_slope(corr, 0, target, 1_000_000, rng)
            assert abs(responses[target] - slope) <= 0.01


# ---------------------------------------------------------------------------
# criterion 8: reduced susceptibility identity on the raw matrix
# ---------------------------------------------------------------------------


def test_c08_reduced_susceptibility_identity(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    chi = reduced_susceptibility(c, basis, k=2)
    assert np.abs(chi - np.diag(basis.eigenvalues[:2])).max() <= 1e-10


# ---------------------------------------------------------------------------
# criterion 9: planted-mode recovery above twice the MP edge
# ---------------------------------------------------------------------------


def test_c09_planted_mode_recovery():
    _, hi = mp_bounds(239 / 63)
    target = 2.0 * hi
    overlaps = []
    for seed in range(20):
        rng = np.random.default_rng(40_000 + seed)
        loading = rng.standard_normal(63)
        loading /= np.linalg.norm(loading)
        w = synth.generate(synth.SynthSpec(
            n_series=63,
            n_obs=239,
            modes=(synth.PlantedMode(eigenvalue=target, driver=synth.Ar1(0.0),
                                     loading=loading),),
            seed=seed,
        ))
        basis = eigendecompose(correlation_matrix(w))
        overlaps.append(abs(loading @ basis.vectors[:, 0]))
    assert np.mean(overlaps) >= 0.9


# ---------------------------------------------------------------------------
# criterion 10: Fourier suite
# ---------------------------------------------------------------------------


def test_c10_fourier_suite():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(239)
    sc = dft(x)
    assert np.abs(inverse_dft(sc) - x).max() <= 1e-10
    energy = float(np.sum(x**2))
    assert abs(float(np.sum(np.abs(sc) ** 2)) - energy) <= 1e-8 * energy

    n = 240
    t = np.arange(1, n + 1)
    in_band = np.cos(2 * np.pi * 4 * t / n)
    assert np.abs(long_period(in_band, KSET_BUSINESS_CYCLES) - in_band).max() <= 1e-10
    out_band = np.cos(2 * np.pi * 50 * t / n)
    assert np.abs(long_period(out_band, KSET_BUSINESS_CYCLES)).max() <= 1e-10

    # band-limited two-mode panel: zero residual disturbance at xi = 0
    w1 = np.sqrt(2.0) * np.cos(2 * np.pi * 4 * t / n)
    w2 = np.sqrt(2.0) * np.cos(2 * np.pi * 6 * t / n + 0.7)
    w3 = (w1 + w2) / np.sqrt(2.0)
    w = StandardizedPanel.from_values(np.vstack([w1, w2, w3]))
    basis = eigendecompose(correlation_matrix(w))
    ms = mode_series(w, basis)
    resid = residual_disturbance(ms, basis, half_width=0, kset=KSET_BUSINESS_CYCLES)
    assert np.abs(resid).max() <= 1e-10


# ---------------------------------------------------------------------------
# criterion 11 (dataset-dependent; skipped unless IIP_PANEL_CSV is set)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_pipeline(request):
    import os

    path = os.environ.get("IIP_PANEL_CSV", "")
    if not path or not os.path.exists(path):
        pytest.skip("real IIP panel not available (set IIP_PANEL_CSV to enable)")
    panel = load_panel(path, window=("1988-01", "2007-12"))
    w = standardize(log_growth(panel))
    basis = eigendecompose(correlation_matrix(w))
    return panel, w, basis


def test_c11_top_eigenvalues(real_pipeline):
    _, _, basis = real_pipeline
    assert basis.eigenvalues[0] == pytest.approx(9.95, rel=0.01)
    assert basis.eigenvalues[1] == pytest.approx(3.83, rel=0.01)
    assert basis.eigenvalues[2] == pytest.approx(2.77, rel=0.01)


def test_c11_two_significant_modes(real_pipeline):
    _, w, basis = real_pipeline
    ensemble = null_ensemble(w, "rotational", 2000, seed=0, keep_pooled=False)
    assert default_mode_count(basis, ensemble) == 2


def test_c11_reduced_chi_values(real_pipeline):
    _, _, basis = real_pipeline
    cg = genuine_matrix(basis, 2)
    chi = reduced_susceptibility(cg, basis, k=2)
    norm = chi / chi[0, 0]
    assert norm[0, 0] == 1.0
    assert norm[0, 1] == pytest.approx(1.30e-3, rel=0.05)
    assert norm[1, 1] == pytest.approx(0.433, rel=0.05)


def test_c11_mode_lag_correlation_peak(real_pipeline):
    _, w, basis = real_pipeline
    ms = mode_series(w, basis)
    lags = np.arange(0, 37)
    a1, a2 = moving_average(ms.coeffs[0], 6), moving_average(ms.coeffs[1], 6)
    curve = [lag_correlation(a1, a2, int(t)) for t in lags]
    peak = int(np.argmax(curve))
    assert abs(lags[peak] - 10) <= 2
    assert curve[peak] == pytest.approx(0.7, abs=0.05)


def test_c11_shipments_phase_at_t60(real_pipeline):
    _, w, basis = real_pipeline
    ms = mode_series(w, basis)
    table = freq_avg_phases(ms, basis, [4], ref=SeriesId(Variable.PRODUCTION, 20))
    assert table.class_average(Variable.SHIPMENTS) == pytest.approx(25.2, abs=2.0)


def test_c11_stimulus_levels_in_normal_period(real_pipeline):
    _, w, basis = real_pipeline
    ms = mode_series(w, basis)
    cg = genuine_matrix(basis, 2)
    chi = reduced_susceptibility(cg, basis, k=2)
    s = external_stimuli(ms, chi, half_width=6, kset=KSET_BUSINESS_CYCLES)
    normal = s.months <= np.datetime64("2007-12", "M")
    assert np.abs(s.eta1[normal]).max() == pytest.approx(0.1, rel=0.2)
    assert np.abs(s.eta2[normal]).max() == pytest.approx(0.2, rel=0.2)
