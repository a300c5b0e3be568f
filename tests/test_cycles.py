import io
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelresponse import (
    KSET_BUSINESS_CYCLES,
    KSET_LONG_PERIODS,
    ModeBasis,
    ModeSeries,
    SeriesId,
    StandardizedPanel,
    StimulusSeries,
    Variable,
    autocorrelations,
    correlation_matrix,
    cyclic_autocorrelation,
    dft,
    eigendecompose,
    external_stimuli,
    freq_avg_phases,
    genuine_matrix,
    inverse_dft,
    lag_correlation,
    long_period,
    mode_series,
    moving_average,
    no_autocorr_band,
    reconstruct,
    reduced_susceptibility,
    residual_disturbance,
    ripple,
)
from panelresponse.errors import BadParameter, DegenerateWeights, SchemaError

from oracles import (
    brute_moving_average, circular_mean_degrees, direct_dft, smoothed_lag_correlation,
)

N = 240
T_INDEX = np.arange(1, N + 1, dtype=float)


def tone(k: int, delta_deg: float = 0.0, n: int = N) -> np.ndarray:
    """Unit-variance cosine at integer frequency bin k, phase shift in degrees."""
    t = np.arange(1, n + 1, dtype=float)
    return np.sqrt(2.0) * np.cos(2.0 * np.pi * k * t / n + np.radians(delta_deg))


def tone_panel(rows) -> StandardizedPanel:
    return StandardizedPanel.from_values(np.asarray(rows, dtype=float))


def rank2_pipeline(rows):
    w = tone_panel(rows)
    basis = eigendecompose(correlation_matrix(w))
    return w, basis, mode_series(w, basis)


# ---------------------------------------------------------------------------
# moving average
# ---------------------------------------------------------------------------


def test_moving_average_identity_and_constants():
    x = np.random.default_rng(1).standard_normal(50)
    assert np.array_equal(moving_average(x, 0), x)
    const = np.full(30, 3.25)
    for xi in (1, 5, 12):
        assert np.allclose(moving_average(const, xi), 3.25, atol=1e-14)


def test_moving_average_linear_ramp_interior():
    ramp = np.arange(40, dtype=float)
    xi = 6
    smooth = moving_average(ramp, xi)
    assert np.allclose(smooth[xi:-xi], ramp[xi:-xi], atol=1e-12)


def test_moving_average_matches_brute_force():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(73)
    for xi in (1, 3, 10, 36, 72):
        assert np.allclose(
            moving_average(x, xi), brute_moving_average(x, xi), atol=1e-12
        )


def test_moving_average_linearity():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 40))
    a, b = 2.5, -1.25
    combined = moving_average(a * x + b * y, 4)
    separate = a * moving_average(x, 4) + b * moving_average(y, 4)
    assert np.allclose(combined, separate, atol=1e-12)


def test_moving_average_window_too_wide():
    with pytest.raises(BadParameter, match="half-width 10 >= series length 10"):
        moving_average(np.zeros(10), 10)
    with pytest.raises(BadParameter, match="half-width must be >= 0"):
        moving_average(np.zeros(10), -1)


# ---------------------------------------------------------------------------
# lag correlation
# ---------------------------------------------------------------------------


def test_lag_correlation_self():
    x = np.random.default_rng(4).standard_normal(100)
    assert lag_correlation(x, x, 0) == pytest.approx(1.0, abs=1e-14)


def test_lag_correlation_quadrature_tones():
    t = np.arange(1, 201, dtype=float)
    x = np.sin(2 * np.pi * t / 20.0)
    y = np.cos(2 * np.pi * t / 20.0)
    assert abs(lag_correlation(x, y, 0)) <= 1e-10


def test_lag_correlation_detects_shift():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    shift = 7
    y = np.roll(x, -shift)  # y(t) = x(t + shift): x lags y by `shift`
    # C(tau) = <x(t) y(t - tau)> peaks at tau = shift
    values = [lag_correlation(x, y, tau) for tau in range(0, 15)]
    assert int(np.argmax(values)) == shift


def test_lag_correlation_insufficient_overlap():
    x = np.arange(10, dtype=float)
    with pytest.raises(BadParameter, match="overlap for lag 9 shorter than 2 points"):
        lag_correlation(x, x, 9)


# ---------------------------------------------------------------------------
# discrete Fourier transform
# ---------------------------------------------------------------------------


def test_dft_zero_series():
    assert np.allclose(dft(np.zeros(32)), 0.0, atol=0)


def test_dft_matches_direct_sum():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(64)
    assert np.abs(dft(x) - direct_dft(x)).max() <= 1e-10


def test_dft_single_tone_support():
    x = np.cos(2 * np.pi * 4 * T_INDEX / N)
    power = np.abs(dft(x)) ** 2
    on = power[[4, N - 4]].sum()
    assert on / power.sum() == pytest.approx(1.0, abs=1e-12)


def test_dft_round_trip_and_parseval():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(239)
    sc = dft(x)
    assert np.abs(inverse_dft(sc) - x).max() <= 1e-10
    energy_x = float(np.sum(x**2))
    energy_c = float(np.sum(np.abs(sc) ** 2))
    assert abs(energy_c - energy_x) <= 1e-8 * energy_x


@pytest.mark.parametrize("size", [0, 1])
def test_inverse_dft_needs_two_coefficients(size):
    # the lengths dft accepts; numpy's own ValueError used to escape at 0
    with pytest.raises(SchemaError, match="at least 2"):
        inverse_dft(np.ones(size, dtype=complex))


def test_inverse_dft_rejects_non_real_result():
    coeffs = np.zeros(8, dtype=complex)
    coeffs[1] = 1.0  # no conjugate partner at k = 7
    with pytest.raises(BadParameter, match="conjugate-symmetric"):
        inverse_dft(coeffs)


def test_dft_conjugate_symmetry():
    x = np.random.default_rng(8).standard_normal(100)
    c = dft(x)
    for k in range(1, 50):
        assert abs(c[100 - k] - np.conj(c[k])) <= 1e-10


# ---------------------------------------------------------------------------
# long-period extraction
# ---------------------------------------------------------------------------


def test_long_period_recovers_in_band_tone():
    x = np.cos(2 * np.pi * 4 * T_INDEX / N)
    assert np.abs(long_period(x, [4]) - x).max() <= 1e-10
    assert np.abs(long_period(x, KSET_BUSINESS_CYCLES) - x).max() <= 1e-10


def test_long_period_annihilates_out_of_band_tone():
    x = np.cos(2 * np.pi * 50 * T_INDEX / N)
    assert np.abs(long_period(x, KSET_BUSINESS_CYCLES)).max() <= 1e-10


def test_long_period_full_set_completeness():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(120)
    x -= x.mean()
    assert np.abs(long_period(x, range(1, 120)) - x).max() <= 1e-10


def test_long_period_idempotent_and_real():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(239)
    once = long_period(x, KSET_BUSINESS_CYCLES)
    twice = long_period(once, KSET_BUSINESS_CYCLES)
    assert np.abs(once - twice).max() <= 1e-10
    assert once.dtype == np.float64


def test_long_period_bad_index():
    x = np.zeros(50)
    with pytest.raises(BadParameter, match=r"frequency index 0 outside \[1, 49\]"):
        long_period(x, [0])
    with pytest.raises(BadParameter, match=r"frequency index 50 outside \[1, 49\]"):
        long_period(x, [50])
    with pytest.raises(BadParameter, match="empty frequency set"):
        long_period(x, [])


# ---------------------------------------------------------------------------
# residual disturbance
# ---------------------------------------------------------------------------


def band_limited_setup():
    w1 = tone(4)
    w2 = tone(6, 90.0)
    w3 = (w1 + w2) / np.sqrt(2.0)
    return rank2_pipeline([w1, w2, w3])


def test_residual_zero_for_band_limited_modes():
    _, basis, ms = band_limited_setup()
    resid = residual_disturbance(ms, basis, half_width=0, kset=(4, 6))
    assert np.abs(resid).max() <= 1e-10
    resid_wide = residual_disturbance(ms, basis, half_width=0, kset=(1, 2, 4, 6))
    assert np.abs(resid_wide).max() <= 1e-10


def test_residual_recovers_planted_pulse():
    _, basis, ms = band_limited_setup()
    pulse = np.zeros(N)
    pulse[100] = 5.0
    bumped = ModeSeries(months=ms.months, coeffs=ms.coeffs + np.outer([1, 0, 0], pulse))
    resid = residual_disturbance(bumped, basis, half_width=0, kset=(4, 6))
    # oracle: the pulse minus its own in-band part, mapped through mode 1
    c = direct_dft(pulse)
    kept = np.zeros(N, dtype=complex)
    for k in (4, 6, N - 4, N - 6):
        kept[k] = c[k]
    j = np.arange(1, N + 1)
    in_band = np.real(
        kept[None, :] @ np.exp(-2j * np.pi * np.arange(N)[:, None] * j[None, :] / N)
    ).ravel() / np.sqrt(N)
    expected = np.outer(basis.vectors[:, 0], pulse - in_band)
    assert np.abs(resid - expected).max() <= 1e-8


def test_residual_orthonormal_shortcut(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    ms = mode_series(planted_panel, basis)
    resid = residual_disturbance(ms, basis, half_width=6, kset=KSET_BUSINESS_CYCLES)
    back = basis.vectors[:, :2].T @ resid
    for i in range(2):
        a = ms.coeffs[i]
        direct = moving_average(a, 6) - long_period(a, KSET_BUSINESS_CYCLES)
        assert np.abs(back[i] - direct).max() <= 1e-10


def test_residual_reads_a_one_shot_kset_once():
    _, basis, ms = band_limited_setup()
    want = residual_disturbance(ms, basis, 6, (1, 2, 4, 6))
    # the second mode used to find the iterator exhausted (an empty frequency set)
    assert np.array_equal(residual_disturbance(ms, basis, 6, iter([1, 2, 4, 6])), want)
    # a bad half-width is still reported before a bad frequency set
    with pytest.raises(BadParameter, match=f"half-width {N} >= series length"):
        residual_disturbance(ms, basis, N, iter([]))


# ---------------------------------------------------------------------------
# external stimuli
# ---------------------------------------------------------------------------


def test_stimuli_zero_when_no_residual():
    _, _, ms = band_limited_setup()
    chi = np.eye(2)
    s = external_stimuli(ms, chi, half_width=0, kset=(4, 6))
    assert np.abs(s.values).max() <= 1e-10


def test_stimuli_identity_chi_reads_mode_one_residual():
    _, _, ms = band_limited_setup()
    pulse = np.zeros(N)
    pulse[57] = 2.0
    bumped = ModeSeries(months=ms.months, coeffs=ms.coeffs + np.outer([1, 0, 0], pulse))
    chi = np.eye(2)
    s = external_stimuli(bumped, chi, half_width=0, kset=(4, 6))
    expected = pulse - long_period(pulse, (4, 6))
    assert np.abs(s.eta1 - expected).max() <= 1e-10
    assert np.abs(s.eta2).max() <= 1e-10


def test_stimuli_linear_in_residual():
    _, _, ms = band_limited_setup()
    rng = np.random.default_rng(11)
    noisy = ModeSeries(
        months=ms.months, coeffs=ms.coeffs + 0.3 * rng.standard_normal(ms.coeffs.shape)
    )
    doubled = ModeSeries(months=ms.months, coeffs=2.0 * noisy.coeffs)
    chi = np.array([[1.0, 0.1], [0.1, 0.5]])
    s1 = external_stimuli(noisy, chi, half_width=3, kset=(4, 6))
    s2 = external_stimuli(doubled, chi, half_width=3, kset=(4, 6))
    assert np.abs(s2.values - 2.0 * s1.values).max() <= 1e-10


def test_stimuli_read_a_one_shot_kset_once():
    _, _, ms = band_limited_setup()
    chi = np.array([[1.0, 0.1], [0.1, 0.5]])
    want = external_stimuli(ms, chi, 6, (1, 2, 4, 6))
    s = external_stimuli(ms, chi, 6, iter([6, 4, 2, 1]))
    assert np.array_equal(s.values, want.values)
    with pytest.raises(BadParameter):
        external_stimuli(ms, chi, -1, iter([0]))


def test_stimuli_singular_chi():
    _, _, ms = band_limited_setup()
    chi = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(BadParameter, match="determinant .* too small"):
        external_stimuli(ms, chi, half_width=0, kset=(4, 6))


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_stimuli_singularity_test_is_scale_free(scale):
    # det and the sum of squares scale as chi^2: at 1e300 they once overflowed
    # to inf, at 1e-300 underflowed to 0, and either way refused a sound chi
    _, _, ms = band_limited_setup()
    noisy = ModeSeries(ms.months, ms.coeffs + 0.3 * np.random.default_rng(12).standard_normal(
        ms.coeffs.shape))
    sound = np.array([[1.0, 0.1], [0.1, 0.5]])
    want = external_stimuli(noisy, sound, 3, (4, 6)).values / scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = external_stimuli(noisy, scale * sound, 3, (4, 6)).values
        with pytest.raises(BadParameter, match=r"^determinant 0\.000e\+00 too small$"):
            external_stimuli(noisy, scale * np.ones((2, 2)), 3, (4, 6))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale, noise", [(1e307, 0.3), (np.finfo(float).tiny, 100.0)],
                         ids=["underflow", "overflow"])
def test_stimuli_outside_the_float_range_are_refused(scale, noise):
    # eta = chi^-1 <a>: a huge chi leaves subnormal fields, a tiny one infinite ones
    _, _, ms = band_limited_setup()
    noisy = ModeSeries(ms.months, ms.coeffs + noise * np.random.default_rng(12).standard_normal(
        ms.coeffs.shape))
    chi = scale * np.array([[1.0, 0.1], [0.1, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match="^" + re.escape(
                f"stimuli leave the float range at chi scale {scale:.3e}") + "$"):
            external_stimuli(noisy, chi, 3, (4, 6))


def test_stimulus_csv(tmp_path):
    _, _, ms = band_limited_setup()
    chi = np.eye(2)
    s = external_stimuli(ms, chi, half_width=2, kset=(4, 6))
    path = tmp_path / "stimuli.csv"
    s.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "date,eta1,eta2"
    assert len(lines) == N + 1
    assert lines[1].startswith("1988-01,")


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def quarter_shift_setup():
    w1 = tone(8)
    w2 = tone(8, 90.0)  # peaks a quarter period earlier
    w3 = (w1 + w2) / np.sqrt(2.0)
    return rank2_pipeline([w1, w2, w3])


def test_mode_phases_reference_zero_and_quarter_period():
    # a one-tone table is the one-bin set
    _, basis, ms = quarter_shift_setup()
    table = freq_avg_phases(ms, basis, [8], ref=SeriesId(Variable.PRODUCTION, 1))
    assert table.phase(SeriesId(Variable.PRODUCTION, 1)) == 0.0
    assert table.phase(SeriesId(Variable.SHIPMENTS, 1)) == pytest.approx(90.0, abs=1e-8)
    assert table.phase(SeriesId(Variable.INVENTORY, 1)) == pytest.approx(45.0, abs=1e-8)
    assert np.all(table.phases > -180.0) and np.all(table.phases <= 180.0)


def test_mode_phases_reference_amplitude_zero():
    w1 = tone(5)
    w2 = tone(7)
    w3 = (w1 + w2) / np.sqrt(2.0)
    _, basis, ms = rank2_pipeline([w1, w2, w3])
    with pytest.raises(DegenerateWeights,
                       match=r"^series P\.1 has no spectral weight in the chosen band$"):
        freq_avg_phases(ms, basis, [7], ref=SeriesId(Variable.PRODUCTION, 1))


def test_freq_avg_constant_phase_across_band():
    delta = 60.0
    w1 = tone(2) + tone(4)
    w1 /= w1.std()
    w2 = tone(2, delta) + tone(4, delta)
    w2 /= w2.std()
    w3 = w1 + w2
    w3 /= w3.std()
    _, basis, ms = rank2_pipeline([w1, w2, w3])
    table = freq_avg_phases(ms, basis, kset=(2, 4), ref=SeriesId(Variable.PRODUCTION, 1))
    assert table.phase(SeriesId(Variable.PRODUCTION, 1)) == 0.0
    assert table.phase(SeriesId(Variable.SHIPMENTS, 1)) == pytest.approx(delta, abs=1e-8)
    # equal mixture of the zero-phase and delta-phase series sits halfway
    assert table.phase(SeriesId(Variable.INVENTORY, 1)) == pytest.approx(delta / 2, abs=1e-8)


def test_freq_avg_matches_circular_mean_oracle():
    # different phase offsets and amplitudes per tone: closed-form weights
    amp3, amp9 = 1.4, 0.6
    d3, d9 = 25.0, 70.0
    base3, base9 = tone(3), tone(9)
    w1 = base3 * amp3 + base9 * amp9
    w1 /= w1.std()
    w2 = amp3 * tone(3, d3) + amp9 * tone(9, d9)
    w2 /= w2.std()
    w3 = w1 + 0.5 * w2
    w3 /= w3.std()
    _, basis, ms = rank2_pipeline([w1, w2, w3])
    table = freq_avg_phases(ms, basis, kset=(3, 9), ref=SeriesId(Variable.PRODUCTION, 1))
    # oracle: weights are squared tone amplitudes of the target series
    scale = 1.0 / np.sqrt(amp3**2 + amp9**2)  # from the w2 restandardization
    weights = np.array([(amp3 * scale) ** 2, (amp9 * scale) ** 2]) * N / 2.0 * 2.0
    expected = circular_mean_degrees(np.array([d3, d9]), weights)
    assert table.phase(SeriesId(Variable.SHIPMENTS, 1)) == pytest.approx(expected, abs=1e-6)


def test_freq_avg_degenerate_weights():
    w1 = tone(5)
    w2 = tone(7)
    w3 = (w1 + w2) / np.sqrt(2.0)
    _, basis, ms = rank2_pipeline([w1, w2, w3])
    with pytest.raises(DegenerateWeights):
        freq_avg_phases(ms, basis, kset=(3,), ref=SeriesId(Variable.PRODUCTION, 1))


def test_phase_table_csv(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    ms = mode_series(planted_panel, basis)
    table = freq_avg_phases(ms, basis, [4], ref=SeriesId(Variable.PRODUCTION, 20))
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "goods,P,S,I"
    assert len(lines) == 23  # 21 goods + header + average row
    assert lines[-1].startswith("average,")
    p20_row = lines[20].split(",")
    assert p20_row[0] == "20" and float(p20_row[1]) == 0.0


def _wrapped_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest circular distance between two arrays of angles in degrees."""
    return float(np.abs((a - b + 180.0) % 360.0 - 180.0).max())


def test_phases_match_brute_force_dft_amplitudes(planted_panel):
    # the phase tables read their bins from dft; the oracle sums the DFT directly
    basis = eigendecompose(correlation_matrix(planted_panel))
    ms = mode_series(planted_panel, basis)
    ref = SeriesId(Variable.PRODUCTION, 20)
    r = ref.flat(basis.n_goods) - 1
    bins = np.stack([direct_dft(ms.coeffs[0]), direct_dft(ms.coeffs[1])])
    amp = basis.vectors[:, :2] @ bins  # M x N', every series at every bin
    rel = np.degrees(np.angle(amp[r]) - np.angle(amp))  # M x N'
    for k in (1, 4, 9):
        table = freq_avg_phases(ms, basis, [k], ref)
        assert _wrapped_gap(table.phases, rel[:, k]) <= 1e-9
    ks = list(KSET_LONG_PERIODS)
    expected = np.array([
        circular_mean_degrees(rel[i, ks], np.abs(amp[i, ks]) ** 2) for i in range(basis.m)
    ])
    expected[r] = 0.0
    table = freq_avg_phases(ms, basis, KSET_LONG_PERIODS, ref)
    assert _wrapped_gap(table.phases, expected) <= 1e-9


def test_an_unknown_reference_is_the_unknown_ripple_source_error(planted_panel):
    # P.22 and S.22 lie outside the 21-goods layout, and each is named
    basis = eigendecompose(correlation_matrix(planted_panel))
    ms = mode_series(planted_panel, basis)
    ref = SeriesId.parse("P.22")
    for call in (lambda: freq_avg_phases(ms, basis, KSET_LONG_PERIODS, ref),
                 lambda: freq_avg_phases(ms, basis, [4], SeriesId.parse("P.20")).phase(ref)):
        with pytest.raises(BadParameter, match=r"^series P\.22 not in a 21-goods layout$"):
            call()
    with pytest.raises(BadParameter, match=r"^series S\.22 not in a 21-goods layout$"):
        ripple(genuine_matrix(basis, 2), SeriesId.parse("S.22"))
    # a basis of four series has no layout at all
    w4 = StandardizedPanel.from_values(planted_panel.values[:4])
    four = eigendecompose(correlation_matrix(w4))
    with pytest.raises(BadParameter, match=r"^series P\.1: 4 series have no 3 x G layout$"):
        freq_avg_phases(mode_series(w4, four), four, [4], SeriesId.parse("P.1"))


# ---------------------------------------------------------------------------
# refused inputs
# ---------------------------------------------------------------------------

MONTHS24 = np.datetime64("1988-01", "M") + np.arange(24)
ONE_MODE = ModeSeries(MONTHS24, tone(4, n=24)[None])
TWO_MODES = ModeSeries(MONTHS24, np.stack([tone(4, n=24), tone(6, n=24)]))
BASIS1 = ModeBasis(np.ones(1), np.eye(1))
BASIS3 = ModeBasis(np.ones(3), np.eye(3))  # M = 3, one goods

# a call on bad input, its error type and a message fragment
REFUSED = {
    "lag_correlation, lengths differ": (
        lambda: lag_correlation(np.ones(5), np.ones(6), 0), SchemaError, "series lengths differ"),
    "lag_correlation, zero series": (
        lambda: lag_correlation(np.zeros(5), np.ones(5), 1),
        BadParameter, "^a series vanishes identically$"),
    "residual_disturbance, one-mode basis": (
        lambda: residual_disturbance(TWO_MODES, BASIS1, 0, (4,)),
        SchemaError, "^need the two leading modes$"),
    "residual_disturbance, one mode series": (
        lambda: residual_disturbance(ONE_MODE, BASIS3, 0, (4,)),
        SchemaError, "^need the two leading modes$"),
    "external_stimuli, 3 x 3 chi": (
        lambda: external_stimuli(TWO_MODES, np.eye(3), 0, (4,)),
        SchemaError, "stimulus inversion uses exactly the two leading modes"),
    "external_stimuli, one mode series": (
        lambda: external_stimuli(ONE_MODE, np.eye(2), 0, (4,)),
        SchemaError, "^need the two leading modes$"),
    "mode_phases, one mode series": (  # the one-tone table
        lambda: freq_avg_phases(ONE_MODE, BASIS3, [4], SeriesId(1, 1)),
        SchemaError, "^need the two leading modes$"),
    "freq_avg_phases, one mode series": (
        lambda: freq_avg_phases(ONE_MODE, BASIS3, (4, 6), SeriesId(1, 1)),
        SchemaError, "^need the two leading modes$"),
    "StimulusSeries, months": (
        lambda: StimulusSeries(MONTHS24[:3], np.zeros((2, 5))),
        SchemaError, "^stimulus values and months are inconsistent$"),
    "StimulusSeries, three rows": (
        lambda: StimulusSeries(MONTHS24[:5], np.zeros((3, 5))),
        SchemaError, r"^stimulus values need 2 rows \(eta1, eta2\), got 3$"),
    "StimulusSeries, empty": (
        lambda: StimulusSeries(MONTHS24[:0], np.zeros((2, 0))),
        SchemaError, "^stimulus values are empty: 2 series, 0 months$"),
}


def test_stimulus_series_freezes_its_months():
    series = StimulusSeries([str(m) for m in MONTHS24[:5]], np.zeros((2, 5)))
    assert series.months.dtype == MONTHS24.dtype
    assert not series.months.flags.writeable and not series.values.flags.writeable


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_bad_cycle_input_is_refused(case):
    call, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(n=st.integers(2, 300), scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1))
def test_dft_round_trip_property(n, scale, seed):
    x = scale * np.random.default_rng(seed).standard_normal(n)
    back = inverse_dft(dft(x))
    assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()


@given(
    data=st.data(),
    n=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from(["none", "x", "y"]),
)
def test_smoothing_first_equals_the_removed_smoothing_form_property(data, n, seed, zeros):
    # lag_correlation(moving_average(x, h), moving_average(y, h), lag) is the
    # smoothing form it replaced, bit for bit, for every h >= 0 and valid lag
    half_width = data.draw(st.integers(0, n - 1), label="half_width")
    lag = data.draw(st.integers(-(n - 2), n - 2), label="lag")
    x, y = np.random.default_rng(seed).standard_normal((2, n)) * [[1.0], [1e3]]
    if zeros != "none":
        (x if zeros == "x" else y)[:] = 0.0
    try:
        want = smoothed_lag_correlation(x, y, lag, half_width)
    except BadParameter:
        with pytest.raises(BadParameter, match="^a series vanishes identically$"):
            lag_correlation(moving_average(x, half_width), moving_average(y, half_width), lag)
        return
    got = lag_correlation(moving_average(x, half_width), moving_average(y, half_width), lag)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(data=st.data(), n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_lag_correlation_is_bounded_by_the_overlap_property(data, n, seed):
    # an overlap mean over full-sample RMS values: Cauchy-Schwarz over the
    # N' - |lag| overlapping months bounds it by N' / (N' - |lag|), not by 1
    lag = data.draw(st.integers(-(n - 2), n - 2), label="lag")
    overlap = n - abs(lag)
    bound = n / overlap
    x, y = np.random.default_rng(seed).standard_normal((2, n))
    assert abs(lag_correlation(x, y, lag)) <= bound * (1 + 1e-12)
    # the bound is reached when y(t - lag) = x(t) on the overlap and both vanish off it
    tight_x, tight_y = np.zeros(n), np.zeros(n)
    tight_x[max(lag, 0):][:overlap] = x[:overlap]
    tight_y[max(-lag, 0):][:overlap] = x[:overlap]
    assert lag_correlation(tight_x, tight_y, lag) == pytest.approx(bound, rel=1e-12)


@given(
    n=st.integers(1, 400),
    width=st.integers(0, 399),
    value=st.floats(-1e6, 1e6, allow_subnormal=False),
)
def test_moving_average_keeps_constants_property(n, width, value):
    smoothed = moving_average(np.full(n, value), width % n)
    assert np.abs(smoothed - value).max() <= 1e-12 * abs(value)


@pytest.fixture(scope="module")
def fitted(ar1_panel):
    c = correlation_matrix(ar1_panel)
    basis = eigendecompose(c)
    return SimpleNamespace(w=ar1_panel, c=c, basis=basis, ms=mode_series(ar1_panel, basis))


# each public count argument: its name in the error, and a call with it set to v
COUNTS = {
    "autocorrelations": ("lag", lambda f, v: autocorrelations(f.w, v)),
    "cyclic_autocorrelation": ("lag", lambda f, v: cyclic_autocorrelation(f.w.values[0], v)),
    "no_autocorr_band": ("sample length", lambda f, v: no_autocorr_band(v)),
    "moving_average": ("half-width", lambda f, v: moving_average(f.ms.coeffs[0], v)),
    "lag_correlation": ("lag", lambda f, v: lag_correlation(f.ms.coeffs[0], f.ms.coeffs[1], v)),
    "long_period": ("frequency index", lambda f, v: long_period(f.ms.coeffs[0], [v])),
    "mode_phases": (  # the one-tone table
        "frequency index",
        lambda f, v: freq_avg_phases(f.ms, f.basis, [v], SeriesId(1, 20)).phases),
    "reconstruct": ("mode", lambda f, v: reconstruct(f.basis, [v])),
    "genuine_matrix": ("mode count", lambda f, v: genuine_matrix(f.basis, v).values),
    "reduced_susceptibility": (
        "mode count", lambda f, v: reduced_susceptibility(f.c, f.basis, v)),
}


@pytest.mark.parametrize("value", [1.5, np.float64(2.0), True, np.True_, "2"])
@pytest.mark.parametrize("case", sorted(COUNTS))
def test_non_integer_counts_are_bad_parameters(fitted, case, value):
    # a float, bool or string count is refused, naming the argument, where it
    # used to be truncated or end in a raw TypeError or IndexError
    name, call = COUNTS[case]
    with pytest.raises(BadParameter, match=f"^{name} must be an integer, got "):
        call(fitted, value)
    # a numpy integer is the Python int it holds
    assert np.array_equal(call(fitted, np.int64(2)), call(fitted, 2))


# each public series function, called on one series x
SERIES_CALLS = {
    "moving_average": lambda x: moving_average(x, 0),
    "cyclic_autocorrelation": lambda x: cyclic_autocorrelation(x, 1),
    "lag_correlation": lambda x: lag_correlation(x, x, 0),
    "dft": dft,
    "inverse_dft": lambda x: inverse_dft(np.asarray(x, dtype=complex)),
    "long_period": lambda x: long_period(x, [1]),
}


@pytest.mark.parametrize("shape", [(3, 20), ()], ids=["2-D", "0-D"])
@pytest.mark.parametrize("case", sorted(SERIES_CALLS))
def test_a_series_that_is_not_1d_is_a_schema_error(case, shape):
    x = np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape)
    with pytest.raises(SchemaError,
                       match="^" + re.escape(f"series must be 1-D, got shape {shape}") + "$"):
        SERIES_CALLS[case](x)
