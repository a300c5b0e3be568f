import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelresponse import (
    correlation_matrix,
    eigendecompose,
    load_panel,
    log_growth,
    mp_bounds,
    standardize,
    synth,
    write_panel_csv,
)
from panelresponse.errors import BadParameter, SchemaError

from oracles import MpReference, ks_distance, lfilter_ar1_rows


def test_generate_deterministic():
    spec = synth.SynthSpec(n_series=12, n_obs=60, noise_ar1=0.2, seed=5)
    a = synth.generate(spec)
    b = synth.generate(spec)
    assert np.array_equal(a.values, b.values)
    c = synth.generate(synth.SynthSpec(n_series=12, n_obs=60, noise_ar1=0.2, seed=6))
    assert not np.array_equal(a.values, c.values)


def test_generate_standardized_invariants(iid_panel, ar1_panel):
    for w in (iid_panel, ar1_panel):
        assert np.abs(w.values.mean(axis=1)).max() <= 1e-10
        assert np.abs(w.values.std(axis=1) - 1.0).max() <= 1e-10
        assert w.values.shape == (63, 239)


def test_noise_autocorrelation_sign(ar1_panel):
    v = ar1_panel.values
    r1 = (v[:, :-1] * v[:, 1:]).sum(axis=1) / (v.shape[1] - 1)
    assert -0.45 < r1.mean() < -0.25  # near the AR(1) coefficient -0.35


def test_pure_noise_spectrum_matches_mp():
    # pooled eigenvalues over 100 independent realizations
    ref = MpReference(239 / 63)
    pooled = []
    for seed in range(100):
        w = synth.generate(synth.SynthSpec(n_series=63, n_obs=239, seed=3000 + seed))
        pooled.append(np.linalg.eigvalsh(w.values @ w.values.T / 239))
    assert ks_distance(np.concatenate(pooled), ref.cdf) <= 0.05


def test_rank_one_zero_noise():
    spec = synth.SynthSpec(
        n_series=63,
        n_obs=239,
        modes=(synth.PlantedMode(eigenvalue=10.0, driver=synth.Ar1(0.0)),),
        noise_ar1=None,
        seed=1,
    )
    w = synth.generate(spec)
    lam = np.linalg.eigvalsh(w.values @ w.values.T / 239)[::-1]
    assert lam[0] == pytest.approx(63.0, abs=1e-8)  # entries are +-1 after restandardizing
    assert np.abs(lam[1:]).max() <= 1e-10


def test_planted_mode_recovery_average():
    q = 239 / 63
    _, hi = mp_bounds(q)
    target = 2.0 * hi
    overlaps = []
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        loading = rng.standard_normal(63)
        loading /= np.linalg.norm(loading)
        spec = synth.SynthSpec(
            n_series=63,
            n_obs=239,
            modes=(synth.PlantedMode(eigenvalue=target, driver=synth.Ar1(0.0),
                                     loading=loading),),
            seed=seed,
        )
        w = synth.generate(spec)
        basis = eigendecompose(correlation_matrix(w))
        overlaps.append(abs(loading @ basis.vectors[:, 0]))
    assert np.mean(overlaps) >= 0.9


def test_null_edges_agree_without_autocorrelation():
    from panelresponse import null_ensemble

    w = synth.generate(synth.SynthSpec(n_series=63, n_obs=239, seed=404))
    complete = null_ensemble(w, "complete", 400, seed=1)
    rotational = null_ensemble(w, "rotational", 400, seed=2)
    # same largest-eigenvalue distribution when there is nothing to preserve
    x = np.sort(complete.lambda_max)

    def cdf(v):
        return np.searchsorted(x, v, side="right") / x.size

    assert ks_distance(rotational.lambda_max, cdf) <= 0.1


def loading(m):
    return (synth.PlantedMode(eigenvalue=1.0, driver=synth.Ar1(0.0), loading=np.ones(m) / m**0.5),)


# a call on an infeasible spec, its error type and a message fragment
INFEASIBLE = {
    "no series": (
        lambda: synth.SynthSpec(n_series=0, n_obs=10), BadParameter, "at least 1 series"),
    "loading length": (
        lambda: synth.SynthSpec(n_series=3, n_obs=10, modes=loading(2)),
        SchemaError, "loading length differs"),
    "per-series noise length": (
        lambda: synth.SynthSpec(n_series=3, n_obs=10, noise_ar1=[0.1, 0.2]),
        SchemaError, "per-series noise coefficients differ"),
    "Ar1(1)": (lambda: synth.Ar1(1.0), BadParameter, r"coefficient 1.0 outside \(-1, 1\)"),
    "Ar1(-1)": (lambda: synth.Ar1(-1.0), BadParameter, r"coefficient -1.0 outside \(-1, 1\)"),
    "noise |phi| = 1": (
        lambda: synth.generate(synth.SynthSpec(n_series=3, n_obs=10, noise_ar1=[0.0, 1.0, 0.0])),
        BadParameter, r"must lie in \(-1, 1\)"),
    "fractional series count": (
        lambda: synth.SynthSpec(n_series=2.5, n_obs=10), BadParameter,
        r"^n_series must be an integer, got 2.5$"),
    "fractional month count": (
        lambda: synth.SynthSpec(n_series=3, n_obs=30.5), BadParameter,
        r"^n_obs must be an integer, got 30.5$"),
    "boolean series count": (
        lambda: synth.SynthSpec(n_series=True, n_obs=10), BadParameter,
        r"^n_series must be an integer, got True$"),
    "fractional seed": (
        lambda: synth.SynthSpec(n_series=3, n_obs=10, seed=1.5), BadParameter,
        r"^seed must be an integer, got 1.5$"),
}


@pytest.mark.parametrize("case", sorted(INFEASIBLE))
def test_infeasible_spec_fields(case):
    call, error, message = INFEASIBLE[case]
    with pytest.raises(error, match=message):
        call()


def test_infeasible_specs():
    with pytest.raises(BadParameter, match="planted eigenvalues exceed the trace budget M"):
        synth.SynthSpec(
            n_series=4,
            n_obs=50,
            modes=(synth.PlantedMode(eigenvalue=5.0, driver=synth.Ar1(0.0)),),
        )
    concentrated = np.zeros(10)
    concentrated[0] = 1.0
    spec = synth.SynthSpec(
        n_series=10,
        n_obs=50,
        modes=(synth.PlantedMode(eigenvalue=3.0, driver=synth.Ar1(0.0),
                                 loading=concentrated),),
    )
    with pytest.raises(BadParameter, match="mode variance 2.000 exceeds 1 for series 1"):
        synth.generate(spec)  # 2.0 of mode variance on one series
    with pytest.raises(BadParameter, match="target eigenvalue 0.5 below the noise floor"):
        synth.generate(
            synth.SynthSpec(
                n_series=10,
                n_obs=50,
                modes=(synth.PlantedMode(eigenvalue=0.5, driver=synth.Ar1(0.0)),),
            )
        )  # below the unit noise floor


def test_numpy_integer_fields_become_python_ints():
    spec = synth.SynthSpec(n_series=np.int32(3), n_obs=np.int64(10), seed=np.int64(7))
    assert all(type(v) is int for v in (spec.n_series, spec.n_obs, spec.seed))
    doc = synth.spec_to_json(spec)
    assert json.loads(json.dumps(doc))["seed"] == 7


def test_negative_seed_rejected():
    with pytest.raises(BadParameter, match="seed must be >= 0, got -1"):
        synth.SynthSpec(n_series=3, n_obs=10, seed=-1)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n_obs": 20}, "spec lacks field 'n_series'"),
        ({"n_series": "six", "n_obs": 20}, "'n_series' must be an integer, got 'six'"),
        ({"n_series": 6, "n_obs": 20.0}, "'n_obs' must be an integer, got 20.0"),
        ({"n_series": 6, "n_obs": 20, "modes": [{"driver": {"kind": "ar1"}}]},
         "spec lacks field 'coefficient'"),
        ({"n_series": 6, "n_obs": 20, "modes": [{"eigenvalue": 2.0, "driver": {"kind": "x"}}]},
         "unknown driver kind 'x'"),
        ({"n_series": 6, "n_obs": 20, "noise_ar1": "x"}, "'noise_ar1' must be a number, got 'x'"),
        ({"n_series": 6, "n_obs": 20, "noise_ar1": [0.1] * 5 + [None]},
         "'noise_ar1' must be a number, got None"),
        ({"n_series": 6, "n_obs": 20, "start": 5}, "'start' must be a string, got 5"),
        ({"n_series": 6, "n_obs": 20, "start": True}, "'start' must be a string, got True"),
        ({"n_series": 6, "n_obs": 20, "modes": [
            {"eigenvalue": 2.0, "driver": {"kind": "sinusoid", "period": "60"}}]},
         "'period' must be a number, got '60'"),
        ([6, 20], "malformed spec"),
    ],
)
def test_malformed_spec_document(doc, message):
    with pytest.raises(SchemaError, match=message):
        synth.spec_from_json(doc)


@given(
    phi=st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                 min_size=1, max_size=8),
    n=st.integers(2, 400),
    seed=st.integers(0, 2**63),
)
def test_ar1_recursion_matches_lfilter(phi, n, seed):
    phi = np.array(phi)
    got = synth._ar1_rows(np.random.default_rng(seed), phi, n)
    assert np.array_equal(got, lfilter_ar1_rows(np.random.default_rng(seed), phi, n))


def test_non_orthonormal_loadings_rejected():
    a = np.zeros(6)
    a[0] = 1.0
    b = np.zeros(6)
    b[0] = 0.8
    b[1] = 0.6
    spec = synth.SynthSpec(
        n_series=6,
        n_obs=40,
        modes=(
            synth.PlantedMode(eigenvalue=2.0, driver=synth.Ar1(0.0), loading=a),
            synth.PlantedMode(eigenvalue=1.5, driver=synth.Ar1(0.0), loading=b),
        ),
    )
    with pytest.raises(BadParameter, match="planted loadings are not pairwise orthonormal"):
        synth.generate(spec)


def test_random_loadings_orthogonal_to_explicit():
    explicit = np.resize([1.0, -1.0], 30) / np.sqrt(30.0)
    spec = synth.SynthSpec(
        n_series=30,
        n_obs=100,
        modes=(
            synth.PlantedMode(eigenvalue=4.0, driver=synth.Ar1(0.0), loading=explicit),
            synth.PlantedMode(eigenvalue=3.0, driver=synth.Sinusoid(period=25.0)),
        ),
        seed=8,
    )
    w = synth.generate(spec)  # orthonormality is validated inside
    assert w.values.shape == (30, 100)


def test_spec_json_round_trip(tmp_path):
    spec = synth.SynthSpec(
        n_series=16,
        n_obs=48,
        modes=(
            synth.PlantedMode(eigenvalue=2.0, driver=synth.Sinusoid(period=12.0, phase=0.5)),
            synth.PlantedMode(eigenvalue=1.5, driver=synth.Ar1(0.4),
                              loading=np.full(16, 0.25)),
        ),
        noise_ar1=(0.1,) * 16,
        seed=99,
        start="1990-06",
    )
    path = tmp_path / "spec.json"
    synth.spec_to_json(spec, path)
    back = synth.spec_from_json(path)
    assert back.n_series == 16 and back.n_obs == 48 and back.seed == 99
    assert back.start == "1990-06"
    assert isinstance(back.modes[0].driver, synth.Sinusoid)
    assert back.modes[0].loading is None
    assert np.allclose(back.modes[1].loading, 0.25)
    assert np.array_equal(synth.generate(back).values, synth.generate(spec).values)


def test_level_panel_round_trip(tmp_path):
    spec = synth.SynthSpec(n_series=9, n_obs=60, noise_ar1=0.1, seed=3)
    w = synth.generate(spec)
    panel = synth.to_level_panel(w)
    assert np.all(panel.values > 0)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    recovered = standardize(log_growth(load_panel(path)))
    assert np.abs(recovered.values - w.values).max() <= 1e-10
