import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from panelresponse import (
    CorrMatrix,
    ModeBasis,
    ModeSeries,
    StandardizedPanel,
    corr_from_csv,
    corr_from_json,
    corr_to_csv,
    correlation_matrix,
    eigendecompose,
    mode_series,
    mp_bounds,
    mp_density,
    parse_month,
    reconstruct,
    synth,
)
from panelresponse.errors import BadParameter, EigensolverFailure, SchemaError
from panelresponse.spectral import _write_corr

from oracles import (
    MpReference, corr_texts, explicit_reconstruct, mp_bounds_decimal, mp_density_decimal,
)


def panel_from_rows(rows):
    return StandardizedPanel.from_values(np.asarray(rows, dtype=float))


# ---------------------------------------------------------------------------
# correlation matrix
# ---------------------------------------------------------------------------


def test_correlation_identical_series():
    w = panel_from_rows([[1, -1, 1, -1], [1, -1, 1, -1]])
    c = correlation_matrix(w)
    assert np.allclose(c.values, [[1, 1], [1, 1]], atol=1e-15)
    assert c.kind == "raw"


def test_correlation_anticorrelated():
    w = panel_from_rows([[1, -1, 1, -1], [-1, 1, -1, 1]])
    c = correlation_matrix(w)
    assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_correlation_orthogonal_sequences():
    w = panel_from_rows([[1, -1, 1, -1], [1, 1, -1, -1]])
    c = correlation_matrix(w)
    assert c.values[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_correlation_unit_diagonal_exact(iid_panel):
    c = correlation_matrix(iid_panel)
    assert np.all(np.diag(c.values) == 1.0)


def test_corr_matrix_rejects_asymmetric():
    with pytest.raises(SchemaError, match="asymmetry 3.000e-01 exceeds 1e-12"):
        CorrMatrix(values=np.array([[1.0, 0.5], [0.2, 1.0]]))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------


def test_eigendecompose_2x2_closed_form():
    basis = eigendecompose(CorrMatrix(np.array([[1.0, 0.6], [0.6, 1.0]])))
    assert np.allclose(basis.eigenvalues, [1.6, 0.4], atol=1e-12)
    root2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.vectors[:, 0], [root2, root2], atol=1e-12)
    # orientation sum is zero for the antisymmetric mode: the largest
    # magnitude component is made positive
    assert np.allclose(basis.vectors[:, 1], [root2, -root2], atol=1e-12)


def test_eigendecompose_identity_deterministic():
    basis = eigendecompose(CorrMatrix(np.eye(3)))
    assert np.allclose(basis.eigenvalues, 1.0, atol=0)
    assert np.allclose(basis.vectors, np.eye(3), atol=0)


def test_eigendecompose_equicorrelation():
    rho = 0.5
    c = CorrMatrix(np.full((3, 3), rho) + (1 - rho) * np.eye(3))
    basis = eigendecompose(c)
    assert np.allclose(basis.eigenvalues, [2.0, 0.5, 0.5], atol=1e-12)


def test_eigendecompose_residual_and_ortho(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    m = basis.m
    assert np.abs(basis.vectors.T @ basis.vectors - np.eye(m)).max() <= 1e-10
    resid = np.abs(c.values @ basis.vectors - basis.vectors * basis.eigenvalues).max()
    assert resid <= 1e-9 * m


def test_eigendecompose_residual_failure_is_typed(planted_panel, monkeypatch):
    c = correlation_matrix(planted_panel)
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a: (np.arange(a.shape[0], dtype=float), np.eye(a.shape[0]))
    )
    with pytest.raises(EigensolverFailure, match="eigensolver residual") as info:
        eigendecompose(c)
    assert isinstance(info.value, RuntimeError)  # the type it raised before


def test_trace_constraint(iid_panel, ar1_panel, planted_panel):
    for w in (iid_panel, ar1_panel, planted_panel):
        basis = eigendecompose(correlation_matrix(w))
        assert abs(basis.eigenvalues.sum() - w.n_series) <= 1e-8


def test_signs_follow_the_production_block_sum(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    g = planted_panel.n_goods
    for n in range(basis.m):
        block = basis.vectors[:g, n].sum()
        if abs(block) > 1e-12:
            assert block > 0


def test_sign_rule_follows_the_layout():
    # the leading vector is ~(1, -0.7, -0.7): its production block (the first
    # component, as M = 3 is the 3 x 1 layout) and its component sum have
    # opposite signs
    values = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, 0.3], [-0.5, 0.3, 1.0]])
    by_block = eigendecompose(CorrMatrix(values)).vectors
    # beside a fourth, uncorrelated series it has no layout (M = 4)
    by_sum = eigendecompose(CorrMatrix(np.pad(values, (0, 1)) + np.diag([0, 0, 0, 1.0]))).vectors
    for n in range(3):
        if abs(by_block[0, n]) > 1e-12:
            assert by_block[0, n] > 0
    for n in range(4):
        if abs(by_sum[:, n].sum()) > 1e-12:
            assert by_sum[:, n].sum() > 0
    assert by_block[0, 0] > 0 > by_sum[0, 0]
    assert np.allclose(by_block[:, 0], -by_sum[:3, 0], rtol=0.0, atol=1e-12)
    assert abs(by_sum[3, 0]) <= 1e-12


def test_mode_series_single_mode():
    s = np.array([1.0, -1.0, 1.0, -1.0])
    w = panel_from_rows([s, s])  # rank one, aligned with (1,1)/sqrt(2)
    basis = eigendecompose(correlation_matrix(w))
    ms = mode_series(w, basis)
    assert np.allclose(ms.coeffs[0], np.sqrt(2.0) * s, atol=1e-12)
    assert np.allclose(ms.coeffs[1], 0.0, atol=1e-12)


def test_mode_strength_identity(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    ms = mode_series(planted_panel, basis)
    strength = ms.coeffs @ ms.coeffs.T / planted_panel.n_obs
    assert np.abs(strength - np.diag(basis.eigenvalues)).max() <= 1e-8


def test_mode_series_round_trip():
    rng = np.random.default_rng(42)
    raw = rng.standard_normal((5, 40))
    raw = (raw - raw.mean(axis=1, keepdims=True)) / raw.std(axis=1, keepdims=True)
    w = panel_from_rows(raw)
    basis = eigendecompose(correlation_matrix(w))
    ms = mode_series(w, basis)
    assert np.abs(basis.vectors @ ms.coeffs - w.values).max() <= 1e-10


def test_mode_series_dimension_mismatch(iid_panel):
    basis = eigendecompose(CorrMatrix(np.eye(4)))
    with pytest.raises(SchemaError, match="basis dimension 4 does not match panel"):
        mode_series(iid_panel, basis)


def test_reconstruct_limits(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    m = basis.m
    assert np.abs(reconstruct(basis, range(1, m + 1)) - c.values).max() <= 1e-10
    assert np.array_equal(reconstruct(basis, []), np.zeros((m, m)))
    with pytest.raises(BadParameter, match=rf"mode 0 outside \[1, {m}\]"):
        reconstruct(basis, [0])
    with pytest.raises(BadParameter, match=rf"mode {m + 1} outside \[1, {m}\]"):
        reconstruct(basis, [m + 1])


def test_reconstruct_matches_outer_product_sum(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    for modes in ([1], [2, 1, 2], [1, 3, 5], range(1, basis.m + 1)):
        want = explicit_reconstruct(basis.vectors, basis.eigenvalues, modes)
        # one matmul sums in another order than the loop: allow rounding only
        assert np.abs(reconstruct(basis, modes) - want).max() <= 1e-12


def test_reconstruct_rank_one():
    basis = eigendecompose(CorrMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert np.allclose(reconstruct(basis, [1]), [[1, 1], [1, 1]], atol=1e-12)


# ---------------------------------------------------------------------------
# Marchenko-Pastur law
# ---------------------------------------------------------------------------


def test_mp_bounds_paper_ratio():
    lo, hi = mp_bounds(239 / 63)
    ref_lo, ref_hi = mp_bounds_decimal(239 / 63)
    assert lo == pytest.approx(ref_lo, abs=1e-12)
    assert hi == pytest.approx(ref_hi, abs=1e-12)


def test_mp_bounds_exact_arithmetic():
    assert mp_bounds(4.0) == pytest.approx((0.25, 2.25), abs=1e-15)


def test_mp_bounds_large_q_expansion():
    q = 1e4
    lo, hi = mp_bounds(q)
    assert hi == pytest.approx(1 + 2 / np.sqrt(q), abs=1e-3)
    assert lo == pytest.approx(1 - 2 / np.sqrt(q), abs=1e-3)


def test_mp_bounds_out_of_range():
    for q in (1.0, 0.5, -2.0, np.nan, np.inf):
        with pytest.raises(BadParameter,
                           match=f"^aspect ratio must be finite and exceed 1, got {q}$"):
            mp_bounds(q)


def test_mp_density_outside_support():
    assert mp_density(0.1, 3.79) == 0.0
    assert mp_density(3.0, 3.79) == 0.0


def test_mp_density_normalization():
    lo, hi = mp_bounds(3.79)
    total, _ = integrate.quad(lambda x: mp_density(x, 3.79), lo, hi)
    assert abs(total - 1.0) <= 1e-6


def test_mp_density_value_high_precision_oracle():
    # frozen from a 50-digit decimal evaluation of the closed form
    assert mp_density(1.0, 3.79) == pytest.approx(0.59889647694228066, abs=1e-12)
    assert mp_density(1.0, 3.79) == pytest.approx(mp_density_decimal(1.0, 3.79), abs=1e-12)
    assert round(mp_density(1.0, 3.79), 3) == 0.599


def test_mp_leakage_fraction_at_panel_shape():
    # finite-size leakage outside the asymptotic support stays below 2%
    fractions = []
    lo, hi = mp_bounds(239 / 63)
    for seed in range(40):
        w = synth.generate(synth.SynthSpec(n_series=63, n_obs=239, seed=900 + seed))
        lam = np.linalg.eigvalsh(w.values @ w.values.T / w.n_obs)
        fractions.append(np.mean((lam < lo) | (lam > hi)))
    assert np.mean(fractions) < 0.02


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_matches_mp_for_sampled_eigenvalues():
    q = 239 / 63
    ref = MpReference(q)
    rng = np.random.default_rng(100)
    samples = ref.sample(10_000, rng)
    density, edges = np.histogram(samples, bins=60, density=True)
    # histogram-implied CDF vs reference CDF at the bin edges
    cum = np.concatenate([[0.0], np.cumsum(density * np.diff(edges))])
    gap = np.abs(cum - ref.cdf(edges)).max()
    assert gap <= 0.05


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_corr_csv_round_trip(planted_panel, tmp_path):
    c = correlation_matrix(planted_panel)
    path = tmp_path / "corr.csv"
    corr_to_csv(c, path)
    back = corr_from_csv(path)
    assert np.array_equal(back.values, c.values)
    assert back.kind == c.kind
    assert back.n_goods == c.n_goods


def test_corr_json_round_trip(planted_panel):
    c = correlation_matrix(planted_panel)
    text = io.StringIO()
    _write_corr(c, io.StringIO(), text)
    back = corr_from_json(json.loads(text.getvalue()))
    assert np.array_equal(back.values, c.values)


# finite floats at each of repr's forms and switches: signed zeros, subnormals
# and the smallest normal, the exponent form below 1e-4 and at or above 1e16
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-4,
               9.999999999999999e-05, -1e-05, 0.1, -1.0, 1.0]
WIDE_FLOATS = [9999999999999998.0, 1e16, -1.2345678901234567e21, 1.7976931348623157e308]


@given(st.integers(1, 6), st.booleans(), st.data())
def test_one_pass_matrix_texts_equal_two_renderings(m, inside, data):
    # a CorrMatrix holds entries within 1.05 of 0; a stand-in with the four
    # attributes the writer reads carries any finite float to it
    cell = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1.0, 1.0))
    if not inside:
        cell = st.one_of(cell, st.sampled_from(WIDE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(data.draw(st.lists(cell, min_size=m * m, max_size=m * m))).reshape(m, m)
    if inside:
        # mirror the upper triangle; np.where keeps a -0.0 that addition would lose
        values = np.where(np.triu(np.ones((m, m), bool), 1), values, values.T)
        np.fill_diagonal(values, 1.0)
        c = CorrMatrix(values=values, n_modes=data.draw(st.integers(0, m)))
    else:
        kind = data.draw(st.sampled_from(["raw", "genuine"]))
        c = SimpleNamespace(kind=kind, m=m, n_goods=m // 3 if m % 3 == 0 else None,
                            n_modes=None if kind == "raw" else data.draw(st.integers(0, m)),
                            values=values)
    lead = data.draw(st.sampled_from([{}, {"config": {"k": 2, "window": None, "é": "x"}}]))
    csv_text, json_text = io.StringIO(), io.StringIO()
    _write_corr(c, csv_text, json_text, lead)
    assert (csv_text.getvalue(), json_text.getvalue()) == corr_texts(c, lead)
    alone = io.StringIO()
    corr_to_csv(c, alone)
    assert alone.getvalue() == csv_text.getvalue()
    if inside:
        assert corr_from_json(json.loads(json_text.getvalue())).values.tobytes() == \
            corr_from_csv(io.StringIO(csv_text.getvalue())).values.tobytes() == c.values.tobytes()


def test_corr_csv_in_memory():
    w = panel_from_rows([[1, -1, 1, -1], [1, 1, -1, -1]])
    c = correlation_matrix(w)
    buf = io.StringIO()
    corr_to_csv(c, buf)
    buf.seek(0)
    back = corr_from_csv(buf)
    assert np.array_equal(back.values, c.values)


# every matrix check is written "not x <= tol", so NaN never passes

NAN_MATRICES = {
    "off-diagonal": [[1.0, np.nan], [np.nan, 1.0]],
    "one-sided": [[1.0, np.nan], [0.5, 1.0]],
    "diagonal": [[np.nan, 0.5], [0.5, 1.0]],
    "infinite": [[1.0, np.inf], [np.inf, 1.0]],
}


@pytest.mark.parametrize("kind", ["raw", "genuine"])
@pytest.mark.parametrize("name", sorted(NAN_MATRICES))
def test_corr_matrix_rejects_nan(kind, name):
    with pytest.raises(SchemaError, match="symmetr|diagonal|exceed"):
        CorrMatrix(values=np.array(NAN_MATRICES[name]), n_modes=None if kind == "raw" else 2)


@pytest.mark.parametrize("name", sorted(NAN_MATRICES))
def test_corr_readers_reject_nan(tmp_path, name):
    values = NAN_MATRICES[name]
    cells = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    path = tmp_path / "c.csv"
    path.write_text(f"kind,m,goods,k\ngenuine,2,,2\n{cells}\n")
    with pytest.raises(SchemaError, match="symmetr|diagonal|exceed"):
        corr_from_csv(path)
    doc = {"kind": "genuine", "m": 2, "goods": None, "k": 2, "values": values}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for source in (doc, path):
        with pytest.raises(SchemaError, match="symmetr|diagonal|exceed"):
            corr_from_json(source)


# a call on bad input, its error type and a message fragment
REFUSED = {
    "CorrMatrix, empty": (lambda: CorrMatrix(np.zeros((0, 0))), SchemaError, "has no series"),
    "CorrMatrix, not square": (
        lambda: CorrMatrix(np.ones((2, 3))), SchemaError, "must be square"),
    "CorrMatrix, diagonal": (
        lambda: CorrMatrix(np.diag([2.0, 1.0])), SchemaError, "diagonal entries must equal 1"),
    "CorrMatrix, raw not PSD": (  # eigenvalues -0.8, 1.9, 1.9
        lambda: CorrMatrix(np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])),
        SchemaError, "not positive semidefinite"),
    "CorrMatrix, entry above 1": (
        lambda: CorrMatrix(np.array([[1.0, 1.5], [1.5, 1.0]])),
        SchemaError, r"entries exceed \[-1, 1\] by 5.000e-01"),
    "ModeBasis, NaN eigenvalue": (
        lambda: ModeBasis(np.array([np.nan, 1.0]), np.eye(2)), SchemaError, "must be finite"),
    "ModeBasis, not orthonormal": (
        lambda: ModeBasis(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])),
        SchemaError, "eigenvectors are not orthonormal"),
    "ModeSeries, 1-D coefficients": (
        lambda: ModeSeries(parse_month("1988-01") + np.arange(3), np.zeros(3)),
        SchemaError, "mode coefficients and months are inconsistent"),
    "corr_from_csv, bad header": (
        lambda: corr_from_csv(io.StringIO("kind,m,goods,k\nraw,two,,\n1.0\n")),
        SchemaError, r"^bad correlation-matrix header \['raw', 'two', '', ''\]$"),
    "corr_from_csv, bad cell": (
        lambda: corr_from_csv(io.StringIO("kind,m,goods,k\nraw,2,,\n1.0,x\nx,1.0\n")),
        SchemaError, "^bad correlation-matrix cell: could not convert string to float: 'x'$"),
    "ModeBasis, empty": (lambda: ModeBasis(np.zeros(0), np.zeros((0, 0))), SchemaError, "no modes"),
    "ModeBasis, vectors not square": (
        lambda: ModeBasis(np.ones(2), np.ones((2, 3))), SchemaError, "must be M x M"),
    "ModeBasis, unsorted": (
        lambda: ModeBasis(np.array([1.0, 2.0]), np.eye(2)), SchemaError, "descending order"),
    "ModeSeries, months": (
        lambda: ModeSeries(parse_month("1988-01") + np.arange(3), np.zeros((2, 4))),
        SchemaError, "months are inconsistent"),
    "ModeSeries, no modes": (
        lambda: ModeSeries(parse_month("1988-01") + np.arange(3), np.zeros((0, 3))),
        SchemaError, "^mode coefficients are empty: 0 series, 3 months$"),
    "ModeSeries, no months": (
        lambda: ModeSeries(parse_month("1988-01") + np.arange(0), np.zeros((2, 0))),
        SchemaError, "^mode coefficients are empty: 2 series, 0 months$"),
    "corr_from_csv, not a matrix": (
        lambda: corr_from_csv(io.StringIO("a,b\n1,2\n3,4\n")),
        SchemaError, "not a correlation-matrix CSV"),
    "corr_from_csv, extra body rows": (
        lambda: corr_from_csv(io.StringIO(  # the identity, then one row more
            "kind,m,goods,k\nraw,3,1,\n1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n0.0,0.0,1.0\n")),
        SchemaError, r"^correlation-matrix body is not 3 x 3$"),
    "corr_from_json, m": (
        lambda: corr_from_json(
            {"kind": "raw", "m": 5, "goods": 1, "k": None, "values": np.eye(3).tolist()}),
        SchemaError, r"^correlation-matrix document: m must be 3, the size of its matrix, got 5$"),
    "corr_from_json, kind": (
        lambda: corr_from_json({"kind": "partial", "values": np.eye(2).tolist()}),
        SchemaError, "kind must be 'raw' when k is None, got 'partial'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_bad_spectral_input_is_refused(case):
    call, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("field, index", [
    ("eigenvalues", (0,)), ("eigenvalues", (1,)), ("vectors", (0, 1)), ("vectors", (1, 1)),
])
def test_mode_basis_rejects_nan(field, index):
    basis = eigendecompose(CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
    arrays = {"eigenvalues": basis.eigenvalues.copy(), "vectors": basis.vectors.copy()}
    arrays[field][index] = np.nan
    with pytest.raises(SchemaError):
        ModeBasis(**arrays)


# the constructor field (None for goods, which only a document records), its
# document/CSV header field, a refused value and the message
BAD_COUNTS = [
    (None, "goods", 2.0, "goods must be an integer, got 2.0"),
    (None, "goods", True, "goods must be an integer, got True"),
    (None, "goods", "2", "goods must be an integer, got '2'"),
    (None, "goods", -2, "goods must be 2 for 6 series, got -2"),
    (None, "goods", 0, "goods must be 2 for 6 series, got 0"),
    ("n_modes", "k", 2.0, "n_modes must be an integer, got 2.0"),
    ("n_modes", "k", True, "n_modes must be an integer, got True"),
    ("n_modes", "k", np.bool_(False), "n_modes must be an integer, got "),
    ("n_modes", "k", -3, r"n_modes -3 outside \[0, 6\]"),
    ("n_modes", "k", 99, r"n_modes 99 outside \[0, 6\]"),
    ("n_modes", "k", 7, r"n_modes 7 outside \[0, 6\]"),
]


@pytest.mark.parametrize("field, key, value, message", BAD_COUNTS)
def test_corr_matrix_counts_must_be_integers_in_range(tmp_path, field, key, value, message):
    if field is not None:
        with pytest.raises(SchemaError, match=message):
            CorrMatrix(np.eye(6), **{field: value})
    doc = {"kind": "genuine", "m": 6, "goods": 2, "k": 0, "values": np.eye(6).tolist()}
    if not isinstance(value, np.bool_):  # JSON has no NumPy scalars
        with pytest.raises(SchemaError, match=message):
            corr_from_json({**doc, key: value})
    if type(value) is int:  # the CSV reader parses its header cells as ints
        head = {"goods": 2, "k": 0, key: value}
        cells = "\n".join(",".join(map(repr, row)) for row in np.eye(6).tolist())
        path = tmp_path / "c.csv"
        path.write_text(f"kind,m,goods,k\ngenuine,6,{head['goods']},{head['k']}\n{cells}\n")
        with pytest.raises(SchemaError, match=message):
            corr_from_csv(path)


# a genuine matrix that is not positive semidefinite (eigenvalues -0.8, 1.9, 1.9)
NOT_PSD = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]

# a change to a matrix document, and the refusal naming its field
MISRECORDED = {
    "raw with k": ({"kind": "raw"}, "kind must be 'genuine' when k is 2, got 'raw'"),
    "genuine without k": ({"k": None}, "kind must be 'raw' when k is None, got 'genuine'"),
    "goods empty for M = 3G": ({"goods": None}, "goods must be 1 for 3 series, got None"),
    "goods not M / 3": ({"goods": 2}, "goods must be 1 for 3 series, got 2"),
    "goods without a layout": (
        {"kind": "raw", "k": None, "m": 4, "values": np.eye(4).tolist()},
        "goods must be empty for 4 series, got 1"),
}


@pytest.mark.parametrize("case", sorted(MISRECORDED))
def test_readers_refuse_a_kind_or_goods_the_matrix_does_not_derive(tmp_path, case):
    change, message = MISRECORDED[case]
    doc = {"kind": "genuine", "m": 3, "goods": 1, "k": 2, "values": NOT_PSD, **change}
    with pytest.raises(SchemaError, match=f"^correlation-matrix document: {message}$"):
        corr_from_json(doc)
    head = ",".join("" if doc[key] is None else str(doc[key]) for key in ("kind", "m", "goods", "k"))
    cells = "\n".join(",".join(map(repr, row)) for row in doc["values"])
    path = tmp_path / "c.csv"
    path.write_text(f"kind,m,goods,k\n{head}\n{cells}\n")
    with pytest.raises(SchemaError, match=f"^correlation-matrix header: {message}$"):
        corr_from_csv(path)


def test_counts_are_kept_as_python_ints():
    c = CorrMatrix(np.eye(6), n_modes=np.uint8(0))
    assert (c.n_goods, c.n_modes) == (2, 0) and type(c.n_goods) is type(c.n_modes) is int
    for k in (0, 6):
        doc = {"kind": "genuine", "goods": 2, "values": np.eye(6).tolist(), "k": k}
        assert corr_from_json(doc).n_modes == k
    basis = ModeBasis(np.ones(6), np.eye(6))
    assert basis.n_goods == 2 and type(basis.n_goods) is int


def test_one_nan_eigenvalue_is_rejected():
    with pytest.raises(SchemaError, match="finite"):
        ModeBasis(eigenvalues=np.array([np.nan]), vectors=np.eye(1))
