import io

import numpy as np
import pytest

from panelresponse import (
    CorrMatrix,
    ModeBasis,
    SeriesId,
    Variable,
    correlation_matrix,
    eigendecompose,
    final_to_intermediate,
    final_to_intermediate_csv,
    genuine_matrix,
    reconstruct,
    reduced_susceptibility,
    ripple,
)
from panelresponse.errors import BadParameter, SchemaError

from oracles import gaussian_regression_slope


def basis_with_leading_mode(loading: np.ndarray, eigenvalue: float) -> ModeBasis:
    """Orthonormal basis whose first mode is the given unit vector."""
    m = loading.size
    seed = np.eye(m)
    seed[:, 0] = loading
    q, _ = np.linalg.qr(seed)
    if q[:, 0] @ loading < 0:
        q[:, 0] = -q[:, 0]
    lams = np.concatenate([[eigenvalue], np.ones(m - 1)])
    return ModeBasis(eigenvalues=lams, vectors=q)


# ---------------------------------------------------------------------------
# ripple
# ---------------------------------------------------------------------------


def test_ripple_identity_matrix():
    cg = CorrMatrix(values=np.eye(3))
    # flat order P.1, S.1, I.1
    assert ripple(cg, SeriesId(Variable.SHIPMENTS, 1)).tolist() == [0.0, 1.0, 0.0]


def test_ripple_half_correlation():
    values = np.eye(3)
    values[0, 1] = values[1, 0] = 0.5
    cg = CorrMatrix(values=values)
    assert ripple(cg, SeriesId(Variable.SHIPMENTS, 1))[0] == pytest.approx(0.5)


def test_ripple_linearity_and_exact_source(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    cg = genuine_matrix(basis, 2)
    source = SeriesId(Variable.SHIPMENTS, 15)
    responses = ripple(cg, source)
    # the linear response to a unit shift is the source's column of the matrix
    column = cg.values[:, source.flat(cg.n_goods) - 1]
    assert np.array_equal(responses, column)
    assert responses[source.flat(cg.n_goods) - 1] == 1.0


def test_ripple_unknown_series(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    cg = genuine_matrix(basis, 2)
    with pytest.raises(BadParameter, match=r"^series P\.22 not in a 21-goods layout$"):
        ripple(cg, SeriesId(Variable.PRODUCTION, 22))
    no_layout = CorrMatrix(values=np.eye(4))
    with pytest.raises(BadParameter, match=r"^series P\.1: 4 series have no 3 x G layout$"):
        ripple(no_layout, SeriesId(Variable.PRODUCTION, 1))


def test_ripple_matches_gaussian_regression(rng):
    # conditional-expectation oracle: regression slope of simulated draws
    corr = np.array([
        [1.0, 0.5, 0.2],
        [0.5, 1.0, 0.3],
        [0.2, 0.3, 1.0],
    ])
    cg = CorrMatrix(values=corr)
    responses = ripple(cg, SeriesId(Variable.PRODUCTION, 1))
    for target in (1, 2):
        slope = gaussian_regression_slope(corr, 0, target, 1_000_000, rng)
        assert abs(responses[target] - slope) <= 0.01


# ---------------------------------------------------------------------------
# final demand -> producer goods table
# ---------------------------------------------------------------------------


def test_ripple_unknown_source_names_its_label():
    cg = CorrMatrix(values=np.eye(63))
    with pytest.raises(BadParameter, match=r"^series S\.99 not in a 21-goods layout$"):
        ripple(cg, SeriesId.parse("S.99"))


def test_final_to_intermediate_identity():
    cg = CorrMatrix(values=np.eye(63))
    assert np.array_equal(final_to_intermediate(cg), np.zeros((19, 2)))


def test_final_to_intermediate_planted_closed_form():
    # one mode loading shipments g=1 and production g=20 equally
    loading = np.zeros(63)
    i_p20 = SeriesId(Variable.PRODUCTION, 20).flat(21) - 1
    i_s1 = SeriesId(Variable.SHIPMENTS, 1).flat(21) - 1
    loading[i_p20] = loading[i_s1] = 1.0 / np.sqrt(2.0)
    lam = 1.8
    basis = basis_with_leading_mode(loading, lam)
    cg = genuine_matrix(basis, 1)
    table = final_to_intermediate(cg)
    assert table[0, 0] == pytest.approx(lam * 0.5, abs=1e-12)  # lambda * V^2
    assert np.abs(table[1:, 0]).max() <= 1e-12
    assert np.abs(table[:, 1]).max() <= 1e-12


def test_final_to_intermediate_layout_mismatch():
    cg = CorrMatrix(values=np.eye(6))
    with pytest.raises(BadParameter, match="expected the 21-goods layout, got 2"):
        final_to_intermediate(cg)


def test_final_to_intermediate_csv(planted_panel):
    craw = correlation_matrix(planted_panel)
    basis = eigendecompose(craw)
    cg = genuine_matrix(basis, 2)
    buf = io.StringIO()
    final_to_intermediate_csv(cg, craw, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "goods,label,g20_genuine,g21_genuine,g20_raw,g21_raw"
    assert len(lines) == 20
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "Manufacturing Equipment"
    table = final_to_intermediate(cg)
    assert float(first[2]) == table[0, 0]


# ---------------------------------------------------------------------------
# reduced susceptibility
# ---------------------------------------------------------------------------


def test_reduced_on_raw_is_diagonal(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    chi = reduced_susceptibility(c, basis, k=2)
    expected = np.diag(basis.eigenvalues[:2])
    assert np.abs(chi - expected).max() <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduced_on_genuine_matrix_is_eigenvalues_plus_diagonal_reset(planted_panel, k):
    # the genuine matrix is R_k with its diagonal reset to one, and
    # V_k^T R_k V_k = diag(lambda_1 .. lambda_k), so only the reset adds to it
    basis = eigendecompose(correlation_matrix(planted_panel))
    chi = reduced_susceptibility(genuine_matrix(basis, k), basis, k=k)
    vk = basis.vectors[:, :k]
    reset = np.eye(basis.m) - np.diag(np.diag(reconstruct(basis, range(1, k + 1))))
    expected = np.diag(basis.eigenvalues[:k]) + vk.T @ reset @ vk
    assert np.abs(chi - expected).max() <= 1e-12


def test_reduced_symmetry_and_normalization(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    cg = genuine_matrix(basis, 2)
    chi = reduced_susceptibility(cg, basis, k=2)
    assert chi.shape == (2, 2) and chi[0, 1] == chi[1, 0]
    assert (chi / chi[0, 0])[0, 0] == 1.0
    # the diagonal correction perturbs the pure eigenvalue ratio only mildly
    ratio = chi[1, 1] / chi[0, 0]
    pure_ratio = basis.eigenvalues[1] / basis.eigenvalues[0]
    assert abs(ratio - pure_ratio) < 0.2


def test_reduced_argument_errors(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    with pytest.raises(BadParameter, match=r"mode count 0 outside \[1, 63\]"):
        reduced_susceptibility(c, basis, k=0)
    with pytest.raises(BadParameter, match=r"mode count 64 outside \[1, 63\]"):
        reduced_susceptibility(c, basis, k=64)
    with pytest.raises(SchemaError, match="matrix and basis dimensions differ"):
        reduced_susceptibility(CorrMatrix(np.eye(3)), basis, k=2)
    # the mode count is the caller's choice: it has no default
    with pytest.raises(TypeError, match="'k'"):
        reduced_susceptibility(c, basis)

