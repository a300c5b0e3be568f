import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelresponse import (
    CorrMatrix,
    StandardizedPanel,
    correlation_matrix,
    default_mode_count,
    eigendecompose,
    genuine_matrix,
    null_ensemble,
)
from panelresponse.errors import BadParameter, SchemaError


def test_zero_modes_gives_identity(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    cg = genuine_matrix(basis, 0)
    assert np.array_equal(cg.values, np.eye(basis.m))
    assert cg.kind == "genuine"
    assert cg.n_modes == 0


@given(m=st.integers(2, 10), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_all_modes_reproduces_raw_property(m, extra, seed):
    x = np.random.default_rng(seed).standard_normal((m, m + 1 + extra))
    c = correlation_matrix(StandardizedPanel.from_values(
        (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    ))
    cg = genuine_matrix(eigendecompose(c), m)
    assert np.abs(cg.values - c.values).max() <= 1e-12


def test_all_modes_reproduces_raw(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    cg = genuine_matrix(basis, basis.m)
    assert np.abs(cg.values - c.values).max() <= 1e-10


def test_rank_one_case_unchanged():
    basis = eigendecompose(CorrMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    cg = genuine_matrix(basis, 1)
    assert np.allclose(cg.values, [[1, 1], [1, 1]], atol=1e-12)


def test_unit_diagonal_and_symmetry_exact(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    cg = genuine_matrix(basis, 2)
    assert np.all(np.diag(cg.values) == 1.0)
    assert np.array_equal(cg.values, cg.values.T)
    assert cg.n_goods == 21
    assert cg.n_modes == 2


def test_mode_count_out_of_range(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    with pytest.raises(BadParameter, match=r"mode count -1 outside \[0, 63\]"):
        genuine_matrix(basis, -1)
    with pytest.raises(BadParameter, match=r"mode count 64 outside \[0, 63\]"):
        genuine_matrix(basis, basis.m + 1)


def test_frobenius_distance_non_increasing(planted_panel):
    c = correlation_matrix(planted_panel)
    basis = eigendecompose(c)
    distances = [
        np.linalg.norm(genuine_matrix(basis, k).values - c.values)
        for k in range(basis.m + 1)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(distances, distances[1:]))


def test_genuine_kind_tolerates_mild_overshoot_with_warning():
    # genuine matrices are not PSD-constrained; entries slightly past 1 warn
    values = np.array([[1.0, 1.02], [1.02, 1.0]])
    with pytest.warns(UserWarning, match=r"outside \[-1, 1\] by 2.000e-02") as record:
        cg = CorrMatrix(values=values, n_modes=1)
    assert record[0].filename == __file__  # names whoever built the matrix
    assert np.linalg.eigvalsh(cg.values)[0] < 0  # indefinite is accepted
    # rounding past 1 (a two-month window's rank-one matrix reaches 5e-15) does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CorrMatrix(values=np.array([[1.0, 1.0 + 5e-15], [1.0 + 5e-15, 1.0]]), n_modes=1)
    with pytest.raises(SchemaError):
        CorrMatrix(values=np.array([[1.0, 1.2], [1.2, 1.0]]), n_modes=1)
    with pytest.raises(SchemaError):
        CorrMatrix(values=values)


def test_off_diagonals_within_unit_interval(planted_panel):
    # partial spectral sums of a true correlation matrix stay inside [-1, 1]
    basis = eigendecompose(correlation_matrix(planted_panel))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 5):
            cg = genuine_matrix(basis, k)
            assert np.abs(cg.values).max() <= 1.0 + 1e-12


def test_default_mode_count_from_rotational_edge(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    ensemble = null_ensemble(planted_panel, "rotational", 200, seed=17)
    assert default_mode_count(basis, ensemble) == 2
