"""Noise-filtered ("genuine") correlation matrix from significant modes.

Keeping only the statistically significant eigenmodes in the spectral sum
and resetting the diagonal to one yields a correlation matrix that retains
the measured mutual correlations while discarding the finite-sample noise
floor.  The result is symmetric with a unit diagonal by construction but is
not guaranteed positive semidefinite; downstream linear-response relations
use its entries individually, so that loss is benign.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter
from .nullmodel import NullEnsemble
from .panel import _frozen, _integer
from .spectral import CorrMatrix, ModeBasis, reconstruct


def genuine_matrix(basis: ModeBasis, k: int) -> CorrMatrix:
    """Low-rank reconstruction from the first k modes, diagonal reset to 1.

    k = 0 yields the identity; k = M reproduces the raw matrix (whose
    diagonal is already one).
    """
    k = _integer("mode count", k)
    if not 0 <= k <= basis.m:
        raise BadParameter(f"mode count {k} outside [0, {basis.m}]")
    values = reconstruct(basis, range(1, k + 1))
    np.fill_diagonal(values, 1.0)
    values = (values + values.T) / 2.0
    return CorrMatrix(values=_frozen(values), n_modes=k)


def default_mode_count(basis: ModeBasis, ensemble: NullEnsemble) -> int:
    """Significant-mode count: the eigenvalues strictly above the null edge.

    The threshold is ``ensemble.edge.high``, the high end of the
    rotational-shuffle (or other null) largest-eigenvalue interval at 95%,
    so a mode counts only when it clears the null edge including its Monte
    Carlo uncertainty.
    """
    return int(np.sum(basis.eigenvalues > ensemble.edge.high))
