"""Linear response under the fluctuation-dissipation ansatz.

In equilibrium, the susceptibility matrix relating induced mean shifts to
weak constant external fields is proportional to the unperturbed correlation
matrix: chi = beta * C.  Eliminating the unobservable field gives the ripple
relation <w_l> = C_lm <w_m>: the correlation entries themselves quantify how
a unit shift applied to one series propagates to every other.  The same
relation follows from Onsager's regression hypothesis, or simply from the
conditional expectation of one standardized Gaussian variable given another.

No panel measures beta, so susceptibilities are given per unit beta and
ripple responses per unit shift; any other value only scales them.  Both
are returned as plain read-only arrays.

With the noise-filtered matrix in place of the raw one, these relations read
off interindustrial ripple effects directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

import numpy as np

from ._files import write_rows
from .errors import BadParameter, SchemaError
from .panel import DEFAULT_GOODS_LABELS, SeriesId, Variable, _frozen, _integer, _row
from .spectral import CorrMatrix, ModeBasis


def ripple(cg: CorrMatrix, source: SeriesId) -> np.ndarray:
    """Mean shifts induced in every series by a unit shift at the source series.

    Returns a read-only array with one response per series, in flat order:
    the response of series l is C_lm where m is the source, and the source
    itself responds with exactly 1 (unit diagonal).  A response is linear in the
    shift, so any other shift only scales the column.  Interpretation is up
    to the caller: any source/target pair is computed, but the economically
    grounded direction is shipments of final demand goods driving production
    of producer goods.
    """
    idx = _row(source, cg.m)
    responses = cg.values[:, idx].copy()
    responses[idx] = 1.0  # unit diagonal, kept exact
    return _frozen(responses)


def final_to_intermediate(cg: CorrMatrix) -> np.ndarray:
    """Ripple table from final-demand shipments to producer-goods production.

    Returns a 19 x 2 array: row g (1-based final demand goods category),
    column 0 the response of production of goods 20 (Mining & Manufacturing)
    and column 1 of goods 21 (Others) to a unit growth-rate increase in
    shipments of goods g.  Requires the standard 21-goods layout.
    """
    if cg.n_goods != 21:
        raise BadParameter(f"expected the 21-goods layout, got {cg.n_goods}")
    prod = _row(SeriesId(Variable.PRODUCTION, 20), cg.m)  # P.20 and P.21
    ship = _row(SeriesId(Variable.SHIPMENTS, 1), cg.m)  # S.1 .. S.19
    return cg.values[prod:prod + 2, ship:ship + 19].T.copy()


def final_to_intermediate_csv(
    genuine: CorrMatrix, raw: CorrMatrix, target: str | Path | TextIO
) -> None:
    """Write the final-demand -> producer-goods table with goods labels.

    Columns g20/g21 of the noise-filtered matrix come first, then those of the raw one.
    """
    header = ["goods", "label", "g20_genuine", "g21_genuine", "g20_raw", "g21_raw"]
    table = np.hstack([final_to_intermediate(genuine), final_to_intermediate(raw)])
    write_rows(target, [
        header,
        *([g, DEFAULT_GOODS_LABELS[g], *row] for g, row in enumerate(table.tolist(), 1)),
    ])


def reduced_susceptibility(c: CorrMatrix, basis: ModeBasis, k: int) -> np.ndarray:
    """Susceptibility per unit beta in the subspace of the first k eigenmodes.

    Returns the read-only k x k array chi_hat[m, n] = V(m)^T C V(n), in
    units of beta, symmetrized as (v + v^T) / 2 so that rounding leaves no
    asymmetry.  On the raw correlation matrix this is exactly
    diag(lambda_1 .. lambda_k) by orthonormality; on the noise-filtered
    matrix the diagonal reset adds small corrections.  ``chi / chi[0, 0]``,
    the values relative to the leading diagonal entry, does not depend on
    beta at all.
    """
    k = _integer("mode count", k)
    if not 1 <= k <= basis.m:
        raise BadParameter(f"mode count {k} outside [1, {basis.m}]")
    if c.m != basis.m:
        raise SchemaError("matrix and basis dimensions differ")
    vk = basis.vectors[:, :k]
    v = vk.T @ c.values @ vk
    return _frozen((v + v.T) / 2.0)
