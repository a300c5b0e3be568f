"""Linear response under the fluctuation-dissipation ansatz.

In equilibrium, the susceptibility matrix relating induced mean shifts to
weak constant external fields is proportional to the unperturbed correlation
matrix: chi = beta * C.  Eliminating the unobservable field gives the ripple
relation <w_l> = C_lm <w_m>: the correlation entries themselves quantify how
a unit shift applied to one series propagates to every other.  The same
relation follows from Onsager's regression hypothesis, or simply from the
conditional expectation of one standardized Gaussian variable given another.

With the noise-filtered matrix in place of the raw one, these relations read
off interindustrial ripple effects directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from ._files import write_rows
from .errors import BadParameter, SchemaError
from .panel import DEFAULT_GOODS_LABELS, SeriesId, Variable, _frozen, _goods, _layout_entries, _row
from .spectral import CorrMatrix, ModeBasis


@dataclass(frozen=True, eq=False)
class RippleReport:
    """Responses of all series to a shift applied at one source series.

    ``responses`` is read-only, one entry per series of a 3 x G layout (else
    SchemaError); ``n_goods`` is derived from their number M = 3G.  The
    source and the shift are the caller's arguments, not kept here.
    """

    responses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "responses", _layout_entries(self.responses, "response"))

    @property
    def n_goods(self) -> int:
        return _goods(self.responses.size)

    def response(self, sid: SeriesId) -> float:
        return float(self.responses[_row(sid, self.responses.size)])


@dataclass(frozen=True, eq=False)
class ReducedSusceptibility:
    """Susceptibility projected on the leading eigenmodes (k x k, symmetric)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _frozen((v + v.T) / 2.0))

    @property
    def normalized(self) -> np.ndarray:
        """Values relative to the leading diagonal entry."""
        return self.values / self.values[0, 0]


def ripple(cg: CorrMatrix, source: SeriesId, shift: float = 1.0) -> RippleReport:
    """Mean shifts induced in every series by a shift at the source series.

    The response of series l is C_lm * shift where m is the source; the
    source itself responds with exactly the applied shift (unit diagonal).
    Interpretation is up to the caller: any source/target pair is computed,
    but the economically grounded direction is shipments of final demand
    goods driving production of producer goods.
    """
    if not np.isfinite(shift):
        raise BadParameter(f"shift must be finite, got {shift}")
    idx = _row(source, cg.m)
    responses = cg.values[:, idx] * shift
    responses[idx] = shift  # unit diagonal, kept exact
    return RippleReport(responses=responses)


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


def reduced_susceptibility(
    c: CorrMatrix,
    basis: ModeBasis,
    k: int = 2,
    beta: float = 1.0,
) -> ReducedSusceptibility:
    """Susceptibility in the subspace of the first k eigenmodes.

    chi_hat[m, n] = beta * V(m)^T C V(n).  On the raw correlation matrix
    this is exactly beta * diag(lambda_1 .. lambda_k) by orthonormality; on
    the noise-filtered matrix the diagonal reset adds small corrections.
    """
    if not 0 < beta < np.inf:
        raise BadParameter(f"beta must be positive and finite, got {beta}")
    if not 1 <= k <= basis.m:
        raise BadParameter(f"mode count {k} outside [1, {basis.m}]")
    if c.m != basis.m:
        raise SchemaError("matrix and basis dimensions differ")
    vk = basis.vectors[:, :k]
    return ReducedSusceptibility(values=beta * (vk.T @ c.values @ vk))
