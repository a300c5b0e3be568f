"""Correlation matrices, eigenmode decomposition, and the Marchenko-Pastur law.

The equal-time correlation matrix of a standardized panel is the time average
C_lm = <w_l(t) w_m(t)>_t.  Its eigendecomposition yields mode strengths
(eigenvalues, summing to M) and orthonormal mode vectors; projecting the panel
onto the vectors gives per-mode time series a_n(t) whose mean-square strengths
reproduce the eigenvalues.

For a panel of independent noise with aspect ratio Q = N'/M > 1 the
eigenvalue density converges to the Marchenko-Pastur form with support
[(1 - sqrt(Q))^2 / Q, (1 + sqrt(Q))^2 / Q]; eigenvalues above that support
are candidates for genuine correlation structure.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from ._files import json_fields, open_text, read_json, read_rows
from .errors import BadParameter, EigensolverFailure, SchemaError
from .panel import (
    StandardizedPanel, Variable, _class_rows, _freeze, _frozen, _goods, _integer,
    _series_by_month,
)

_SYM_TOL = 1e-12
_DIAG_TOL = 1e-12
_RAW_ENTRY_TOL = 1e-9
_GENUINE_ENTRY_TOL = 0.05
_PSD_TOL = 1e-9
_ORTHO_TOL = 1e-10
_EIG_RESID_FACTOR = 1e-9
_SIGN_TOL = 1e-12
_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CorrMatrix:
    """Symmetric unit-diagonal correlation matrix.

    ``n_modes`` records how many modes built a noise-filtered matrix (an
    integer in [0, M], kept as a Python int), and is None for a directly
    measured one.  ``kind`` follows it: "genuine" for a noise-filtered
    matrix, which keeps the unit diagonal but is not guaranteed positive
    semidefinite and may carry off-diagonal entries slightly outside
    [-1, 1] (warned past rounding, 1e-12; tolerated up to +-0.05), else
    "raw" (positive semidefinite).  ``n_goods`` is G when M = 3G, else None.
    """

    values: np.ndarray
    n_modes: int | None = None

    def __post_init__(self):
        v = _freeze(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise SchemaError("correlation matrix must be square")
        if v.size == 0:
            raise SchemaError("correlation matrix has no series")
        # every tolerance test is written "not x <= tol", so a NaN fails it
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN, and fails
            asymmetry = np.abs(v - v.T).max()
        if not asymmetry <= _SYM_TOL:
            raise SchemaError(f"asymmetry {asymmetry:.3e} exceeds {_SYM_TOL}")
        if not np.abs(np.diag(v) - 1.0).max() <= _DIAG_TOL:
            raise SchemaError("diagonal entries must equal 1")
        limit = _RAW_ENTRY_TOL if self.kind == "raw" else _GENUINE_ENTRY_TOL
        over = np.abs(v).max() - 1.0
        if not over <= limit:
            raise SchemaError(f"entries exceed [-1, 1] by {over:.3e}")
        # an excess within the symmetry test's tolerance is rounding, not worth a warning
        if self.kind == "genuine" and over > _SYM_TOL:
            warnings.warn(
                f"noise-filtered matrix has entries outside [-1, 1] by {over:.3e}",
                stacklevel=3,  # past the dataclass's __init__, to whoever built the matrix
            )
        if self.kind == "raw":
            min_eig = float(np.linalg.eigvalsh(v)[0])
            if not min_eig >= -_PSD_TOL:
                raise SchemaError(f"raw matrix not positive semidefinite ({min_eig:.3e})")
        if self.n_modes is not None:
            k = _integer("n_modes", self.n_modes, SchemaError)
            if not 0 <= k <= v.shape[0]:
                raise SchemaError(f"n_modes {k} outside [0, {v.shape[0]}]")
            object.__setattr__(self, "n_modes", k)
        object.__setattr__(self, "values", v)

    @property
    def kind(self) -> str:
        return "raw" if self.n_modes is None else "genuine"

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_goods(self) -> int | None:
        return _goods(self.m)


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Sorted eigenvalues and orthonormal, sign-fixed eigenvectors.

    ``vectors[:, n]`` is the unit-norm vector of mode n (0-based column for
    the 1-based mode n+1); eigenvalues are in descending order.
    ``n_goods`` is G when M = 3G, else None.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        lam = _freeze(np.asarray(self.eigenvalues, dtype=float))
        vec = _freeze(np.asarray(self.vectors, dtype=float))
        m = lam.size
        if m < 1:
            raise SchemaError("mode basis has no modes")
        if vec.shape != (m, m):
            raise SchemaError("eigenvector matrix must be M x M")
        if not np.isfinite(lam).all():
            raise SchemaError("eigenvalues must be finite")
        if not np.all(np.diff(lam) <= 1e-10):
            raise SchemaError("eigenvalues must be sorted in descending order")
        gram = vec.T @ vec
        if not np.abs(gram - np.eye(m)).max() <= _ORTHO_TOL:
            raise SchemaError("eigenvectors are not orthonormal")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def m(self) -> int:
        return self.eigenvalues.size

    @property
    def n_goods(self) -> int | None:
        return _goods(self.m)


@dataclass(frozen=True, eq=False)
class ModeSeries:
    """Projection coefficients a_n(t_j) of a panel on a mode basis (M x N'; row n-1 is mode n)."""

    months: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        months, coeffs = _series_by_month(self.months, self.coeffs, "mode coefficients")
        object.__setattr__(self, "months", _freeze(months))
        object.__setattr__(self, "coeffs", _freeze(coeffs))


# ---------------------------------------------------------------------------
# construction and decomposition
# ---------------------------------------------------------------------------


def correlation_matrix(w: StandardizedPanel) -> CorrMatrix:
    """Equal-time correlation matrix C_lm = <w_l(t) w_m(t)>_t."""
    gram = w.values @ w.values.T
    gram /= w.n_obs
    values = gram + gram.T
    values /= 2.0
    # unit by construction for standardized input; drop the rounding dust
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(values=_frozen(values))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Orient each column deterministically.

    The orientation sum runs over the production block (first G components)
    when M = 3G, otherwise over all components; on a vanishing sum the
    largest-magnitude component is made positive.
    """
    v = vectors.copy()
    m = v.shape[0]
    block = slice(None) if _goods(m) is None else _class_rows(Variable.PRODUCTION, m)
    for i in range(v.shape[1]):
        s = v[block, i].sum()
        if abs(s) <= _SIGN_TOL:
            lead = int(np.argmax(np.abs(v[:, i])))
            s = v[lead, i]
        if s < 0:
            v[:, i] = -v[:, i]
    return v


def _break_ties(lam: np.ndarray, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder equal eigenvalues by descending lexicographic column order."""
    m = lam.size
    order = list(range(m))
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and abs(lam[stop] - lam[start]) <= _TIE_TOL * max(1.0, abs(lam[start])):
            stop += 1
        if stop - start > 1:
            group = order[start:stop]
            group.sort(key=lambda i: tuple(vec[:, i]), reverse=True)
            order[start:stop] = group
        start = stop
    order = np.asarray(order)
    return lam[order], vec[:, order]


def eigendecompose(c: CorrMatrix) -> ModeBasis:
    """Eigenvalues (descending) and sign-fixed orthonormal eigenvectors."""
    values = c.values
    lam, vec = np.linalg.eigh(values)
    lam, vec = lam[::-1].copy(), vec[:, ::-1].copy()
    vec = _fix_signs(vec)
    lam, vec = _break_ties(lam, vec)
    resid = np.abs(values @ vec - vec * lam).max()
    if not resid <= _EIG_RESID_FACTOR * lam.size:
        raise EigensolverFailure(f"eigensolver residual {resid:.3e} too large")
    return ModeBasis(eigenvalues=_frozen(lam), vectors=_frozen(vec))


def mode_series(w: StandardizedPanel, basis: ModeBasis) -> ModeSeries:
    """Per-mode time series a_n(t_j), recovered by orthonormal projection.

    Summing a_n(t_j) V_l^(n) over all M modes reconstructs w_l(t_j) exactly.
    """
    if basis.m != w.n_series:
        raise SchemaError(
            f"basis dimension {basis.m} does not match panel {w.n_series}"
        )
    return ModeSeries(months=w.months, coeffs=_frozen(basis.vectors.T @ w.values))


def reconstruct(basis: ModeBasis, modes: Iterable[int]) -> np.ndarray:
    """Partial spectral sum over the given 1-based mode indices."""
    idx = np.array(sorted({_integer("mode", n) for n in modes}), dtype=int)
    for n in idx:
        if not 1 <= n <= basis.m:
            raise BadParameter(f"mode {n} outside [1, {basis.m}]")
    v = basis.vectors[:, idx - 1]
    return (v * basis.eigenvalues[idx - 1]) @ v.T


# ---------------------------------------------------------------------------
# Marchenko-Pastur reference law
# ---------------------------------------------------------------------------


def mp_bounds(q: float) -> tuple[float, float]:
    """Support bounds (1 -+ sqrt(Q))^2 / Q of the Marchenko-Pastur density, for finite Q > 1."""
    if not 1.0 < q < np.inf:
        raise BadParameter(f"aspect ratio must be finite and exceed 1, got {q}")
    root = np.sqrt(q)
    return float((1.0 - root) ** 2 / q), float((1.0 + root) ** 2 / q)


def mp_density(lam: float | np.ndarray, q: float) -> float | np.ndarray:
    """Marchenko-Pastur eigenvalue density at lam for aspect ratio q > 1."""
    lo, hi = mp_bounds(q)
    lam_arr = np.asarray(lam, dtype=float)
    inside = (lam_arr >= lo) & (lam_arr <= hi)
    radicand = np.where(inside, (hi - lam_arr) * (lam_arr - lo), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(
            inside, q / (2.0 * np.pi) * np.sqrt(radicand) / lam_arr, 0.0
        )
    return float(dens) if np.isscalar(lam) else dens


# ---------------------------------------------------------------------------
# serialization (exact round trip via repr-precision floats)
# ---------------------------------------------------------------------------


def corr_to_csv(c: CorrMatrix, target: str | Path | TextIO) -> None:
    """Row-major CSV with a two-line header carrying kind and dimensions."""
    with open_text(target, "w") as fh:
        _write_corr(c, fh)


def _write_corr(c: CorrMatrix, csv_fh: TextIO, json_fh: TextIO | None = None,
                lead: dict | None = None) -> None:
    """Write ``c``'s CSV text to ``csv_fh`` and, if given, its JSON document to ``json_fh``.

    The document is the text of ``json.dumps({**lead, "kind": ..., "m": ...,
    "goods": ..., "k": ..., "values": c.values.tolist()})``;
    :func:`corr_from_json` reads it back.  Each matrix row is rendered once,
    as ``repr`` of its list, and written to both files before the next, so
    at most one row's text is held.
    """
    goods = "" if c.n_goods is None else c.n_goods
    k = "" if c.n_modes is None else c.n_modes
    csv_fh.write(f"kind,m,goods,k\n{c.kind},{c.m},{goods},{k}\n")
    fields = {**(lead or {}), "kind": c.kind, "m": c.m, "goods": c.n_goods, "k": c.n_modes}
    sep = json.dumps(fields)[:-1] + ', "values": ['
    for row in c.values:
        # a finite float's repr (a CorrMatrix holds no other) is its json.dumps
        # text, and holds neither a bracket nor ", "
        text = repr(row.tolist())
        csv_fh.write(text[1:-1].replace(", ", ",") + "\n")
        if json_fh is not None:
            json_fh.write(sep + text)
            sep = ", "
    if json_fh is not None:
        json_fh.write("]}")


def _recorded(what: str, values: np.ndarray, kind, m, goods, k) -> CorrMatrix:
    """The matrix a document records, if its ``kind``, ``m`` and ``goods`` are the derived ones.

    ``kind`` must be "genuine" when ``k`` is present and "raw" otherwise; it
    is checked before the matrix, so a mislabelled matrix is refused as
    such.  ``m``, where recorded (not None), must be the matrix's M.
    ``goods`` must be G when M = 3G, and empty (None) otherwise.
    """
    expected = "raw" if k is None else "genuine"
    if kind != expected:
        raise SchemaError(f"{what}: kind must be {expected!r} when k is {k!r}, got {kind!r}")
    c = CorrMatrix(values=values, n_modes=k)
    if m is not None and _integer(f"{what}: m", m, SchemaError) != c.m:
        raise SchemaError(f"{what}: m must be {c.m}, the size of its matrix, got {m!r}")
    if goods is not None:
        goods = _integer(f"{what}: goods", goods, SchemaError)
    if goods != c.n_goods:
        derived = "empty" if c.n_goods is None else c.n_goods
        raise SchemaError(f"{what}: goods must be {derived} for {c.m} series, got {goods!r}")
    return c


def corr_from_csv(source: str | Path | TextIO) -> CorrMatrix:
    """Read a :func:`corr_to_csv` file; ``kind``, ``m`` and ``goods`` must be the derived ones."""
    with open_text(source) as fh:
        rows = list(read_rows(fh))
    if len(rows) < 3 or rows[0][:2] != ["kind", "m"]:
        raise SchemaError("not a correlation-matrix CSV")
    head = dict(zip(rows[0], rows[1]))
    try:
        kind, m = head["kind"], int(head["m"])
        n_goods = int(head["goods"]) if head.get("goods") else None
        n_modes = int(head["k"]) if head.get("k") else None
    except (KeyError, ValueError):
        raise SchemaError(f"bad correlation-matrix header {rows[1]!r}") from None
    body = rows[2:]
    if len(body) != m or any(len(row) != m for row in body):
        raise SchemaError(f"correlation-matrix body is not {m} x {m}")
    try:
        values = _frozen(np.array(body, dtype=float))
    except ValueError as exc:
        raise SchemaError(f"bad correlation-matrix cell: {exc}") from None
    return _recorded("correlation-matrix header", values, kind, m, n_goods, n_modes)


def corr_from_json(source: str | Path | TextIO | dict) -> CorrMatrix:
    """Read a matrix document; its ``kind``, ``m`` and ``goods`` must be the derived ones."""
    doc = read_json(source)
    with json_fields("correlation-matrix document"):
        values = _frozen(np.array(doc["values"], dtype=float))
        return _recorded("correlation-matrix document", values,
                         doc["kind"], doc.get("m"), doc.get("goods"), doc.get("k"))
