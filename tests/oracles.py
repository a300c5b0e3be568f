"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch (brute-force loops,
direct sums, high-precision arithmetic) so the tests never validate the
package against itself.
"""

from __future__ import annotations

import csv
import io
import json
import tracemalloc
from decimal import Decimal, getcontext
from pathlib import Path
from typing import TextIO

import numpy as np

from panelresponse._files import open_text, write_rows
from panelresponse.errors import BadParameter, MissingData, NonPositiveLevel, SchemaError
from panelresponse.panel import (
    MonthLike,
    Panel,
    SeriesId,
    canonical_ids,
    parse_month,
    parse_window,
)

# ---------------------------------------------------------------------------
# Marchenko-Pastur reference (high-precision closed form + numeric CDF)
# ---------------------------------------------------------------------------

_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")


def mp_density_decimal(lam: float, q: float) -> float:
    """Closed-form density evaluated with 50-digit decimal arithmetic."""
    getcontext().prec = 50
    qd = Decimal(repr(q))
    lamd = Decimal(repr(lam))
    root = qd.sqrt()
    hi = (1 + root) ** 2 / qd
    lo = (1 - root) ** 2 / qd
    if not (lo <= lamd <= hi):
        return 0.0
    rho = (qd / (2 * _PI_50)) * ((hi - lamd) * (lamd - lo)).sqrt() / lamd
    return float(rho)


def mp_bounds_decimal(q: float) -> tuple[float, float]:
    getcontext().prec = 50
    qd = Decimal(repr(q))
    root = qd.sqrt()
    return float((1 - root) ** 2 / qd), float((1 + root) ** 2 / qd)


class MpReference:
    """Grid-based CDF and inverse-CDF sampler for the Marchenko-Pastur law."""

    def __init__(self, q: float, grid_points: int = 20001):
        self.q = q
        lo, hi = mp_bounds_decimal(q)
        self.lo, self.hi = lo, hi
        x = np.linspace(lo, hi, grid_points)
        dens = np.zeros_like(x)
        inner = (x > lo) & (x < hi)
        dens[inner] = (
            q / (2.0 * np.pi) * np.sqrt((hi - x[inner]) * (x[inner] - lo)) / x[inner]
        )
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(x))])
        self._x = x
        self._cdf = cdf / cdf[-1]

    def cdf(self, lam):
        return np.interp(lam, self._x, self._cdf, left=0.0, right=1.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.interp(rng.uniform(0.0, 1.0, size=n), self._cdf, self._x)


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(np.arange(0, n) / n - f)
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# brute-force signal oracles
# ---------------------------------------------------------------------------


def direct_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) direct evaluation of (1/sqrt(N)) sum_j x_j e^{+2 pi i k j / N}."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for j in range(1, n + 1):
            acc += x[j - 1] * np.exp(2j * np.pi * k * j / n)
        out[k] = acc / np.sqrt(n)
    return out


def explicit_reconstruct(vectors: np.ndarray, eigenvalues: np.ndarray, modes) -> np.ndarray:
    """Partial spectral sum, one outer product per 1-based mode index."""
    out = np.zeros((vectors.shape[0], vectors.shape[0]))
    for n in sorted(set(modes)):
        out += eigenvalues[n - 1] * np.outer(vectors[:, n - 1], vectors[:, n - 1])
    return out


def lfilter_ar1_rows(rng: np.random.Generator, phi: np.ndarray, n: int) -> np.ndarray:
    """Stationary AR(1) rows, each filtered by scipy's lfilter.

    Makes the same draws as ``synth._ar1_rows``, so the two agree bit for bit.
    """
    from scipy.signal import lfilter

    rows = np.empty((phi.size, n))
    eps = rng.standard_normal((phi.size, n))
    for i, p in enumerate(phi):
        u = eps[i] * np.sqrt(1.0 - p * p)
        u[0] = eps[i, 0]
        rows[i] = lfilter([1.0], [1.0, -p], u)
    return rows


def brute_moving_average(x: np.ndarray, xi: int) -> np.ndarray:
    """Window mean with explicit clipping, one point at a time."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty(n)
    for j in range(n):
        lo = max(0, j - xi)
        hi = min(n, j + xi + 1)
        out[j] = x[lo:hi].mean()
    return out


def smoothed_lag_correlation(x, y, lag: int, half_width: int) -> float:
    """The smoothing form of ``lag_correlation`` that the library no longer has.

    A copy of the function as it was when it took ``half_width``: it smooths
    both series with ``moving_average`` and then correlates them, so callers
    that now smooth first can be checked against it bit for bit.
    """
    from panelresponse.cycles import moving_average

    xs = moving_average(x, half_width)
    ys = moving_average(y, half_width)
    if xs.size != ys.size:
        raise SchemaError("series lengths differ")
    n = xs.size
    if n - abs(lag) < 2:
        raise BadParameter(f"overlap for lag {lag} shorter than 2 points")
    if lag >= 0:
        num = float(np.mean(xs[lag:] * ys[: n - lag]))
    else:
        num = float(np.mean(xs[: n + lag] * ys[-lag:]))
    den = float(np.sqrt(np.mean(xs**2) * np.mean(ys**2)))
    if den == 0.0:
        raise BadParameter("a smoothed series vanishes identically")
    return num / den


def brute_autocorrelation(x: np.ndarray, lag: int) -> float:
    x = np.asarray(x, dtype=float)
    n = x.size
    acc = 0.0
    for j in range(n - lag):
        acc += x[j] * x[j + lag]
    return acc / (n - lag)


def circular_mean_degrees(phases_deg: np.ndarray, weights: np.ndarray) -> float:
    """Weighted circular mean, computed from scratch."""
    rad = np.radians(np.asarray(phases_deg, dtype=float))
    w = np.asarray(weights, dtype=float)
    s = np.sum(w * np.sin(rad))
    c = np.sum(w * np.cos(rad))
    return float(np.degrees(np.arctan2(s, c)))


# ---------------------------------------------------------------------------
# shuffle-null oracle
# ---------------------------------------------------------------------------


def explicit_null_ensemble(w, mode: str, samples: int, seed: int):
    """(lambda_max, pooled, edge) from one public shuffler call per sample.

    The plain loop the batched ``null_ensemble`` replaces: spawn one Philox
    stream per sample, shuffle with ``rotational_shuffle`` or
    ``complete_shuffle``, form X X^T / N' and take ``eigvalsh``.
    """
    from panelresponse.nullmodel import complete_shuffle, rotational_shuffle

    shuffle = {"rotational": rotational_shuffle, "complete": complete_shuffle}[mode]
    lambda_max = np.empty(samples)
    pooled = np.empty((samples, w.n_series))
    for s, stream in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        x = shuffle(w, np.random.Generator(np.random.Philox(stream))).values
        eigs = np.linalg.eigvalsh(x @ x.T / w.n_obs)
        lambda_max[s] = eigs[-1]
        pooled[s] = eigs[::-1]
    low, high = np.percentile(lambda_max, [2.5, 97.5])
    return lambda_max, pooled, (float(lambda_max.mean()), float(low), float(high))


def complete_null_trace_c2(m: int, n: int) -> float:
    """Exact E[tr C^2] = E[sum of lambda^2] under complete shuffling.

    The correlation of two standardized series, one randomly permuted, has
    mean 0 and variance 1/(N'-1); the M diagonal entries are 1.
    """
    return m + m * (m - 1) / (n - 1)


def rotational_null_trace_c2(values: np.ndarray) -> float:
    """Exact E[tr C^2] under rotational shuffling of a standardized panel.

    C_ij is the cyclic cross-correlation of rows i and j at a uniform lag,
    so by Parseval E[C_ij^2] = sum_k P_i(k) P_j(k) / N'^4 with
    P = |FFT(w)|^2; the M diagonal entries are 1.
    """
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    power = np.abs(np.fft.fft(values, axis=1)) ** 2
    pairs = power @ power.T
    return m + (pairs.sum() - np.trace(pairs)) / n**4


def lagged_trace_c2(values: np.ndarray) -> float:
    """E[tr C^2] under rotational shuffling by direct sums over every lag.

    The slow form of :func:`rotational_null_trace_c2`: the mean over all N'
    relative shifts d of each off-diagonal pair's squared cyclic
    cross-correlation.
    """
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    total = float(m)
    for i in range(m):
        for j in range(m):
            if i != j:
                for d in range(n):
                    total += float(values[i] @ np.roll(values[j], d) / n) ** 2 / n
    return total


# ---------------------------------------------------------------------------
# panel-ingest oracle
# ---------------------------------------------------------------------------


def explicit_load_panel(
    source: str | Path | TextIO,
    window: tuple[MonthLike, MonthLike] | str | None = None,
) -> Panel:
    """A per-cell loader that checks what ``load_panel`` and ``Panel`` check.

    Two loops over the cells: one converts each with ``float`` (empty ->
    None), one checks each in (sorted month, flat series) order: an empty or
    NaN cell is missing, a level <= 0 non-positive and +inf a schema error.
    The month count and the month steps are checked before any cell.
    """
    if isinstance(window, str):
        window = parse_window(window)

    with open_text(source) as fh:
        rows = list(csv.reader(fh))
        name = str(getattr(fh, "name", "<stream>"))
    rows = [r for r in rows if not (r and r[0].startswith("#"))]
    if not rows:
        raise SchemaError(f"{name}: empty file")

    header = [c.strip() for c in rows[0]]
    if not header or header[0].lower() != "date":
        raise SchemaError(f"{name}: first column must be 'date'")
    col_ids = []
    seen: set[SeriesId] = set()
    for cell in header[1:]:
        sid = SeriesId.parse(cell)
        if sid in seen:
            raise SchemaError(f"duplicate series {sid.label}")
        seen.add(sid)
        col_ids.append(sid)
    if not col_ids:
        raise SchemaError(f"{name}: no series columns")

    n_goods = max(sid.goods for sid in col_ids)
    expected = set(canonical_ids(n_goods))
    if seen != expected:
        missing = [s.label for s in canonical_ids(n_goods) if s not in seen]
        raise SchemaError(f"{name}: incomplete series grid, missing {missing}")

    records: list[tuple[np.datetime64, list[float | None]]] = []
    for raw in rows[1:]:
        if not raw or not "".join(raw).strip():
            continue
        if len(raw) != len(header):
            raise SchemaError(f"{name}: row has {len(raw)} cells, expected {len(header)}")
        month = parse_month(raw[0].strip())
        cells: list[float | None] = []
        for sid, cell in zip(col_ids, raw[1:]):
            text = cell.strip()
            if not text:
                cells.append(None)
                continue
            try:
                cells.append(float(text))
            except ValueError:
                raise SchemaError(
                    f"{name}: bad value {cell!r} for {sid.label} at {month}"
                ) from None
        records.append((month, cells))

    if not records:
        raise SchemaError(f"{name}: no data rows")
    records.sort(key=lambda r: r[0])
    if window is not None:
        lo, hi = parse_month(window[0]), parse_month(window[1])
        records = [r for r in records if lo <= r[0] <= hi]
    if len(records) < 3:
        raise SchemaError(f"panel needs at least 3 months, got {len(records)}")
    for (before, _), (after, _) in zip(records, records[1:]):
        if after == before:
            raise SchemaError(f"duplicate month {before}")
        if after - before != np.timedelta64(1, "M"):
            raise SchemaError(f"months are not consecutive: {after} follows {before}")

    m = 3 * n_goods
    values = np.empty((m, len(records)))
    column = {sid: c for c, sid in enumerate(col_ids)}
    ids = canonical_ids(n_goods)
    for j, (month, cells) in enumerate(records):
        for row, sid in enumerate(ids):
            cell = cells[column[sid]]
            if cell is None or cell != cell:
                raise MissingData(sid.label, str(month))
            if cell <= 0.0:
                raise NonPositiveLevel(sid.label, str(month), cell)
            if cell == float("inf"):
                raise SchemaError(f"infinite level {cell!r} for series {sid.label} at {month}")
            values[row, j] = cell

    months = np.array([r[0] for r in records], dtype="datetime64[M]")
    return Panel(months=months, values=values)



# ---------------------------------------------------------------------------
# Gaussian conditional-expectation oracle
# ---------------------------------------------------------------------------


def gaussian_regression_slope(
    corr: np.ndarray, source: int, target: int, n_draws: int, rng: np.random.Generator
) -> float:
    """Regression slope of target on source over simulated correlated draws."""
    chol = np.linalg.cholesky(np.asarray(corr, dtype=float))
    z = rng.standard_normal((n_draws, corr.shape[0]))
    draws = z @ chol.T
    s = draws[:, source]
    t = draws[:, target]
    return float(np.sum(s * t) / np.sum(s * s))


# ---------------------------------------------------------------------------
# panel construction helpers (plain string CSV, independent of the writer)
# ---------------------------------------------------------------------------


def csv_writer_text(rows) -> str:
    """Rows rendered by ``csv.writer``, the form every CSV artifact has kept."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def corr_texts(c, lead: dict) -> tuple[str, str]:
    """A matrix's CSV text and JSON document, each rendered on its own.

    The CSV goes through the generic row writer and the document through
    ``json.dumps`` of the whole matrix as lists, so every value is rendered
    twice; ``lead`` holds the document's keys before the matrix's own.
    """
    out = io.StringIO()
    goods = "" if c.n_goods is None else c.n_goods
    k = "" if c.n_modes is None else c.n_modes
    write_rows(out, [("kind", "m", "goods", "k"), (c.kind, c.m, goods, k), *c.values.tolist()])
    doc = {**lead, "kind": c.kind, "m": c.m, "goods": c.n_goods, "k": c.n_modes,
           "values": c.values.tolist()}
    return out.getvalue(), json.dumps(doc)



def panel_csv_text(
    months: list[str], columns: dict[str, list[object]]
) -> str:
    """Build a panel CSV by naive string assembly."""
    header = "date," + ",".join(columns.keys())
    lines = [header]
    for j, month in enumerate(months):
        cells = []
        for key in columns:
            v = columns[key][j]
            cells.append("" if v is None else str(v))
        lines.append(month + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def month_list(start: str, count: int) -> list[str]:
    year, month = (int(p) for p in start.split("-"))
    out = []
    for _ in range(count):
        out.append(f"{year:04d}-{month:02d}")
        month += 1
        if month == 13:
            month = 1
            year += 1
    return out


def traced_peak(fn):
    """Bytes ``fn()`` allocated at its peak, above what was live before it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
