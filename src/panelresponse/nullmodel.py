"""Shuffling null models and autocorrelation diagnostics.

Two Monte Carlo null models destroy the mutual correlations of a panel:

* complete shuffling permutes each series independently in time, destroying
  autocorrelations and mutual correlations alike (the classical
  random-matrix null);
* rotational shuffling cyclically shifts each series by an independent
  random offset under a periodic boundary, preserving each series' cyclic
  autocorrelation function exactly while still decoupling the series.

On autocorrelated data the rotational null pushes the largest-eigenvalue
edge above the Marchenko-Pastur bound, giving a stricter significance
threshold for retained eigenmodes.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._files import _BLOCK_CELLS, json_fields, open_text, read_json, write_json
from .errors import BadParameter, SchemaError
from .panel import StandardizedPanel, _freeze, _frozen, _integer, _series, check_standardized


# ---------------------------------------------------------------------------
# autocorrelation diagnostics
# ---------------------------------------------------------------------------


def autocorrelations(w: StandardizedPanel, lag: int) -> np.ndarray:
    """Non-cyclic autocorrelation R(lag) of every series, in flat order.

    R(m) = (1/(N'-m)) * sum_{j=1}^{N'-m} w(t_j) w(t_{j+m}); with the
    population standardization R(0) is exactly 1.
    """
    n, lag = w.n_obs, _integer("lag", lag)
    if not 0 <= lag <= n - 2:
        raise BadParameter(f"lag {lag} outside [0, {n - 2}]")
    if lag == 0:
        return (w.values * w.values).mean(axis=1)
    v = w.values
    return (v[:, :-lag] * v[:, lag:]).sum(axis=1) / (n - lag)


def cyclic_autocorrelation(x: np.ndarray, lag: int) -> float:
    """Autocorrelation under the periodic boundary (invariant under rotation)."""
    x = _series(x)
    return float((x * np.roll(x, -_integer("lag", lag))).mean())


#: The standard normal's 0.975 quantile, ``statistics.NormalDist().inv_cdf(0.975)``
_Z_975 = 1.9599639845400536


def no_autocorr_band(n_obs: int) -> float:
    """Half-width of the two-sided 95% no-autocorrelation band.

    Under the hypothesis of no autocorrelation, the lag estimates are
    asymptotically normal with variance 1/N', so the band is
    z(0.975) / sqrt(N') = 1.96/sqrt(N') around zero.
    """
    if _integer("sample length", n_obs) < 2:
        raise BadParameter(f"sample length must be >= 2, got {n_obs}")
    return _Z_975 / np.sqrt(n_obs)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


def complete_shuffle(w: StandardizedPanel, rng: np.random.Generator) -> StandardizedPanel:
    """Independently permute each series in time (destroys all correlations)."""
    values = np.empty_like(w.values)
    n = w.n_obs
    for i in range(w.n_series):
        values[i] = w.values[i, rng.permutation(n)]
    return replace(w, values=values)


def rotational_shuffle(w: StandardizedPanel, rng: np.random.Generator) -> StandardizedPanel:
    """Cyclically shift each series by an independent uniform offset.

    Preserves each series' cyclic autocorrelation function exactly; only the
    mutual correlations between series are destroyed.
    """
    taus = rng.integers(0, w.n_obs, size=w.n_series)
    values = np.empty_like(w.values)
    for i, tau in enumerate(taus):
        values[i] = np.roll(w.values[i], int(tau))
    return replace(w, values=values)


# ---------------------------------------------------------------------------
# Monte Carlo ensembles
# ---------------------------------------------------------------------------

#: Bytes of shuffled values gathered per chunk of null samples, and so held
#: by each worker thread.  Large enough to amortise the per-chunk numpy calls
#: (~8 samples at 63 x 239), small enough that the working set stays
#: O(workers M N') and never approaches the M^2 N' of a precomputed lag
#: tensor.
_CHUNK_BYTES = 1 << 20

#: Budget, in arrays of one block's Philox4x64 outputs, for the temporaries
#: of one block of rotational offsets (traced at about 9), so that a block
#: stays below one chunk's working set.
_DRAW_ARRAYS = 16

_M32 = 0xFFFFFFFF
_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(_M32)
_SHIFT16 = np.uint32(16)
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _stream(seed: int, i: int) -> np.random.Generator:
    """Sample i's generator: the i-th child SeedSequence(seed).spawn() makes."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))


def _hasher(const: int, mult: int):
    """numpy's SeedSequence word hash, whose multiplier advances per call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT16)

    return hashmix


def _philox_keys(seed: int, spawn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Philox key of ``SeedSequence(seed, spawn_key=(i,))`` for each i < 2**32.

    The entropy is the seed's uint32 words, low first, zero-padded to the
    four-word pool, then the spawn word i.  Every word but i mixes alike
    for all samples, as one-element arrays that broadcast against ``spawn``.
    """
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    entropy = [np.array([w], np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(spawn.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> _SHIFT16)

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    # generate_state(2, np.uint64): four hashed pool words, paired low first
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(p).astype(np.uint64) for p in pool]
    return state[0] | state[1] << _SHIFT32, state[2] | state[3] << _SHIFT32


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & _M32), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    low_cross = b_hi * a_lo
    low_cross += b_lo * a_lo >> _SHIFT32
    high_cross = b_lo * a_hi
    high_cross += low_cross & _LOW32
    hi = b_hi * a_hi
    hi += low_cross >> _SHIFT32
    hi += high_cross >> _SHIFT32
    return hi, b * np.uint64(a)


def _philox4x64(keys: tuple[np.ndarray, np.ndarray], counters: int) -> np.ndarray:
    """Philox4x64-10 of counters 1..``counters`` under each sample's key.

    Row r holds sample r's first 4 * ``counters`` outputs in stream order,
    the order numpy's Philox, which bumps its counter before each block,
    returns them.
    """
    k0, k1 = (k[:, None] for k in keys)
    zero = np.zeros((k0.size, counters), np.uint64)
    x0, x1, x2, x3 = zero + np.arange(1, counters + 1, dtype=np.uint64), zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= k0
        hi0 ^= x3
        hi0 ^= k1
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(k0.size, -1)


def _lemire_threshold(n: int) -> int:
    """numpy redraws a bounded 32-bit word whose low product word is below this."""
    return (1 << 32) % n


def _rotational_starts(seed: int, samples: int, m: int, n: int) -> np.ndarray:
    """Every sample's window starts (n - tau) % n, as ``rotational_shuffle`` draws tau.

    Sample i's ``integers(0, n, size=m)`` is Lemire's bounded draw,
    tau = (u n) >> 32, over the uint32 words u of its Philox stream, the
    low half of each output first.  That is computed here for a block of
    samples at a time, sized so that its temporaries stay below one
    chunk's working set.  A sample with a Lemire rejection is redrawn
    through its own generator instead, and so is every sample i >= 2**32
    (a two-word spawn key) and every sample when N' >= 2**32 (numpy's
    64-bit draw), so the table equals the per-sample loop bit for bit.
    """
    starts = np.empty((samples, m), dtype=np.min_scalar_type(n - 1))

    def redraw(i):
        starts[i] = (n - _stream(seed, int(i)).integers(0, n, size=m)) % n

    outputs = (m + 1) // 2
    counters = -(-outputs // 4)
    block = max(1, _CHUNK_BYTES // (_DRAW_ARRAYS * 32 * counters))
    threshold, n64 = np.uint64(_lemire_threshold(n)), np.uint64(n)
    fast = min(samples, 1 << 32) if n <= _M32 else 0
    for lo in range(0, fast, block):
        hi = min(lo + block, fast)
        words = _philox4x64(_philox_keys(seed, np.arange(lo, hi)), counters)[:, :outputs]
        u = np.stack((words & _LOW32, words >> _SHIFT32), axis=-1).reshape(hi - lo, -1)
        product = u[:, :m] * n64
        starts[lo:hi] = (n64 - (product >> _SHIFT32)) % n64
        for i in lo + np.flatnonzero(((product & _LOW32) < threshold).any(axis=1)):
            redraw(i)
    for i in range(fast, samples):
        redraw(i)
    return starts


def _worker_count(sample_bytes: int, chunks: int) -> int:
    """Threads to spread a null's chunks over: the usable CPUs, or one.

    One when a single sample exceeds a worker's :data:`_CHUNK_BYTES`, so
    that such a null holds one shuffled sample, or its Gram matrices, at a
    time: a second worker would add a whole sample (2.9 MB at 300 x 1200)
    to its peak.
    Usable CPUs are the process's affinity mask where the OS has one; a
    cgroup CPU quota is not read.
    """
    if sample_bytes > _CHUNK_BYTES:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks)


@dataclass(frozen=True)
class EdgeEstimate:
    """Largest-eigenvalue edge: ensemble mean with a percentile interval."""

    center: float
    low: float
    high: float
    confidence: float


@dataclass(frozen=True, eq=False)
class NullEnsemble:
    """Eigenvalue samples from repeated shuffling of one panel.

    ``lambda_max`` holds the largest eigenvalue of every sample in sample
    order; ``pooled`` all M eigenvalues per sample (samples x M, descending,
    so its first column is ``lambda_max`` bit for bit), kept for density
    comparisons and omitted from the compact JSON form.  ``samples`` and
    ``edge`` are derived from ``lambda_max``: its length (at least 1, else
    :class:`~panelresponse.errors.BadParameter`) and the
    :func:`upper_edge` interval at 95% confidence.  The shuffle mode and
    seed are the caller's arguments, not kept here.
    """

    lambda_max: np.ndarray
    pooled: np.ndarray | None = None

    def __post_init__(self):
        lmax = _freeze(np.asarray(self.lambda_max, dtype=float))
        if lmax.ndim != 1:
            raise SchemaError(f"lambda_max must be 1-D, got shape {lmax.shape}")
        if not lmax.size:
            raise BadParameter("samples must be >= 1, got 0")
        object.__setattr__(self, "lambda_max", lmax)
        if self.pooled is not None:
            pooled = _freeze(np.asarray(self.pooled, dtype=float))
            if pooled.ndim != 2 or pooled.shape[0] != lmax.size or pooled.shape[1] < 1:
                raise SchemaError(f"pooled must be {lmax.size} x M, one row per lambda_max, "
                                  f"got shape {pooled.shape}")
            if pooled[:, 0].tobytes() != lmax.tobytes():
                raise SchemaError("pooled's first column must equal lambda_max")
            object.__setattr__(self, "pooled", pooled)

    @property
    def samples(self) -> int:
        return self.lambda_max.size

    @property
    def edge(self) -> EdgeEstimate:
        return EdgeEstimate(*upper_edge(self, 0.95), 0.95)

    def to_json(self, target: str | Path | TextIO | None = None) -> dict:
        doc = {
            "samples": self.samples,
            "lambda_max": self.lambda_max.tolist(),
            "edge": asdict(self.edge),
        }
        if target is not None:
            write_json(target, doc)
        return doc

    @classmethod
    def from_json(cls, source: str | Path | TextIO | dict) -> "NullEnsemble":
        """Load a :meth:`to_json` document.

        Its ``samples`` must be the length of its ``lambda_max``, and its
        ``edge`` the one its ``lambda_max`` gives, to 1e-12 relative, else
        the document is a :class:`SchemaError`.  Any other key, such as the
        top-level ``mode`` and ``seed`` of an older document, is ignored.
        """
        doc = read_json(source)
        with json_fields("null-ensemble document"):
            try:
                ensemble = cls(_frozen(np.array(doc["lambda_max"], dtype=float)))
                samples = _integer("samples", doc["samples"])
            except (BadParameter, SchemaError) as exc:
                # a value the constructor refuses makes the document malformed
                raise SchemaError(f"null-ensemble document: {exc}") from None
            if samples != ensemble.samples:
                raise SchemaError(f"null-ensemble document: samples must be {ensemble.samples}, "
                                  f"the length of its lambda_max, got {samples}")
            recorded = astuple(EdgeEstimate(**doc["edge"]))
            if not np.allclose(recorded, astuple(ensemble.edge), rtol=1e-12, atol=0.0):
                raise SchemaError(f"null-ensemble document: edge {doc['edge']} disagrees with "
                                  f"{asdict(ensemble.edge)}, the edge its lambda_max gives")
        return ensemble

    def pooled_to_csv(self, target: str | Path | TextIO) -> None:
        """Write one ``sample,eigenvalue`` row per pooled eigenvalue (repr-exact)."""
        if self.pooled is None:
            raise SchemaError("ensemble carries no pooled eigenvalues")
        step = max(1, _BLOCK_CELLS // self.pooled.shape[1])
        with open_text(target, "w") as fh:
            fh.write(_POOLED_HEADER)
            for lo in range(0, self.samples, step):
                fh.write(_pooled_rows(lo, self.pooled[lo:lo + step]))


#: The header line of a pooled spectrum's CSV (see :func:`_pooled_rows`).
_POOLED_HEADER = "sample,eigenvalue\n"


def _pooled_rows(first: int, spectra: np.ndarray) -> str:
    """The ``sample,eigenvalue`` lines of samples ``first``, ``first`` + 1, ...

    Row s of ``spectra`` is one sample's spectrum; each sample's M lines
    come from one %-format template with its index written in, and ``%r``
    of a Python float is its repr, as :func:`~panelresponse._files.write_rows`
    renders it.
    """
    return "".join((f"{s},%r\n" * len(row)) % tuple(row)
                   for s, row in enumerate(spectra.tolist(), first))


def null_ensemble(
    w: StandardizedPanel,
    mode: str,
    samples: int,
    seed: int,
    keep_pooled: bool = True,
    pooled_csv: TextIO | None = None,
) -> NullEnsemble:
    """Generate a shuffling null ensemble of correlation eigenvalues.

    ``mode`` names the shuffle, ``"complete"`` (:func:`complete_shuffle`)
    or ``"rotational"`` (:func:`rotational_shuffle`); anything else is a
    :class:`~panelresponse.errors.BadParameter` naming both.

    Each sample draws from its own counter-based stream spawned from the
    master seed, so the result depends only on (seed, samples, mode) and is
    reproducible regardless of how samples would be scheduled.

    Samples run in chunks on one worker thread per usable CPU, unless one
    sample exceeds a chunk (see :func:`_worker_count`).  The calling thread
    submits the chunks in sample order, keeps at most 2 x workers - 1 of
    them submitted, and takes their results strictly in sample order; it
    alone fills ``lambda_max`` and ``pooled`` and writes ``pooled_csv``.
    With one worker it computes the chunks itself and starts no thread.  A
    failing chunk makes every chunk not yet started return without work; on
    any error the calling thread cancels the chunks not yet started and
    joins the workers before the error reaches the caller.

    Every sample makes the same draws, in the same order, as
    :func:`rotational_shuffle` / :func:`complete_shuffle`, and the shuffled
    rows are gathered without arithmetic, so each sample's panel,
    correlation matrix and eigenvalues are bit-identical to the one-sample
    loop over those shufflers, at any chunk size and worker count.  The
    rotational offsets are computed by the calling thread before any worker
    starts, without building a generator per sample: numpy's SeedSequence
    key mixing, Philox4x64-10 and Lemire's bounded draw are evaluated in
    numpy integer arithmetic for a block of samples at a time,
    bit-identical to each sample's ``integers`` call.  A sample whose draw
    numpy would reject and redraw (probability below M N' / 2**32) is drawn
    through its own generator instead.  A block's temporaries stay below
    one chunk's working set (about 0.6 MB at 63 x 239).  The complete
    shuffles are drawn by the threads that compute their chunks.  Each
    chunk's moments are checked from its row sums and the diagonal of its
    X X^T / N', and freed before its eigensolve, so a worker never holds a
    chunk beside the copy of its Gram matrices that ``eigvalsh`` makes.
    Memory is O(M N') per worker, so it grows with the number of usable
    CPUs, plus for a rotational null one table of samples x M window starts
    in the smallest unsigned type that holds N' - 1 (one byte each up to
    N' = 256), plus the samples x M ``pooled`` array when ``keep_pooled``
    is set.

    ``pooled_csv``, an open text stream, gets the pooled spectrum's CSV
    while the chunks run, whether or not ``keep_pooled`` is set: the
    ``sample,eigenvalue`` header, then every sample's M rows in sample
    order, the text :meth:`NullEnsemble.pooled_to_csv` writes.  The thread
    that computes a chunk formats its rows, and the calling thread writes
    them in turn, so at most 2 x workers - 1 chunks' text is held.  If the
    null fails, the stream holds a partial spectrum; its owner discards it.

    ``samples`` and ``seed`` are integers; a numpy integer is taken as the
    Python int it holds, and a bool, float or string is a
    :class:`~panelresponse.errors.BadParameter`.
    """
    if mode not in ("complete", "rotational"):
        raise BadParameter(f"shuffle mode must be 'complete' or 'rotational', got {mode!r}")
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if samples < 1:
        raise BadParameter(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    v = w.values
    m, n = v.shape
    sample_bytes = m * n * v.itemsize
    chunk = max(1, _CHUNK_BYTES // sample_bytes)

    if mode == "rotational":
        # windows[i, s] = [v v][i, s:s+n]; start (n - tau) % n is np.roll(v[i], tau)
        windows = sliding_window_view(np.concatenate([v, v], axis=1), n, axis=1)
        rows = np.arange(m)
        # every sample's starts, drawn here before any worker runs, so the
        # workers make only numpy calls that release the GIL
        starts = _rotational_starts(seed, samples, m, n)

        def gather(lo, hi):
            return windows[rows, starts[lo:hi]]
    else:
        def gather(lo, hi):
            # permuted() copies v into x[k] and shuffles each row there, with
            # the draws M calls of permutation(n) make, in one Python-level
            # call; it swaps the values as it would swap arange(n)
            x = np.empty((hi - lo, m, n))
            for k, i in enumerate(range(lo, hi)):
                _stream(seed, i).permuted(v, axis=1, out=x[k])
            return x

    pooled = np.empty((samples, m)) if keep_pooled else None
    lambda_max = np.empty(samples)
    chunks = range(0, samples, chunk)
    workers = _worker_count(sample_bytes, len(chunks))
    stop = threading.Event()

    def work(lo):
        if stop.is_set():  # another chunk failed, and its error reaches the caller
            return None
        try:
            x = gather(lo, min(lo + chunk, samples))
            gram = x @ x.transpose(0, 2, 1)
            gram /= n
            check_standardized(x.sum(axis=-1) / n, np.diagonal(gram, axis1=1, axis2=2))
            # freed before eigvalsh copies the Gram matrices, so the
            # chunk and that copy never coexist
            del x
            eigs = np.linalg.eigvalsh(gram)[:, ::-1]
            del gram  # freed before the rows are formatted
            return lo, eigs, None if pooled_csv is None else _pooled_rows(lo, eigs)
        except BaseException:
            stop.set()
            raise

    def in_order(pool):
        # oldest first, with at most 2 x workers - 1 chunks submitted and not
        # yet taken, so at most that many chunks' text waits to be written
        queued = []
        for lo in chunks:
            queued.append(pool.submit(work, lo))
            if len(queued) == 2 * workers - 1:
                yield queued.pop(0).result()
        yield from (done.result() for done in queued)

    if pooled_csv is not None:
        pooled_csv.write(_POOLED_HEADER)
    pool, results = None, map(work, chunks)
    if workers > 1:
        # the gather, matmul and reductions release the GIL; eigvalsh does only
        # when its stack's matrices x M exceed 500 (8 x 63 = 504 for a full
        # chunk at 63 x 239), and holds it for the whole call otherwise
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        results = in_order(pool)
    try:
        # a chunk skipped after a failure gives None, and the failure's error follows
        for lo, eigs, text in filter(None, results):
            lambda_max[lo:lo + chunk] = eigs[:, 0]
            if pooled is not None:
                pooled[lo:lo + chunk] = eigs
            if text is not None:
                pooled_csv.write(text)
    finally:
        if pool is not None:
            # joins the workers, even on an interrupt while waiting, once the
            # chunks not yet started are cancelled
            pool.shutdown(cancel_futures=True)
    return NullEnsemble(
        lambda_max=_frozen(lambda_max),
        pooled=None if pooled is None else _frozen(pooled),
    )


def upper_edge(
    ensemble: NullEnsemble, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(center, low, high): mean largest eigenvalue with percentile interval."""
    if not 0.0 <= confidence < 1.0:
        raise BadParameter(f"confidence must be in [0, 1), got {confidence}")
    center = float(ensemble.lambda_max.mean())
    half = 50.0 * confidence
    low, high = np.percentile(ensemble.lambda_max, [50.0 - half, 50.0 + half])
    return center, float(low), float(high)

