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

import enum
import itertools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._files import json_fields, read_json, write_json, write_rows
from .errors import (
    BadConfidence,
    BadParameter,
    EmptyEnsemble,
    LagOutOfRange,
)
from .panel import StandardizedPanel, _freeze, _frozen, check_standardized
from .spectral import ModeBasis


class ShuffleMode(str, enum.Enum):
    COMPLETE = "complete"
    ROTATIONAL = "rotational"


# ---------------------------------------------------------------------------
# autocorrelation diagnostics
# ---------------------------------------------------------------------------


def autocorrelation(w: StandardizedPanel, series: int, lag: int) -> float:
    """Non-cyclic autocorrelation R(lag) of one series (1-based flat index).

    R(m) = (1/(N'-m)) * sum_{j=1}^{N'-m} w(t_j) w(t_{j+m}); with the
    population standardization R(0) is exactly 1.
    """
    if not 1 <= series <= w.n_series:
        raise LagOutOfRange(f"series index {series} outside [1, {w.n_series}]")
    return float(autocorrelations(w, lag)[series - 1])


def autocorrelations(w: StandardizedPanel, lag: int) -> np.ndarray:
    """Vector of R(lag) across all series."""
    n = w.n_obs
    if not 0 <= lag <= n - 2:
        raise LagOutOfRange(f"lag {lag} outside [0, {n - 2}]")
    if lag == 0:
        return (w.values * w.values).mean(axis=1)
    v = w.values
    return (v[:, :-lag] * v[:, lag:]).sum(axis=1) / (n - lag)


def cyclic_autocorrelation(x: np.ndarray, lag: int) -> float:
    """Autocorrelation under the periodic boundary (invariant under rotation)."""
    x = np.asarray(x, dtype=float)
    return float((x * np.roll(x, -lag)).mean())


def no_autocorr_band(n_obs: int, confidence: float = 0.95) -> float:
    """Half-width of the two-sided no-autocorrelation confidence band.

    Under the hypothesis of no autocorrelation, the lag estimates are
    asymptotically normal with variance 1/N', so the band is
    z((1+confidence)/2) / sqrt(N') around zero (1.96/sqrt(N') at 95%).
    """
    if not 0.0 < confidence < 1.0:
        raise BadConfidence(f"confidence must be in (0, 1), got {confidence}")
    if n_obs < 2:
        raise BadParameter(f"sample length must be >= 2, got {n_obs}")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return z / np.sqrt(n_obs)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


def complete_shuffle(w: StandardizedPanel, rng: np.random.Generator) -> StandardizedPanel:
    """Independently permute each series in time (destroys all correlations)."""
    values = np.empty_like(w.values)
    n = w.n_obs
    for i in range(w.n_series):
        values[i] = w.values[i, rng.permutation(n)]
    return w.replace_values(values)


def rotational_shuffle(w: StandardizedPanel, rng: np.random.Generator) -> StandardizedPanel:
    """Cyclically shift each series by an independent uniform offset.

    Preserves each series' cyclic autocorrelation function exactly; only the
    mutual correlations between series are destroyed.
    """
    taus = rng.integers(0, w.n_obs, size=w.n_series)
    values = np.empty_like(w.values)
    for i, tau in enumerate(taus):
        values[i] = np.roll(w.values[i], int(tau))
    return w.replace_values(values)


# ---------------------------------------------------------------------------
# Monte Carlo ensembles
# ---------------------------------------------------------------------------

#: Bytes of shuffled values gathered per chunk of null samples, and so held
#: by each worker thread.  Large enough to amortise the per-chunk numpy calls
#: (~8 samples at 63 x 239), small enough that the working set stays
#: O(workers M N') and never approaches the M^2 N' of a precomputed lag
#: tensor.
_CHUNK_BYTES = 1 << 20


def _worker_count(sample_bytes: int, chunks: int) -> int:
    """Threads to spread a null's chunks over: the usable CPUs, or one.

    One when a single sample exceeds a worker's :data:`_CHUNK_BYTES`: BLAS
    already spreads such a sample's matmul and ``eigvalsh`` over the cores.
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


@dataclass(frozen=True)
class NullEnsemble:
    """Eigenvalue samples from repeated shuffling of one panel.

    ``lambda_max`` holds the largest eigenvalue of every sample in sample
    order; ``pooled`` all M eigenvalues per sample (samples x M), kept for
    density comparisons and omitted from the compact JSON form.
    """

    mode: ShuffleMode
    samples: int
    seed: int
    lambda_max: np.ndarray
    edge: EdgeEstimate
    pooled: np.ndarray | None = None

    def __post_init__(self):
        lmax = _freeze(np.asarray(self.lambda_max, dtype=float))
        if lmax.shape != (self.samples,):
            raise EmptyEnsemble(f"{lmax.size} largest eigenvalues for {self.samples} samples")
        object.__setattr__(self, "lambda_max", lmax)
        if self.pooled is not None:
            object.__setattr__(self, "pooled", _freeze(np.asarray(self.pooled, dtype=float)))
        object.__setattr__(self, "mode", ShuffleMode(self.mode))

    def to_json(self, target: str | Path | TextIO | None = None) -> dict:
        doc = {
            "mode": self.mode.value,
            "samples": self.samples,
            "seed": self.seed,
            "lambda_max": self.lambda_max.tolist(),
            "edge": {
                "center": self.edge.center,
                "low": self.edge.low,
                "high": self.edge.high,
                "confidence": self.edge.confidence,
            },
        }
        if target is not None:
            write_json(target, doc)
        return doc

    @classmethod
    def from_json(cls, source: str | Path | TextIO | dict) -> "NullEnsemble":
        doc = read_json(source)
        with json_fields("null-ensemble document"):
            return cls(
                mode=ShuffleMode(doc["mode"]),
                samples=doc["samples"],
                seed=doc["seed"],
                lambda_max=_frozen(np.array(doc["lambda_max"], dtype=float)),
                edge=EdgeEstimate(**doc["edge"]),
            )

    def pooled_to_csv(self, target: str | Path | TextIO) -> None:
        """Write one ``sample,eigenvalue`` row per pooled eigenvalue (repr-exact)."""
        if self.pooled is None:
            raise EmptyEnsemble("ensemble carries no pooled eigenvalues")
        # one sample at a time, its index rendered once for its M rows
        rows = itertools.chain.from_iterable(
            zip(itertools.repeat(str(s)), row.tolist()) for s, row in enumerate(self.pooled)
        )
        write_rows(target, itertools.chain([("sample", "eigenvalue")], rows))


def null_ensemble(
    w: StandardizedPanel,
    mode: ShuffleMode | str,
    samples: int,
    seed: int,
    keep_pooled: bool = True,
) -> NullEnsemble:
    """Generate a shuffling null ensemble of correlation eigenvalues.

    Each sample draws from its own counter-based stream spawned from the
    master seed, so the result depends only on (seed, samples, mode) and is
    reproducible regardless of how samples would be scheduled.

    Samples run in chunks, and the chunks run on one worker thread per
    usable CPU unless one sample exceeds a chunk (see :func:`_worker_count`);
    each worker writes only its own samples' rows, and a failing worker
    stops the others before their next chunk.  Every sample makes the
    same draws, in the same order, as :func:`rotational_shuffle` /
    :func:`complete_shuffle`, and the shuffled rows are gathered without
    arithmetic, so each sample's panel, correlation matrix and eigenvalues
    are bit-identical to the one-sample loop over those shufflers, at any
    chunk size and worker count.  The rotational offsets are drawn by the
    calling thread, every sample's before any worker starts; the complete
    shuffles are drawn by the workers.  Each chunk's moments are checked
    from its row sums and the diagonal of its X X^T / N'.  Memory is
    O(M N') per worker, so it grows with the number of usable CPUs, plus
    for a rotational null one table of samples x M window starts in the
    smallest unsigned type that holds N' - 1 (one byte each up to
    N' = 256).
    """
    mode = ShuffleMode(mode)
    if samples < 1:
        raise EmptyEnsemble(f"need at least 1 sample, got {samples}")
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    v = w.values
    m, n = v.shape
    sample_bytes = m * n * v.itemsize
    chunk = max(1, _CHUNK_BYTES // sample_bytes)

    def stream(i):
        # the i-th child SeedSequence(seed).spawn(samples) would make, built
        # when needed instead of all of them held at once
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))

    if mode is ShuffleMode.ROTATIONAL:
        # windows[i, s] = [v v][i, s:s+n]; start (n - tau) % n is np.roll(v[i], tau)
        windows = sliding_window_view(np.concatenate([v, v], axis=1), n, axis=1)
        rows = np.arange(m)
        # every sample's starts, drawn here in sample order before any worker
        # runs, so the workers make only numpy calls that release the GIL
        starts = np.empty((samples, m), dtype=np.min_scalar_type(n - 1))
        for i in range(samples):
            starts[i] = (n - stream(i).integers(0, n, size=m)) % n

        def gather(lo, hi):
            return windows[rows, starts[lo:hi]]
    else:
        def gather(lo, hi):
            # permuted() copies v into x[k] and shuffles each row there, with
            # the draws M calls of permutation(n) make, in one call that holds
            # the GIL once; it swaps the values as it would swap arange(n)
            x = np.empty((hi - lo, m, n))
            for k, i in enumerate(range(lo, hi)):
                stream(i).permuted(v, axis=1, out=x[k])
            return x

    pooled = np.empty((samples, m)) if keep_pooled else None
    lambda_max = np.empty(samples)

    stop = threading.Event()

    def run(chunks):
        try:
            for lo in chunks:
                if stop.is_set():
                    return
                hi = min(lo + chunk, samples)
                x = gather(lo, hi)
                gram = x @ x.transpose(0, 2, 1)
                gram /= n
                check_standardized(x.sum(axis=-1) / n, np.diagonal(gram, axis1=1, axis2=2))
                eigs = np.linalg.eigvalsh(gram)
                lambda_max[lo:hi] = eigs[:, -1]
                if pooled is not None:
                    pooled[lo:hi] = eigs[:, ::-1]
                # freed before the next chunk is gathered, so chunks never overlap
                del x, gram, eigs
        except BaseException:
            stop.set()
            raise

    chunks = range(0, samples, chunk)
    workers = _worker_count(sample_bytes, len(chunks))
    if workers == 1:
        run(chunks)
    else:
        # the gather, matmul, reductions and eigvalsh release the GIL
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            try:
                for done in [pool.submit(run, chunks[k::workers]) for k in range(workers)]:
                    done.result()
            finally:
                # an interrupt while waiting stops the workers too
                stop.set()
    edge_vals = upper_edge_values(lambda_max, 0.95)
    return NullEnsemble(
        mode=mode,
        samples=samples,
        seed=seed,
        lambda_max=_frozen(lambda_max),
        edge=EdgeEstimate(*edge_vals, 0.95),
        pooled=None if pooled is None else _frozen(pooled),
    )


def upper_edge_values(
    lambda_max: np.ndarray, confidence: float
) -> tuple[float, float, float]:
    if lambda_max.size == 0:
        raise EmptyEnsemble("no samples")
    if not 0.0 <= confidence < 1.0:
        raise BadConfidence(f"confidence must be in [0, 1), got {confidence}")
    center = float(lambda_max.mean())
    half = 50.0 * confidence
    low, high = np.percentile(lambda_max, [50.0 - half, 50.0 + half])
    return center, float(low), float(high)


def upper_edge(
    ensemble: NullEnsemble, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(center, low, high): mean largest eigenvalue with percentile interval."""
    return upper_edge_values(ensemble.lambda_max, confidence)


def count_significant(basis: ModeBasis, threshold: float) -> int:
    """Number of eigenvalues strictly above the significance threshold."""
    if threshold <= 0:
        raise BadParameter(f"threshold must be positive, got {threshold}")
    return int(np.sum(basis.eigenvalues > threshold))
