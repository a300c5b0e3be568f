import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelresponse import (
    CorrMatrix,
    NullEnsemble,
    StandardizedPanel,
    autocorrelations,
    complete_shuffle,
    correlation_matrix,
    cyclic_autocorrelation,
    eigendecompose,
    mp_bounds,
    no_autocorr_band,
    null_ensemble,
    nullmodel,
    rotational_shuffle,
    synth,
    upper_edge,
)
from panelresponse.errors import BadParameter, SchemaError
from panelresponse.nullmodel import EdgeEstimate

from oracles import (
    MpReference,
    brute_autocorrelation,
    complete_null_trace_c2,
    explicit_null_ensemble,
    ks_distance,
    lagged_trace_c2,
    rotational_null_trace_c2,
)

REPO = Path(__file__).resolve().parents[1]


def alternating_panel(n=240):
    row = np.resize([1.0, -1.0], n)
    return StandardizedPanel.from_values(np.vstack([row, -row]))


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_autocorrelation_zero_lag_is_one(iid_panel):
    for series in (1, 10, 63):
        assert autocorrelations(iid_panel, 0)[series - 1] == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_alternating():
    w = alternating_panel()
    assert autocorrelations(w, 1)[0] == pytest.approx(-1.0, abs=1e-14)
    assert autocorrelations(w, 2)[0] == pytest.approx(1.0, abs=1e-14)


def test_autocorrelation_matches_brute_force(ar1_panel):
    for series, lag in [(1, 1), (5, 3), (40, 7)]:
        expected = brute_autocorrelation(ar1_panel.values[series - 1], lag)
        assert autocorrelations(ar1_panel, lag)[series - 1] == pytest.approx(expected, abs=1e-12)


def test_autocorrelation_lag_out_of_range(iid_panel):
    n = iid_panel.n_obs
    with pytest.raises(BadParameter, match=rf"lag {n - 1} outside \[0, {n - 2}\]"):
        autocorrelations(iid_panel, n - 1)
    with pytest.raises(BadParameter, match=rf"lag -1 outside \[0, {n - 2}\]"):
        autocorrelations(iid_panel, -1)


def test_autocorrelations_vectorized(ar1_panel):
    vec = autocorrelations(ar1_panel, 1)
    assert vec.shape == (63,)
    assert vec[4] == pytest.approx(brute_autocorrelation(ar1_panel.values[4], 1), abs=1e-14)
    # the AR(1) coefficient -0.35 shows up as a negative lag-1 autocorrelation
    assert -0.5 < vec.mean() < -0.2


# ---------------------------------------------------------------------------
# confidence band
# ---------------------------------------------------------------------------


def test_band_values():
    # the 95% band's quantile is held as a constant; the standard library is its oracle
    assert nullmodel._Z_975 == statistics.NormalDist().inv_cdf(0.975)
    assert no_autocorr_band(239) == pytest.approx(0.12677953091477834, abs=1e-12)
    assert no_autocorr_band(100) == pytest.approx(0.196, abs=5e-4)


def test_band_short_sample():
    for n in (1, 0, -4):
        with pytest.raises(BadParameter):
            no_autocorr_band(n)


def test_band_coverage_monte_carlo():
    # iid noise: ~95% of lag estimates fall inside the band
    rng = np.random.default_rng(7)
    n, trials, max_lag = 239, 1000, 20
    x = rng.standard_normal((trials, n))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    band = no_autocorr_band(n)
    inside = 0
    for lag in range(1, max_lag + 1):
        r = (x[:, :-lag] * x[:, lag:]).sum(axis=1) / (n - lag)
        inside += int(np.sum(np.abs(r) <= band))
    assert inside / (trials * max_lag) >= 0.93


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


def test_complete_shuffle_preserves_multiset(iid_panel, rng):
    shuffled = complete_shuffle(iid_panel, rng)
    for i in range(iid_panel.n_series):
        assert np.array_equal(np.sort(shuffled.values[i]), np.sort(iid_panel.values[i]))
    assert not np.array_equal(shuffled.values, iid_panel.values)


def test_rotational_shuffle_preserves_cyclic_autocorr(ar1_panel, rng):
    shuffled = rotational_shuffle(ar1_panel, rng)
    n = ar1_panel.n_obs
    for i in (0, 17, 62):
        for lag in range(n):
            before = cyclic_autocorrelation(ar1_panel.values[i], lag)
            after = cyclic_autocorrelation(shuffled.values[i], lag)
            assert abs(before - after) <= 1e-12


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
    st.integers(-100, 100),
)
def test_rotation_preserves_cyclic_autocorrelation_at_every_lag(values, shift):
    x = np.array(values)
    rotated = np.roll(x, shift)
    for lag in range(x.size):
        # the same products, summed in another order
        assert abs(cyclic_autocorrelation(rotated, lag) - cyclic_autocorrelation(x, lag)) <= 1e-12


def test_rotational_shuffle_matches_shift_definition(rng):
    w = alternating_panel(8)
    rng_a = np.random.default_rng(33)
    shuffled = rotational_shuffle(w, rng_a)
    rng_b = np.random.default_rng(33)
    taus = rng_b.integers(0, 8, size=2)
    for i, tau in enumerate(taus):
        assert np.array_equal(shuffled.values[i], np.roll(w.values[i], int(tau)))


def test_shuffled_correlation_diagonal(iid_panel, rng):
    for shuffle in (complete_shuffle, rotational_shuffle):
        c = correlation_matrix(shuffle(iid_panel, rng))
        assert np.abs(np.diag(c.values) - 1.0).max() <= 1e-10


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_deterministic(iid_panel):
    a = null_ensemble(iid_panel, "complete", 12, seed=5)
    b = null_ensemble(iid_panel, "complete", 12, seed=5)
    assert np.array_equal(a.lambda_max, b.lambda_max)
    assert np.array_equal(a.pooled, b.pooled)
    c = null_ensemble(iid_panel, "complete", 12, seed=6)
    assert not np.array_equal(a.lambda_max, c.lambda_max)


@pytest.mark.parametrize("mode", ["full", "Complete", None])
def test_unknown_shuffle_mode_is_a_bad_parameter(iid_panel, mode):
    with pytest.raises(BadParameter, match="^" + re.escape(
            f"shuffle mode must be 'complete' or 'rotational', got {mode!r}") + "$"):
        null_ensemble(iid_panel, mode, 12, seed=5)


def test_ensemble_needs_a_sample(iid_panel):
    for samples in (0, -3):
        with pytest.raises(BadParameter, match=f"samples must be >= 1, got {samples}"):
            null_ensemble(iid_panel, "rotational", samples, seed=1)
    with pytest.raises(BadParameter, match="seed must be >= 0, got -1"):
        null_ensemble(iid_panel, "rotational", 5, seed=-1)


def standardized_panel(m, n, seed):
    x = np.random.default_rng(seed).standard_normal((m, n))
    return StandardizedPanel.from_values(
        (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    )


def assert_matches_oracle(w, mode, samples, seed):
    lambda_max, pooled, edge = explicit_null_ensemble(w, mode, samples, seed)
    e = null_ensemble(w, mode, samples, seed)
    assert np.array_equal(e.lambda_max, lambda_max)
    assert np.array_equal(e.pooled, pooled)
    assert (e.edge.center, e.edge.low, e.edge.high) == edge


@given(
    m=st.integers(1, 8),
    n=st.integers(2, 40),
    samples=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(["rotational", "complete"]),
)
def test_ensemble_bit_identical_to_shuffle_oracle(m, n, samples, seed, mode):
    assert_matches_oracle(standardized_panel(m, n, seed % 2**32), mode, samples, seed)


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_paper_shape_matches_oracle(ar1_panel, mode):
    # several full chunks plus a partial one at the paper's 63 x 239 shape
    assert_matches_oracle(ar1_panel, mode, 21, seed=8)


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_independent_of_chunk_size(monkeypatch, mode):
    w = standardized_panel(6, 30, 3)
    sample_bytes = w.values.nbytes
    results = []
    for per_chunk in (1, 3, 25):  # one sample, a ragged split, everything at once
        monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", per_chunk * sample_bytes)
        results.append(null_ensemble(w, mode, 11, seed=42))
    for e in results[1:]:
        assert np.array_equal(e.lambda_max, results[0].lambda_max)
        assert np.array_equal(e.pooled, results[0].pooled)
        assert e.edge == results[0].edge


def fixed_workers(monkeypatch, workers):
    """Spread every null over ``workers`` threads (at most one per chunk)."""
    monkeypatch.setattr(
        nullmodel, "_worker_count", lambda sample_bytes, chunks: min(workers, chunks)
    )


@pytest.mark.parametrize("per_chunk", [1, 3, 25])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_independent_of_worker_count(monkeypatch, mode, workers, per_chunk):
    w = standardized_panel(6, 30, 3)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", per_chunk * w.values.nbytes)
    fixed_workers(monkeypatch, workers)
    assert_matches_oracle(w, mode, 11, seed=42)


@pytest.mark.parametrize("per_chunk", [1, 3, 25])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_streamed_pooled_csv_equals_pooled_to_csv(monkeypatch, mode, workers, per_chunk):
    w = standardized_panel(6, 30, 3)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", per_chunk * w.values.nbytes)
    fixed_workers(monkeypatch, workers)
    kept, lean = io.StringIO(), io.StringIO()
    e = null_ensemble(w, mode, 11, seed=42, pooled_csv=kept)
    bare = null_ensemble(w, mode, 11, seed=42, keep_pooled=False, pooled_csv=lean)
    written = io.StringIO()
    e.pooled_to_csv(written)
    assert kept.getvalue() == lean.getvalue() == written.getvalue()
    assert written.getvalue().count("\n") == 1 + 11 * 6
    assert bare.pooled is None
    lambda_max, _, _ = explicit_null_ensemble(w, mode, 11, 42)
    assert np.array_equal(e.lambda_max, lambda_max)
    assert np.array_equal(bare.lambda_max, lambda_max)


def test_streamed_chunks_wait_for_an_earlier_one(monkeypatch):
    # while the first chunk is held up, the two other workers stop taking
    # chunks once three formatted ones wait: each may finish the one it
    # holds, so at most 2 x (3 - 1) chunks are formatted ahead of it
    w = standardized_panel(4, 20, 5)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, 3)
    rows, formatted, ahead = nullmodel._pooled_rows, [], []

    def slow_first(first, spectra):
        if first == 0:
            time.sleep(0.3)
            ahead.append(len(formatted))
        formatted.append(first)
        return rows(first, spectra)

    monkeypatch.setattr(nullmodel, "_pooled_rows", slow_first)
    stream = io.StringIO()
    e = null_ensemble(w, "rotational", 60, seed=1, keep_pooled=True, pooled_csv=stream)
    assert 1 <= ahead[0] <= 4
    assert sorted(formatted) == list(range(60))
    written = io.StringIO()
    e.pooled_to_csv(written)
    assert stream.getvalue() == written.getvalue()


@pytest.mark.parametrize("n", [256, 257])
def test_rotational_starts_at_the_dtype_boundary(monkeypatch, n):
    # the window starts are held as uint8 up to N' = 256 and uint16 above;
    # the largest start, N' - 1, must be drawn and gathered from its window
    w = standardized_panel(40, n, n)
    starts = np.concatenate([
        (n - np.random.Generator(np.random.Philox(s)).integers(0, n, size=40)) % n
        for s in np.random.SeedSequence(3).spawn(12)
    ])
    assert starts.max() == n - 1
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 5 * w.values.nbytes)
    fixed_workers(monkeypatch, 2)
    assert_matches_oracle(w, "rotational", 12, seed=3)


@pytest.mark.parametrize("mode", ["complete"])
def test_where_each_sample_is_drawn(monkeypatch, mode):
    # the complete shuffles are drawn in the workers, every sample once
    w = standardized_panel(6, 30, 3)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 2 * w.values.nbytes)
    fixed_workers(monkeypatch, 2)
    generator, lock, draws = np.random.Generator, threading.Lock(), []

    def recording(bit_generator):
        with lock:
            draws.append((threading.get_ident(), bit_generator.seed_seq.spawn_key))
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", recording)
    null_ensemble(w, mode, 11, seed=42)
    caller = threading.get_ident()
    assert sorted(key for _, key in draws) == [(i,) for i in range(11)]
    assert caller not in {thread for thread, _ in draws}


def stream_starts(seed, samples, m, n):
    """The window-start table drawn one sample's generator at a time."""
    return np.array([
        (n - np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,)))).integers(0, n, size=m)) % n
        for i in range(samples)
    ], dtype=np.min_scalar_type(n - 1))


def low_product_words(seed, i, m, n):
    """(u n) mod 2**32 for sample i's first m uint32 words u, read off raw Philox output."""
    bit_generator = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))
    raw = bit_generator.random_raw((m + 1) // 2)
    u = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=-1).ravel()[:m]
    return (u * np.uint64(n)) & np.uint64(0xFFFFFFFF)


def recorded_redraws(monkeypatch):
    """The sample indices whose generator ``null_ensemble`` builds, in call order."""
    stream, calls = nullmodel._stream, []

    def recording(seed, i):
        calls.append(i)
        return stream(seed, i)

    monkeypatch.setattr(nullmodel, "_stream", recording)
    return calls


@pytest.mark.parametrize("m", [1, 63, 300])
@pytest.mark.parametrize("n", [239, 256, 257, 100_000])
@pytest.mark.parametrize("seed", [0, 2**33 + 5, 2**140 + 3])
def test_rotational_starts_equal_the_stream_loop(monkeypatch, seed, n, m):
    # the vectorised SeedSequence -> Philox4x64-10 -> Lemire draw gives the
    # per-sample Generator.integers table bit for bit, in one block or many;
    # only a sample with a Lemire rejection is redrawn through its generator
    samples = 130
    want = stream_starts(seed, samples, m, n)
    threshold = nullmodel._lemire_threshold(n)
    rejected = [i for i in range(samples) if (low_product_words(seed, i, m, n) < threshold).any()]
    redraws = recorded_redraws(monkeypatch)
    assert np.array_equal(nullmodel._rotational_starts(seed, samples, m, n), want)
    assert redraws == rejected
    counters = -(-((m + 1) // 2) // 4)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 7 * nullmodel._DRAW_ARRAYS * 32 * counters)
    got = nullmodel._rotational_starts(seed, samples, m, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_rejected_samples_are_redrawn_through_their_stream(monkeypatch, workers):
    # a raised threshold turns the three samples with the lowest low product
    # word into Lemire rejections; exactly those go through their generator
    w = standardized_panel(6, 30, 3)
    lowest = [low_product_words(42, i, 6, 30).min() for i in range(11)]
    chosen = sorted(np.argsort(lowest)[:3].tolist())
    assert len(set(lowest)) == 11
    monkeypatch.setattr(nullmodel, "_lemire_threshold", lambda n: int(sorted(lowest)[2]) + 1)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 2 * w.values.nbytes)
    fixed_workers(monkeypatch, workers)
    redraws = recorded_redraws(monkeypatch)
    assert_matches_oracle(w, "rotational", 11, seed=42)
    assert redraws == chosen


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_numpy_integer_arguments_are_python_ints(iid_panel, tmp_path, mode):
    e = null_ensemble(iid_panel, mode, np.int64(4), np.uint32(3))
    assert type(e.samples) is int
    doc = json.loads(json.dumps(e.to_json(tmp_path / "ensemble.json")))
    assert doc["samples"] == 4
    assert np.array_equal(e.pooled, null_ensemble(iid_panel, mode, 4, 3).pooled)


@pytest.mark.parametrize("value", [True, False, np.True_, 3.0, np.float64(3.0), "3"])
@pytest.mark.parametrize("argument", ["samples", "seed"])
@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_non_integer_arguments_are_bad_parameters(mode, argument, value):
    w = standardized_panel(4, 20, 5)
    kwargs = {"samples": 3, "seed": 3, argument: value}
    with pytest.raises(BadParameter, match=f"{argument} must be an integer"):
        null_ensemble(w, mode, **kwargs)


def test_rotational_null_never_imports_numpy_random(tmp_path):
    # numpy.random costs ~17 ms and ~6 MB of RSS in a fresh process; the
    # vectorised offset draw needs none of it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def run(code):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        return res.stdout.strip().splitlines()[-1]

    if run("import sys, numpy; print('numpy.random' in sys.modules)") == "True":
        pytest.skip("import numpy already loads numpy.random (numpy < 2)")
    code = (
        "import sys; import numpy as np; "
        "from panelresponse import StandardizedPanel, null_ensemble; "
        "x = np.sin(0.7 * np.outer(np.arange(1, 7), np.arange(40)) + np.arange(6)[:, None]); "
        "w = StandardizedPanel.from_values("
        "(x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)); "
        "null_ensemble(w, 'rotational', 50, seed=3); "
        "print('numpy.random' in sys.modules)"
    )
    assert run(code) == "False"


def test_rotational_trace_oracle_equals_direct_lag_sums():
    w = standardized_panel(5, 17, 9)
    assert rotational_null_trace_c2(w.values) == pytest.approx(lagged_trace_c2(w.values), rel=1e-12)


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_mean_trace_c2_matches_exact_moment(ar1_panel, mode):
    # E[sum of lambda^2] = E[tr C^2] has a closed form under either null;
    # checked on the pooled spectrum, independently of bit identity
    samples = 2000
    e = null_ensemble(ar1_panel, mode, samples, seed=17)
    traces = (e.pooled**2).sum(axis=1)
    standard_error = traces.std(ddof=1) / np.sqrt(samples)
    complete = complete_null_trace_c2(ar1_panel.n_series, ar1_panel.n_obs)
    rotational = rotational_null_trace_c2(ar1_panel.values)
    expected = rotational if mode == "rotational" else complete
    assert abs(traces.mean() - expected) <= 4 * standard_error
    # the two nulls' moments differ by far more than the test's tolerance
    assert abs(rotational - complete) > 10 * standard_error


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_threads_under_contention(monkeypatch, mode):
    # more workers than cores, one sample per chunk and a short switch
    # interval: a row written by the wrong worker, or lost, breaks equality
    w = standardized_panel(5, 24, 8)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_matches_oracle(w, mode, 40, seed=6)
    finally:
        sys.setswitchinterval(interval)


def test_streamed_pooled_csv_under_contention(monkeypatch):
    # a chunk written twice, out of order or by two threads at once breaks
    # the equality with the in-memory writer
    w = standardized_panel(5, 24, 8)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, 8)
    stream = io.StringIO()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        e = null_ensemble(w, "rotational", 40, seed=6, pooled_csv=stream)
    finally:
        sys.setswitchinterval(interval)
    written = io.StringIO()
    e.pooled_to_csv(written)
    assert stream.getvalue() == written.getvalue()


def test_worker_count_policy():
    small = 63 * 239 * 8
    # a sample beyond one worker's budget runs alone, held one sample at a time
    assert nullmodel._worker_count(nullmodel._CHUNK_BYTES + 8, 100) == 1
    assert nullmodel._worker_count(small, 1) == 1
    assert 1 <= nullmodel._worker_count(small, 1250) <= 1250
    # at the paper's shape a full chunk's eigvalsh stack is past numpy 2.4.6's
    # GIL threshold (matrices x M > 500), so the two workers' eigensolves overlap
    assert (nullmodel._CHUNK_BYTES // small) * 63 > 500


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_failing_worker_stops_the_others(monkeypatch, mode):
    # the first chunk checked fails; the other worker may finish the chunk
    # it holds, but starts no further one of its 100
    w = standardized_panel(4, 20, 5)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, 2)
    lock, calls = threading.Lock(), []

    def check(mean, mean_square):
        with lock:
            calls.append(len(mean))
            first = len(calls) == 1
        if first:
            raise SchemaError("planted failure")

    monkeypatch.setattr(nullmodel, "check_standardized", check)
    interval = sys.getswitchinterval()
    # a long interval keeps the failing worker on the GIL until it has
    # signalled the others
    sys.setswitchinterval(1.0)
    try:
        with pytest.raises(SchemaError, match="planted failure"):
            null_ensemble(w, mode, 200, seed=0)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) <= 2


class BrokenStream(io.StringIO):
    """A text stream whose ``fail_at``-th write raises ``error``."""

    def __init__(self, fail_at, error):
        super().__init__()
        self.writes, self.fail_at, self.error = 0, fail_at, error

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("side", ["stream", "chunk"])
def test_failure_on_either_side_of_the_queue(monkeypatch, side, workers):
    # the calling thread's write of chunk 6 fails, or chunk 6 itself is
    # interrupted in its worker: the error reaches the caller as raised,
    # every worker is joined, and at most 2 x workers - 1 chunks past the
    # failing one were computed
    w = standardized_panel(4, 20, 5)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, workers)
    failing, rows, lock, computed = 6, nullmodel._pooled_rows, threading.Lock(), []
    planted = OSError("disk full") if side == "stream" else KeyboardInterrupt()

    def recording(first, spectra):
        with lock:
            computed.append(first)
        if side == "chunk" and first == failing:
            raise planted
        return rows(first, spectra)

    monkeypatch.setattr(nullmodel, "_pooled_rows", recording)
    # the header is the first write, so chunk i's rows are write i + 2
    stream = BrokenStream(failing + 2 if side == "stream" else 0, planted)
    threads = threading.active_count()
    with pytest.raises(type(planted)) as raised:
        null_ensemble(w, "rotational", 200, seed=0, keep_pooled=False, pooled_csv=stream)
    assert raised.value is planted
    assert threading.active_count() == threads
    assert failing in computed
    assert len([first for first in computed if first > failing]) <= 2 * workers - 1


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_one_worker_starts_no_thread(monkeypatch, mode):
    # a one-worker null (as for a sample beyond one chunk) computes every
    # chunk in the calling thread, so it allocates from the main thread's heap
    w = standardized_panel(4, 20, 5)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    fixed_workers(monkeypatch, 1)
    check, checked, started = nullmodel.check_standardized, [], []

    def on_main_thread(mean, mean_square):
        checked.append(threading.current_thread() is threading.main_thread())
        check(mean, mean_square)

    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(nullmodel, "check_standardized", on_main_thread)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    e = null_ensemble(w, mode, 12, seed=4, pooled_csv=io.StringIO())
    assert checked == [True] * 12
    assert started == []
    assert np.array_equal(e.lambda_max, explicit_null_ensemble(w, mode, 12, 4)[0])


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_rejects_destandardized_panel(monkeypatch, mode):
    w = standardized_panel(4, 20, 5)
    # bypass the panel's own check, as a panel mutated after construction would
    object.__setattr__(w, "values", w.values * 2.0)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", w.values.nbytes)
    for workers in (1, 2, 3):
        fixed_workers(monkeypatch, workers)
        with pytest.raises(SchemaError, match="std off one"):
            null_ensemble(w, mode, 3, seed=0)


@pytest.mark.parametrize("mode", ["rotational", "complete"])
def test_ensemble_moment_check_tolerance(mode):
    # the null's check reads E[x^2] off the Gram diagonal; it must draw the
    # line where StandardizedPanel does (_STD_TOL = 1e-10)
    w = standardized_panel(5, 40, 2)
    good = w.values
    for off, ok in ((5e-11, True), (2e-10, False)):
        values = good * (1.0 + off)
        object.__setattr__(w, "values", values)
        if ok:
            StandardizedPanel.from_values(values)
            null_ensemble(w, mode, 4, seed=1)
        else:
            with pytest.raises(SchemaError, match="std off one"):
                StandardizedPanel.from_values(values)
            with pytest.raises(SchemaError, match="std off one"):
                null_ensemble(w, mode, 4, seed=1)


def test_moment_check_tests_the_mean_first():
    w = standardized_panel(3, 30, 4)
    shifted = w.values * 3.0 + 1e-9  # both moments off: the mean is reported
    object.__setattr__(w, "values", shifted)
    with pytest.raises(SchemaError, match="mean off zero"):
        StandardizedPanel.from_values(shifted)
    with pytest.raises(SchemaError, match="mean off zero"):
        null_ensemble(w, "rotational", 2, seed=0)


def test_moment_check_rejects_nan():
    values = standardized_panel(3, 10, 1).values.copy()
    values[1, 4] = np.nan
    with pytest.raises(SchemaError):
        StandardizedPanel.from_values(values)


def test_ensemble_single_sample(iid_panel):
    e = null_ensemble(iid_panel, "rotational", 1, seed=9)
    assert e.samples == 1
    assert e.pooled.shape == (1, 63)
    assert e.edge.low == e.edge.high == e.edge.center == e.lambda_max[0]


def test_ensemble_complete_matches_mp(iid_panel):
    e = null_ensemble(iid_panel, "complete", 300, seed=3)
    ref = MpReference(iid_panel.n_obs / iid_panel.n_series)
    assert ks_distance(e.pooled.ravel(), ref.cdf) <= 0.05


def test_upper_edge_confidence_handling(iid_panel):
    e = null_ensemble(iid_panel, "complete", 50, seed=4)
    center, low, high = upper_edge(e, 0.9)
    assert low <= center <= high
    c0, l0, h0 = upper_edge(e, 0.0)
    assert l0 == h0 == pytest.approx(float(np.median(e.lambda_max)), abs=1e-12)
    with pytest.raises(BadParameter, match=r"confidence must be in \[0, 1\), got 1.0"):
        upper_edge(e, 1.0)


def test_upper_edge_degenerate_ensemble():
    e = NullEnsemble(lambda_max=np.full(4, 2.5))
    center, low, high = upper_edge(e, 0.95)
    assert center == low == high == 2.5


def test_complete_edge_near_mp_upper_bound(iid_panel):
    # the finite-size largest eigenvalue sits below the asymptotic bound
    # (Tracy-Widom-scale offset, ~4.5% at M=63 against fresh-panel oracles)
    e = null_ensemble(iid_panel, "complete", 500, seed=11)
    _, hi = mp_bounds(iid_panel.n_obs / iid_panel.n_series)
    assert abs(e.edge.center - hi) / hi <= 0.05


def test_ensemble_json_round_trip(iid_panel, tmp_path):
    e = null_ensemble(iid_panel, "rotational", 8, seed=2)
    path = tmp_path / "ensemble.json"
    e.to_json(path)
    back = NullEnsemble.from_json(path)
    assert np.array_equal(back.lambda_max, e.lambda_max)
    # the edge is the one lambda_max gives, before and after the round trip
    assert back.edge == e.edge == EdgeEstimate(*upper_edge(e, 0.95), 0.95)
    with pytest.raises(SchemaError, match="ensemble carries no pooled eigenvalues"):
        back.pooled_to_csv(tmp_path / "pooled.csv")  # JSON form drops pooled spectrum


# an ensemble.json of the older shape: its config and also its top level
# record the mode and seed, which from_json ignores
ENSEMBLE_DOC = {"config": {"mode": "complete", "samples": 2, "seed": 0},
                "mode": "complete", "samples": 2, "seed": 0, "lambda_max": [2.0, 2.5],
                "edge": {"center": 2.25, "low": 2.0125, "high": 2.4875, "confidence": 0.95}}


def test_ensemble_document_edge_is_derived_from_lambda_max():
    e = NullEnsemble.from_json(ENSEMBLE_DOC)
    assert e.edge == EdgeEstimate(2.25, 2.0125, 2.4875, 0.95)
    # to_json writes the run parameters nowhere: they are the config's
    assert e.to_json() == {key: ENSEMBLE_DOC[key] for key in ("samples", "lambda_max", "edge")}
    assert NullEnsemble.from_json(e.to_json()).edge == e.edge
    # a recorded edge within 1e-12 relative of the derived one loads
    near = {**ENSEMBLE_DOC["edge"], "high": 2.4875 * (1 + 1e-13)}
    assert NullEnsemble.from_json({**ENSEMBLE_DOC, "edge": near}).edge == e.edge


@pytest.mark.parametrize("field, value", [
    ("high", 100.0), ("low", 2.0), ("center", 2.25 * (1 + 1e-11)), ("confidence", 0.9),
    ("high", float("nan")),
])
def test_ensemble_document_with_another_edge_is_a_schema_error(field, value):
    doc = {**ENSEMBLE_DOC, "edge": {**ENSEMBLE_DOC["edge"], field: value}}
    with pytest.raises(SchemaError, match="null-ensemble document: edge"):
        NullEnsemble.from_json(doc)


@pytest.mark.parametrize("value", ["3", 3.0, True, -4])
@pytest.mark.parametrize("field", ["samples"])
def test_ensemble_document_with_a_bad_count_is_a_schema_error(field, value):
    doc = {**ENSEMBLE_DOC, field: value}
    with pytest.raises(SchemaError, match=f"null-ensemble document: {field} must be"):
        NullEnsemble.from_json(doc)


def test_ensemble_document_counts_load_as_python_ints():
    e = NullEnsemble.from_json({**ENSEMBLE_DOC, "samples": np.int64(2), "seed": np.uint8(7)})
    assert e.samples == 2 and type(e.samples) is int


def test_ensemble_samples_is_the_length_of_lambda_max():
    e = NullEnsemble(lambda_max=[2.0, 2.5, 3.0])
    assert e.samples == 3 and type(e.samples) is int
    assert e.to_json()["samples"] == 3
    with pytest.raises(BadParameter, match="samples must be >= 1, got 0"):
        NullEnsemble(lambda_max=[])
    for samples in (1, 3):
        with pytest.raises(SchemaError, match="null-ensemble document: samples must be 2, "):
            NullEnsemble.from_json({**ENSEMBLE_DOC, "samples": samples})
    # each kind of fault the constructor raises is named as the document's
    for lambda_max, message in (([], "samples must be >= 1, got 0"),
                                ([[2.0, 2.5]], r"lambda_max must be 1-D, got shape \(1, 2\)")):
        with pytest.raises(SchemaError, match=f"^null-ensemble document: {message}$"):
            NullEnsemble.from_json({**ENSEMBLE_DOC, "lambda_max": lambda_max})


@pytest.mark.parametrize("lambda_max, pooled, message", [
    ([2.0, 2.5], np.ones((5, 3)), r"pooled must be 2 x M, .* got shape \(5, 3\)"),
    ([2.0, 2.5], np.ones(5), r"pooled must be 2 x M, .* got shape \(5,\)"),
    ([2.0, 2.5], np.ones((2, 0)), r"pooled must be 2 x M, .* got shape \(2, 0\)"),
    ([2.0, 2.5], [[2.5, 1.0], [2.0, 1.0]], "pooled's first column must equal lambda_max"),
    ([2.0, 2.5], [[2.0, 1.0], [np.nextafter(2.5, 3.0), 1.0]], "pooled's first column"),
    ([0.0, 2.5], [[-0.0, 1.0], [2.5, 1.0]], "pooled's first column"),  # bit for bit
])
def test_ensemble_pooled_must_agree_with_lambda_max(lambda_max, pooled, message):
    with pytest.raises(SchemaError, match=message):
        NullEnsemble(lambda_max=lambda_max, pooled=pooled)


def test_eigenvalues_above_a_threshold(planted_panel):
    basis = eigendecompose(correlation_matrix(planted_panel))
    identity_basis = eigendecompose(CorrMatrix(np.eye(10)))
    assert np.sum(identity_basis.eigenvalues > 1.5) == 0
    # two planted modes clear the threshold
    assert np.sum(basis.eigenvalues > 2.67) == 2


def test_pooled_csv_rows(iid_panel, monkeypatch, tmp_path):
    e = null_ensemble(iid_panel, "complete", 5, seed=19)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["sample", "eigenvalue"])
    writer.writerows([s, repr(float(lam))] for s in range(5) for lam in e.pooled[s])
    monkeypatch.setattr("panelresponse._files._BLOCK_CELLS", 4 * 63)  # blocks 126 + 126 + 64 rows
    e.pooled_to_csv(tmp_path / "pooled.csv")
    assert (tmp_path / "pooled.csv").read_text() == expected.getvalue()


def test_real_panel_lag_one_autocorrelations(real_panel_path):
    from panelresponse import Variable, load_panel, log_growth, standardize

    panel = load_panel(real_panel_path, window=("1988-01", "2007-12"))
    w = standardize(log_growth(panel))
    r1 = autocorrelations(w, 1)
    g = w.n_goods
    by_class = {
        Variable.PRODUCTION: r1[:g].mean(),
        Variable.SHIPMENTS: r1[g: 2 * g].mean(),
        Variable.INVENTORY: r1[2 * g:].mean(),
    }
    assert by_class[Variable.PRODUCTION] == pytest.approx(-0.31, abs=0.02)
    assert by_class[Variable.SHIPMENTS] == pytest.approx(-0.39, abs=0.02)
    assert by_class[Variable.INVENTORY] == pytest.approx(0.007, abs=0.02)


def test_three_planted_modes_clear_a_threshold():
    spec = synth.SynthSpec(
        n_series=63,
        n_obs=239,
        modes=(
            synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.0)),
            synth.PlantedMode(eigenvalue=5.0, driver=synth.Ar1(0.0)),
            synth.PlantedMode(eigenvalue=4.0, driver=synth.Ar1(0.0)),
        ),
        seed=13,
    )
    w = synth.generate(spec)
    basis = eigendecompose(correlation_matrix(w))
    assert np.sum(basis.eigenvalues > 2.5) == 3
