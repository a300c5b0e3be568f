"""One live copy of the panel: ownership of container arrays and peak memory.

Containers adopt a read-only array that owns its data and copy anything
else; producers hand over fresh frozen arrays, growth and standardization run
in place, a null's chunks never overlap and matrices are streamed row by row.  The
peaks are traced with ``tracemalloc`` at the scaled 300 x 1200 shape.
"""

import argparse
import dataclasses
import io
import itertools
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from panelresponse import (
    KSET_BUSINESS_CYCLES,
    CorrMatrix,
    GrowthPanel,
    ModeSeries,
    NullEnsemble,
    Panel,
    SeriesId,
    StandardizedPanel,
    correlation_matrix,
    eigendecompose,
    external_stimuli,
    freq_avg_phases,
    genuine_matrix,
    load_panel,
    log_growth,
    mode_series,
    null_ensemble,
    parse_month,
    reduced_susceptibility,
    ripple,
    simple_growth,
    standardize,
    to_level_panel,
    write_panel_csv,
)
from panelresponse import _files, cli, nullmodel, synth
from panelresponse.spectral import _write_corr

from oracles import corr_texts, traced_peak

MIB = 1 << 20


def level_values(g=2, n=12, seed=0):
    return np.random.default_rng(seed).uniform(50.0, 150.0, (3 * g, n))


def months(n):
    return parse_month("1990-01") + np.arange(n)


def standardized_values(m, n, seed):
    x = np.random.default_rng(seed).standard_normal((m, n))
    return (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ownership
# ---------------------------------------------------------------------------


def test_containers_copy_a_callers_writeable_array():
    values = level_values()
    panel = Panel(months=months(12), values=values)
    rates = values[:, 1:] / values[:, :-1]
    growth = GrowthPanel(months=months(11), rates=rates)
    w_values = standardized_values(6, 12, 1)
    w = StandardizedPanel.from_values(w_values)
    ms_months, coeffs = months(12), np.ones((2, 12))
    ms = ModeSeries(months=ms_months, coeffs=coeffs)
    lambda_max, pooled = np.linspace(2.0, 3.0, 4), np.ones((4, 6))
    pooled[:, 0] = lambda_max  # a pooled spectrum holds lambda_max first
    e = NullEnsemble(lambda_max=lambda_max, pooled=pooled)
    arrays = (panel.values, growth.rates, w.values, ms.months, ms.coeffs,
              e.lambda_max, e.pooled)
    kept = [a.copy() for a in arrays]
    values[:] = 1.0
    rates[:] = 2.0
    w_values[:] = 3.0
    ms_months[:] = ms_months[0]
    coeffs[:] = 4.0
    lambda_max[:] = 5.0
    pooled[:] = 6.0
    for container, before in zip(arrays, kept):
        assert np.array_equal(container, before)
        assert not container.flags.writeable


def test_containers_adopt_a_frozen_array_that_owns_its_data():
    values = level_values()
    values.setflags(write=False)
    assert Panel(months=months(12), values=values).values is values
    # a read-only view does not own its data, so it is copied
    view = values[:, 1:]
    panel = Panel(months=months(11), values=view)
    assert panel.values is not view and np.array_equal(panel.values, view)
    # so is a frozen array of another dtype
    ints = np.arange(1, 13).reshape(6, 2)
    ints.setflags(write=False)
    growth = GrowthPanel(months=months(2), rates=ints)
    assert growth.rates.dtype == float and growth.rates is not ints


def test_containers_compare_and_hash_by_identity(planted_panel):
    w = planted_panel
    raw = correlation_matrix(w)
    basis = eigendecompose(raw)
    ms = mode_series(w, basis)
    cg = genuine_matrix(basis, 2)
    panel = to_level_panel(w)
    containers = [
        panel, log_growth(panel), w, raw, basis, ms, null_ensemble(w, "complete", 2, 0),
        freq_avg_phases(ms, basis, [4], SeriesId.parse("P.20")),
        external_stimuli(ms, reduced_susceptibility(cg, basis, 2), 6, KSET_BUSINESS_CYCLES),
    ]
    assert len({type(c) for c in containers}) == 9
    for c in containers:
        # the same fields, so the same arrays: still another container
        twin = dataclasses.replace(c)
        assert c == c and c != twin and hash(c) == hash(c)
        assert len({c, twin, c}) == 2


@pytest.mark.parametrize("growth", [log_growth, simple_growth])
def test_producers_hand_over_fresh_frozen_arrays(growth):
    panel = Panel(months=months(12), values=level_values())
    g = growth(panel)
    w = standardize(g)
    c = correlation_matrix(w)
    basis = eigendecompose(c)
    e = null_ensemble(w, "rotational", 3, seed=0)
    for a in (g.rates, w.values, c.values, basis.eigenvalues,
              basis.vectors, genuine_matrix(basis, 2).values, e.lambda_max, e.pooled):
        assert a.flags.owndata and not a.flags.writeable
    # the in-place arithmetic gives the values of the plain expressions
    v = panel.values
    want = np.log10(v[:, 1:] / v[:, :-1]) if growth is log_growth else (
        (v[:, 1:] - v[:, :-1]) / v[:, :-1])
    assert np.array_equal(g.rates, want)
    mu, sigma = want.mean(axis=1), want.std(axis=1)
    assert np.array_equal(w.values, (want - mu[:, None]) / sigma[:, None])


def test_result_arrays_are_read_only(planted_panel):
    w = planted_panel
    basis = eigendecompose(correlation_matrix(w))
    ms = mode_series(w, basis)
    cg = genuine_matrix(basis, 2)
    chi = reduced_susceptibility(cg, basis, 2)
    mode = synth.PlantedMode(1.0, synth.Ar1(0.0), loading=[1.0, 0.0, 0.0])
    for a in (ripple(cg, SeriesId.parse("S.15")),
              freq_avg_phases(ms, basis, [4], SeriesId.parse("P.20")).phases,
              external_stimuli(ms, chi, 6, KSET_BUSINESS_CYCLES).values, chi, mode.loading):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# ---------------------------------------------------------------------------
# peak memory at 300 x 1200
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["log10", "simple"])
def test_standardized_peaks_near_two_panels(tmp_path, method):
    g, n = 100, 1200
    values = level_values(g, n, seed=3)
    path = tmp_path / "panel.csv"
    write_panel_csv(Panel(months=months(n), values=values), path)
    args = argparse.Namespace(input=str(path), window=None, method=method)
    w, peak = traced_peak(lambda: cli._standardized(args))
    # the level panel, the growth rates and the standardized copy used to
    # overlap (4.0x); now at most two panels are alive at once
    assert peak < 2.5 * values.nbytes + MIB
    growth = log_growth if method == "log10" else simple_growth
    assert np.array_equal(w.values, standardize(growth(load_panel(path))).values)


@pytest.mark.parametrize("mode, panels", [("complete", 0), ("rotational", 2)])
def test_null_chunks_never_overlap(mode, panels):
    w = StandardizedPanel.from_values(standardized_values(300, 1200, 5))
    # one 2.9 MB sample per chunk; the old chunk used to live until the next
    # one was gathered (2.3x a sample).  A rotational null also holds the
    # panel twice over, [v v], for its sliding windows.
    _, peak = traced_peak(lambda: null_ensemble(w, mode, 4, seed=1))
    assert peak < (panels + 1.75) * w.values.nbytes + MIB


@pytest.mark.parametrize("mode, panels", [("complete", 0), ("rotational", 2)])
def test_chunk_is_freed_before_its_eigensolve(monkeypatch, mode, panels):
    w = StandardizedPanel.from_values(standardized_values(300, 1200, 5))
    eigvalsh, entered = np.linalg.eigvalsh, []

    def recording(a):
        entered.append(tracemalloc.get_traced_memory()[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        null_ensemble(w, mode, 3, seed=1)
    finally:
        tracemalloc.stop()
    # a sample's Gram matrix is a quarter of its 2.9 MB, and a rotational
    # null also holds [v v]; a shuffled chunk still alive beside them would
    # add a whole sample (1.25 samples for a complete null)
    sample = w.values.nbytes
    assert len(entered) == 3
    assert max(entered) - start <= (panels + 0.5) * sample + MIB


@pytest.mark.parametrize("n", [239, 257])
def test_rotational_offsets_cost_their_table(monkeypatch, n):
    # every sample's window starts are drawn up front into one samples x M
    # table of the smallest unsigned type holding N' - 1; a table of intp
    # (8 bytes a start) would exceed the bound several times over
    m, samples = 63, 2000
    w = StandardizedPanel.from_values(standardized_values(m, n, 6))
    monkeypatch.setattr(nullmodel, "_worker_count", lambda sample_bytes, chunks: 1)
    two_chunks = 2 * (nullmodel._CHUNK_BYTES // w.values.nbytes)

    def peak(count):
        return traced_peak(lambda: null_ensemble(w, "rotational", count, seed=2,
                                                 keep_pooled=False))[1]

    itemsize = np.min_scalar_type(n - 1).itemsize
    # the table plus lambda_max's 8 bytes a sample, with some slack
    assert peak(samples) - peak(two_chunks) <= samples * (m * itemsize + 24) + 64 * 1024


def test_streamed_pooled_spectrum_is_never_held_whole(monkeypatch):
    # two workers stream every sample's spectrum as its chunk finishes; the
    # samples x M pooled array would add 2,000 x 63 x 8 bytes to the growth
    m, n, samples = 63, 239, 2000
    w = StandardizedPanel.from_values(standardized_values(m, n, 6))
    monkeypatch.setattr(nullmodel, "_worker_count", lambda sample_bytes, chunks: min(2, chunks))
    two_chunks = 2 * (nullmodel._CHUNK_BYTES // w.values.nbytes)
    check = nullmodel.check_standardized

    def peak(count):
        # both workers' first chunks are held at once, so the two-chunk null
        # reaches the overlap that the long one always reaches
        meet, calls = threading.Barrier(2), itertools.count()

        def meeting_check(mean, mean_square):
            if next(calls) < 2:
                meet.wait(timeout=60)
            check(mean, mean_square)

        monkeypatch.setattr(nullmodel, "check_standardized", meeting_check)
        with open(os.devnull, "w") as sink:
            return traced_peak(lambda: null_ensemble(w, "rotational", count, seed=2,
                                                     keep_pooled=False, pooled_csv=sink))[1]

    peak(two_chunks)  # the first two-worker null imports the thread pool
    itemsize = np.min_scalar_type(n - 1).itemsize
    # the offset table plus lambda_max's 8 bytes a sample, with the same slack
    assert peak(samples) - peak(two_chunks) <= samples * (m * itemsize + 24) + 64 * 1024


def genuine_300():
    w = StandardizedPanel.from_values(standardized_values(300, 400, 4))
    return genuine_matrix(eigendecompose(correlation_matrix(w)), 2)


def test_genuine_matrix_json_peaks_below_its_text(tmp_path):
    c = genuine_300()
    config = {"command": "genuine", "k": 2}
    out = cli._Artifacts(tmp_path, config)

    def write_both():  # as the genuine subcommand writes them
        with out.open("genuine_matrix.csv") as csv_fh, out.open("genuine_matrix.json") as json_fh:
            _write_corr(c, csv_fh, json_fh, {"config": config})

    _, peak = traced_peak(write_both)
    out.commit()
    csv_text = (tmp_path / "genuine_matrix.csv").read_text()
    json_text = (tmp_path / "genuine_matrix.json").read_text()
    # ~1.9 MB of text each; the matrix as lists and one string of it peaked near 8 MB
    assert peak < min(len(csv_text), len(json_text))
    want_csv, want_json = corr_texts(c, {"config": config})
    assert csv_text == f"# config: {json.dumps(config, sort_keys=True)}\n{want_csv}"
    assert json_text == want_json


# ---------------------------------------------------------------------------
# the streamed JSON writer
# ---------------------------------------------------------------------------


def test_streamed_json_equals_json_dumps():
    values = np.array([[1.0, -0.0, 1e-300], [-0.0, 1.0, 5e-324], [1e-300, 5e-324, 1.0]])
    c = CorrMatrix(values=values, n_modes=1)
    lead = {"config": {"window": None, "method": "log10", "k": 2, "ok": True,
                       "name": "café \"quoted\""}}
    buf = io.StringIO()
    _write_corr(c, io.StringIO(), buf, lead)
    assert buf.getvalue() == json.dumps(
        {**lead, "kind": "genuine", "m": 3, "goods": 1, "k": 1, "values": values.tolist()})
    # every other document is one json.dumps, with its formatting options
    plain = {
        "config": lead["config"],
        "row": [math.nan, 1.5],
        "empty": [],
        "scalar": 0.25,
        "tail": [1, 2.5, None],
    }
    for fmt in ({}, {"indent": 2, "sort_keys": True}):
        buf = io.StringIO()
        _files.write_json(buf, plain, **fmt)
        assert buf.getvalue() == json.dumps(plain, **fmt)
    assert "NaN" in buf.getvalue()
