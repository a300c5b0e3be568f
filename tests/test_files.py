"""Every reader and writer behaves the same on a path as on an open stream."""

import io
import json

import pytest

from panelresponse import (
    KSET_BUSINESS_CYCLES,
    NullEnsemble,
    SeriesId,
    corr_from_csv,
    corr_from_json,
    corr_to_csv,
    correlation_matrix,
    eigendecompose,
    external_stimuli,
    final_to_intermediate_csv,
    freq_avg_phases,
    genuine_matrix,
    load_panel,
    mode_series,
    null_ensemble,
    reduced_susceptibility,
    synth,
    to_level_panel,
    write_panel_csv,
)
from panelresponse._files import open_text
from panelresponse.errors import SchemaError
from panelresponse.spectral import _write_corr


@pytest.fixture(scope="module")
def objects(planted_panel):
    w = planted_panel
    raw = correlation_matrix(w)
    basis = eigendecompose(raw)
    cg = genuine_matrix(basis, 2)
    ms = mode_series(w, basis)
    chi = reduced_susceptibility(cg, basis, 2)
    return {
        "raw": raw,
        "cg": cg,
        "ensemble": null_ensemble(w, "rotational", 5, 0),
        "stimuli": external_stimuli(ms, chi, 6, KSET_BUSINESS_CYCLES),
        "phases": freq_avg_phases(ms, basis, [4], SeriesId.parse("P.20")),
        "panel": to_level_panel(w),
        "spec": synth.SynthSpec(
            n_series=6, n_obs=30, noise_ar1=-0.2, seed=4,
            modes=(synth.PlantedMode(eigenvalue=2.0, driver=synth.Ar1(0.3)),),
        ),
    }


def corr_json(c, target):
    """The matrix document that ``genuine`` writes beside the matrix CSV."""
    with open_text(target, "w") as fh:
        _write_corr(c, io.StringIO(), fh)


WRITERS = {
    "corr_to_csv": lambda o, t: corr_to_csv(o["cg"], t),
    "_write_corr(json)": lambda o, t: corr_json(o["cg"], t),
    "NullEnsemble.to_json": lambda o, t: o["ensemble"].to_json(t),
    "NullEnsemble.pooled_to_csv": lambda o, t: o["ensemble"].pooled_to_csv(t),
    "StimulusSeries.to_csv": lambda o, t: o["stimuli"].to_csv(t),
    "PhaseTable.to_csv": lambda o, t: o["phases"].to_csv(t),
    "write_panel_csv": lambda o, t: write_panel_csv(o["panel"], t),
    "final_to_intermediate_csv": lambda o, t: final_to_intermediate_csv(o["cg"], o["raw"], t),
    "spec_to_json": lambda o, t: synth.spec_to_json(o["spec"], t),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_path_and_stream_get_same_text(objects, tmp_path, name):
    path = tmp_path / "out"
    WRITERS[name](objects, path)
    buf = io.StringIO()
    WRITERS[name](objects, buf)
    assert not buf.closed  # a caller's stream stays open
    with open(path, newline="") as fh:
        assert fh.read() == buf.getvalue() != ""


def _corr_form(c):
    return c.kind, c.n_goods, c.n_modes, c.values.tolist()


def _panel_form(p):
    return p.months.tolist(), p.values.tolist(), p.ids


# reader -> (object key, writer name, reader, comparable form, reads a dict too)
READERS = {
    "corr_from_csv": ("cg", "corr_to_csv", corr_from_csv, _corr_form, False),
    "corr_from_json": ("cg", "_write_corr(json)", corr_from_json, _corr_form, True),
    "NullEnsemble.from_json": ("ensemble", "NullEnsemble.to_json", NullEnsemble.from_json,
                               NullEnsemble.to_json, True),
    "spec_from_json": ("spec", "spec_to_json", synth.spec_from_json, synth.spec_to_json, True),
    "load_panel": ("panel", "write_panel_csv", load_panel, _panel_form, False),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_path_stream_and_dict_agree(objects, tmp_path, name):
    key, writer, read, form, reads_dict = READERS[name]
    path = tmp_path / "doc"
    WRITERS[writer](objects, path)
    want = form(objects[key])
    assert form(read(path)) == want
    with open(path, newline="") as fh:
        assert form(read(fh)) == want
        assert not fh.closed
    if reads_dict:
        assert form(read(json.loads(path.read_text()))) == want


@pytest.mark.parametrize("name", ["corr_from_json", "NullEnsemble.from_json", "spec_from_json"])
def test_json_readers_drop_one_byte_order_mark(objects, tmp_path, name):
    key, writer, read, form, _ = READERS[name]
    path = tmp_path / "doc"
    WRITERS[writer](objects, path)
    text = path.read_text()
    want = form(objects[key])
    # as an editor saves "UTF-8 with BOM"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert form(read(path)) == want
    assert form(read(io.StringIO("\ufeff" + text))) == want
    # only the first mark is dropped
    with pytest.raises(SchemaError, match="unreadable JSON"):
        read(io.StringIO("\ufeff\ufeff" + text))


JSON_READERS = {
    "corr_from_json": corr_from_json,
    "NullEnsemble.from_json": NullEnsemble.from_json,
}


@pytest.mark.parametrize("data, message", [
    (b"{", "unreadable JSON"),
    (b"\xff", "unreadable JSON"),
    (b"{}", "field '(values|kind|lambda_max)'"),
    (b"[]", "malformed"),
])
@pytest.mark.parametrize("name", sorted(JSON_READERS))
def test_json_reader_errors_are_schema_errors(tmp_path, name, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=message):
        JSON_READERS[name](path)


def test_spec_file_that_is_not_json_is_a_schema_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("n_series = 6")
    with pytest.raises(SchemaError, match="unreadable JSON"):
        synth.spec_from_json(path)
