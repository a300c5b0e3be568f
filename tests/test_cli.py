import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panelresponse import corr_from_csv, corr_from_json, synth, to_level_panel, write_panel_csv

from oracles import csv_writer_text

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd, input_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PANELRESPONSE_OUTDIR", None)
    return subprocess.run(
        [sys.executable, "-m", "panelresponse.cli", *args],
        cwd=cwd,
        env=env,
        input=input_text,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    """A 63-series panel CSV with two planted modes, plus its spec file."""
    root = tmp_path_factory.mktemp("cli-data")
    spec = synth.SynthSpec(
        n_series=63,
        n_obs=239,
        modes=(
            synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.2)),
            synth.PlantedMode(eigenvalue=5.0, driver=synth.Sinusoid(period=60.0)),
        ),
        seed=21,
    )
    spec_path = root / "spec.json"
    synth.spec_to_json(spec, spec_path)
    panel_path = root / "panel.csv"
    write_panel_csv(to_level_panel(synth.generate(spec)), panel_path)
    return panel_path, spec_path


def read_data_lines(path: Path) -> list[str]:
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# config: ")
    json.loads(lines[0][len("# config: "):])  # embedded config parses
    return lines[1:]


def test_validate_ok(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("validate", "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert set(summary) == {"end", "goods", "months", "series", "start"}
    assert summary["series"] == 63
    assert summary["months"] == 240
    assert (tmp_path / "o" / "manifest.json").exists()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["subcommand"] == "validate"
    assert "weights" not in manifest["config"]
    assert "numpy" in manifest["versions"]


def test_validate_accepts_a_byte_order_mark(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    text = panel_path.read_text()
    plain = run_cli("validate", "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert plain.returncode == 0, plain.stderr
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + text, encoding="utf-8")
    res = run_cli("validate", "--input", str(bom), "--outdir", "o", cwd=tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (0, plain.stdout, "")
    res = run_cli("validate", "--input", "-", "--outdir", "o", cwd=tmp_path,
                  input_text="\ufeff" + text)
    assert (res.returncode, res.stdout, res.stderr) == (0, plain.stdout, "")


def test_validate_data_error_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,P.1,S.1,I.1\n1988-01,1,1,1\n1988-02,0,1,1\n1988-03,1,1,1\n")
    res = run_cli("validate", "--input", str(bad), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.strip().split("\n")) == 1
    assert "non-positive" in res.stderr


def test_infinite_level_is_one_line_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,P.1,S.1,I.1\n1987-12,inf,1,1\n1988-01,1,1,1\n"
                   "1988-02,1,inf,1\n1988-03,1,1,1\n")
    res = run_cli("validate", "--input", str(bad), "--window", "1988-01:1988-03",
                  "--outdir", "o", cwd=tmp_path)
    assert_one_line_error(res)
    assert "infinite level inf for series S.1 at 1988-02" in res.stderr


def test_usage_error_exit_2(planted_csv, tmp_path):
    res = run_cli("analyze", cwd=tmp_path)  # missing --input
    assert res.returncode == 2
    res = run_cli("no-such-command", cwd=tmp_path)
    assert res.returncode == 2
    panel_path, _ = planted_csv
    res = run_cli("validate", "--input", str(panel_path), "--weights", "w.csv", cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("null", "--samples", "0"),
        ("genuine", "--samples", "0"),
        ("ripple", "--samples", "-5"),
        ("null", "--seed", "-1"),
        ("cycles", "--xi", "-1"),
        ("stimuli", "--xi", "-2"),
        ("cycles", "--max-lag", "-1"),
        ("reduced-chi", "--beta", "nan"),
        ("stimuli", "--beta", "nan"),
        ("stimuli", "--beta", "inf"),
        ("reduced-chi", "--beta", "0"),
        ("reduced-chi", "--beta", "-1"),
        ("stimuli", "--beta", "0"),
        ("stimuli", "--beta", "-1"),
        ("phases", "--kset", "0,1"),
        ("phases", "--kset", "-3"),
        ("phases", "--kset", ","),
        ("stimuli", "--kset", "0,1"),
        ("stimuli", "--kset", "-3"),
        ("stimuli", "--kset", ","),
        ("ripple", "--shift", "nan"),
        ("ripple", "--shift", "-inf"),
        ("genuine", "--k", "-1"),
        ("ripple", "--k", "-1"),
        ("reduced-chi", "--k", "0"),
        ("phases", "--k", "0"),
        ("analyze", "--bins", "0"),
    ],
)
def test_out_of_range_argument_is_usage_error(planted_csv, tmp_path, args):
    panel_path, _ = planted_csv
    res = run_cli(*args, "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert f"argument {args[1]}" in res.stderr
    assert not (tmp_path / "o").exists()


def test_reduced_chi_names_its_own_mode_range(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("reduced-chi", "--k", "100", "--input", str(panel_path), "--outdir", "o",
                  cwd=tmp_path)
    assert_one_line_error(res)
    assert "mode count 100 outside [1, 63]" in res.stderr


@pytest.mark.parametrize(
    "args, data, line",
    [
        (("phases", "--k", "500"), "panel", "frequency index 500 outside [1, 238]"),
        (("stimuli", "--kset", "500"), "panel", "frequency index 500 outside [1, 238]"),
        (("cycles", "--xi", "500"), "panel", "half-width 500 >= series length 239"),
        (("reduced-chi", "--k", "64"), "panel", "mode count 64 outside [1, 63]"),
        (("genuine", "--k", "64"), "panel", "mode count 64 outside [0, 63]"),
        (("ripple", "--k", "1"), "2-goods panel", "expected the 21-goods layout, got 2"),
        (("synth",), "AR(1) 1.5 spec", "AR(1) coefficient 1.5 outside (-1, 1)"),
    ],
)
def test_error_line_and_exit_code(planted_csv, tmp_path, args, data, line):
    panel_path, spec_path = planted_csv
    if data == "panel":
        args = (*args, "--input", str(panel_path))
    elif data == "2-goods panel":
        small = tmp_path / "small.csv"
        write_panel_csv(to_level_panel(synth.generate(
            synth.SynthSpec(n_series=6, n_obs=60, modes=(), seed=1))), small)
        args = (*args, "--input", str(small))
    else:
        spec = json.loads(spec_path.read_text())
        spec["modes"][0]["driver"]["coefficient"] = 1.5
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps(spec))
        args = (*args, "--spec", str(bad))
    res = run_cli(*args, "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr == f"panelresponse: {line}\n"
    assert res.stdout == ""


def test_manifest_records_peak_rss(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("analyze", "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    # ru_maxrss, in MiB: numpy alone takes more than 10
    assert 10.0 < manifest["peak_rss_mb"] < 10_000.0


def assert_one_line_error(res):
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("panelresponse: "), res.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"n_series": 6, "n_obs": 20, "seed": -1}',  # negative seed
        '{"n_obs": 20}',  # missing n_series
        "n_series = 6",  # not JSON
        '{"n_series": "six", "n_obs": 20}',  # wrong type
    ],
)
def test_bad_spec_file_is_one_line_error(tmp_path, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert_one_line_error(run_cli("synth", "--spec", str(spec), "--outdir", "o", cwd=tmp_path))


def test_unknown_ripple_source_is_one_line_error(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("ripple", "--input", str(panel_path), "--k", "2", "--source", "S.99",
                  "--outdir", "o", cwd=tmp_path)
    assert_one_line_error(res)
    assert "series S.99 not in a 21-goods layout" in res.stderr


@pytest.mark.parametrize("args", [("ripple", "--k", "2", "--source", "S.22"),
                                  ("phases", "--ref", "P.22")])
def test_series_outside_the_layout_is_one_line_error(planted_csv, tmp_path, args):
    panel_path, _ = planted_csv
    res = run_cli(*args, "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert_one_line_error(res)
    assert f"series {args[-1]} not in a 21-goods layout" in res.stderr


def test_failed_run_writes_no_artifact(planted_csv, tmp_path):
    # the source is resolved after the intermediate-response table is computed,
    # so a run that wrote as it went would leave that table behind
    panel_path, _ = planted_csv
    res = run_cli("ripple", "--input", str(panel_path), "--k", "2", "--source", "S.99",
                  "--outdir", "fresh", cwd=tmp_path)
    assert res.returncode == 1
    assert list((tmp_path / "fresh").iterdir()) == []
    # a 2-goods panel has no final-demand -> producer-goods table: the run
    # fails before that table's file is opened
    small = tmp_path / "small.csv"
    write_panel_csv(
        to_level_panel(synth.generate(synth.SynthSpec(n_series=6, n_obs=60, modes=(), seed=1))),
        small,
    )
    res = run_cli("ripple", "--input", str(small), "--k", "1", "--outdir", "small", cwd=tmp_path)
    assert res.returncode == 1
    assert "21-goods layout" in res.stderr
    assert list((tmp_path / "small").iterdir()) == []


def test_refused_allocation_is_one_line_error(planted_csv, tmp_path, monkeypatch, capsys):
    from panelresponse import cli

    # what numpy raises for an absurd --bins or --samples; allocating for real
    # would be an OOM kill, not an error, on a host that overcommits memory
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "mp_density", refuse)
    panel_path, _ = planted_csv
    code = cli.main(["analyze", "--input", str(panel_path), "--outdir", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"panelresponse: {message}\n"
    assert list((tmp_path / "o").iterdir()) == []


def test_eigensolver_failure_is_one_line_error(planted_csv, tmp_path, monkeypatch, capsys):
    from panelresponse import cli

    def wrong_eigh(a):  # eigenpairs that fail the residual check
        return np.arange(a.shape[0], dtype=float), np.eye(a.shape[0])

    monkeypatch.setattr(np.linalg, "eigh", wrong_eigh)
    panel_path, _ = planted_csv
    code = cli.main(["analyze", "--input", str(panel_path), "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("panelresponse: eigensolver residual"), err


def test_import_loads_neither_scipy_nor_an_executor():
    # import time is paid by every CLI call: the null imports its thread pool
    # only when it runs, nothing at run time needs scipy, and statistics
    # (with decimal and fractions) serves one quantile
    code = (
        "import sys, panelresponse; "
        "print([m for m in ('scipy', 'concurrent.futures', 'statistics') if m in sys.modules])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_analyze_never_imports_numpy_ma(planted_csv, tmp_path):
    # numpy.ma costs 15-21 ms of import in a fresh process, and np.unique
    # imports it on first use
    panel_path, _ = planted_csv
    code = (
        "import sys; from panelresponse.cli import main; "
        f"main(['analyze', '--input', {str(panel_path)!r}, '--outdir', 'o']); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "False"


def test_analyze_artifacts(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("analyze", "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    eig_rows = read_data_lines(tmp_path / "o" / "eigenvalues.csv")
    assert eig_rows[0] == "n,eigenvalue"
    assert len(eig_rows) == 64  # header + 63 eigenvalues
    top = float(eig_rows[1].split(",")[1])
    assert 6.0 < top < 10.0  # planted leading mode
    for name in ("eigenvectors.csv", "spectrum_histogram.csv", "mp_density.csv"):
        assert (tmp_path / "o" / name).exists()
    summary = json.loads(res.stdout)
    assert summary["m"] == 63


def test_analyze_histogram_spans_its_range_and_integrates_to_one(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli("analyze", "--input", str(panel_path), "--bins", "17", "--outdir", "o",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in read_data_lines(tmp_path / "o" / "spectrum_histogram.csv")]
    assert rows[0] == ["lambda_lo", "lambda_hi", "density"]
    lo, hi, density = (np.array(column, dtype=float) for column in zip(*rows[1:]))
    assert lo.size == 17 and np.array_equal(lo[1:], hi[:-1])
    top = float(read_data_lines(tmp_path / "o" / "eigenvalues.csv")[1].split(",")[1])
    assert lo[0] == 0.0 and hi[-1] == 1.05 * top
    assert abs(np.sum(density * (hi - lo)) - 1.0) <= 1e-12


def test_null_byte_identical_reruns(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    outputs = []
    for _ in range(2):  # identical invocation twice
        res = run_cli(
            "null", "--input", str(panel_path), "--mode", "rotational",
            "--samples", "40", "--seed", "7", "--outdir", "o", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((tmp_path / "o" / "ensemble.json").read_bytes())
    a, b = outputs
    assert a == b
    doc = json.loads(a)
    assert doc["mode"] == "rotational"
    assert doc["samples"] == 40
    assert len(doc["lambda_max"]) == 40
    assert doc["edge"]["low"] <= doc["edge"]["center"] <= doc["edge"]["high"]
    pooled = (tmp_path / "o" / "pooled_eigenvalues.csv").read_text().strip().split("\n")
    assert len(pooled) == 2 + 40 * 63  # config + header + samples*M


def test_genuine_artifact(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli(
        "genuine", "--input", str(panel_path), "--k", "2", "--outdir", "o", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    cg = corr_from_csv(tmp_path / "o" / "genuine_matrix.csv")
    assert cg.kind == "genuine"
    assert cg.n_modes == 2
    assert np.all(np.diag(cg.values) == 1.0)


def test_genuine_matrix_json_reads_back_as_its_csv(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli(
        "genuine", "--input", str(panel_path), "--k", "2", "--outdir", "o", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    # the document's "config" key is not a matrix field, and is ignored
    from_json = corr_from_json(tmp_path / "o" / "genuine_matrix.json")
    from_csv = corr_from_csv(tmp_path / "o" / "genuine_matrix.csv")
    assert from_json.values.tobytes() == from_csv.values.tobytes()
    assert (from_json.kind, from_json.n_goods, from_json.n_modes) == ("genuine", 21, 2)
    assert (from_csv.kind, from_csv.n_goods, from_csv.n_modes) == ("genuine", 21, 2)


def test_ripple_reduced_chi_phases_cycles_stimuli(planted_csv, tmp_path):
    panel_path, _ = planted_csv
    res = run_cli(
        "ripple", "--input", str(panel_path), "--k", "2",
        "--source", "S.15", "--outdir", "o", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    table = read_data_lines(tmp_path / "o" / "intermediate_response.csv")
    assert table[0] == "goods,label,g20_genuine,g21_genuine,g20_raw,g21_raw"
    assert len(table) == 20
    assert (tmp_path / "o" / "ripple_source.csv").exists()

    res = run_cli(
        "reduced-chi", "--input", str(panel_path), "--outdir", "rc", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "rc" / "reduced_chi.json").read_text())
    norm = np.asarray(doc["normalized"])
    assert norm[0, 0] == 1.0
    assert abs(norm[0, 1]) < 0.2  # nearly decoupled modes

    res = run_cli(
        "phases", "--input", str(panel_path), "--k", "4", "--outdir", "ph", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    rows = read_data_lines(tmp_path / "ph" / "phases.csv")
    assert rows[0] == "goods,P,S,I"
    assert json.loads(res.stdout)["period"] == "T=60"

    res = run_cli(
        "cycles", "--input", str(panel_path), "--max-lag", "12", "--outdir", "cy",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lag_rows = read_data_lines(tmp_path / "cy" / "lag_correlation.csv")
    assert len(lag_rows) == 1 + 25  # header + lags -12..12

    res = run_cli(
        "stimuli", "--input", str(panel_path), "--outdir", "st", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    stim_rows = read_data_lines(tmp_path / "st" / "stimuli.csv")
    assert stim_rows[0] == "date,eta1,eta2"
    assert len(stim_rows) == 240  # header + 239 months


def artifact_config(path: Path) -> dict:
    """The run config an artifact records: a CSV's ``# config:`` line or a JSON's ``config``."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["config"]
    first = path.read_text().split("\n", 1)[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


# the result containers keep no run parameter, so each artifact must record them
@pytest.mark.parametrize("args, want", [
    (("ripple", "--k", "2", "--source", "S.15", "--shift", "2.5"),
     {"k": 2, "source": "S.15", "shift": 2.5}),
    (("phases", "--k", "4", "--ref", "P.20"), {"k": 4, "ref": "P.20", "freq_avg": False}),
    (("phases", "--freq-avg", "--kset", "two-years", "--ref", "S.3"),
     {"kset": list(range(1, 10)), "ref": "S.3", "freq_avg": True}),
    (("stimuli", "--xi", "3", "--kset", "1,2,4,6", "--beta", "2"),
     {"xi": 3, "kset": [1, 2, 4, 6], "beta": 2.0}),
    (("reduced-chi", "--k", "2", "--beta", "2"), {"k": 2, "beta": 2.0}),
], ids=["ripple", "phases-k", "phases-freq-avg", "stimuli", "reduced-chi"])
def test_artifacts_record_the_run_parameters(planted_csv, tmp_path, args, want):
    panel_path, _ = planted_csv
    res = run_cli(*args, "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    paths = sorted((tmp_path / "o").iterdir())
    assert len(paths) >= 2  # the artifacts and manifest.json
    for path in paths:
        config = artifact_config(path)
        assert {key: config.get(key) for key in want} == want, path.name
    if args[0] == "reduced-chi":
        doc = json.loads((tmp_path / "o" / "reduced_chi.json").read_text())
        assert doc["beta"] == 2.0 and type(doc["beta"]) is float


def test_synth_pipe_to_analyze(planted_csv, tmp_path):
    _, spec_path = planted_csv
    synth_res = run_cli(
        "synth", "--spec", str(spec_path), "--seed", "1", "--stdout",
        "--outdir", "s", cwd=tmp_path,
    )
    assert synth_res.returncode == 0, synth_res.stderr
    res = run_cli(
        "analyze", "--input", "-", "--outdir", "an", cwd=tmp_path,
        input_text=synth_res.stdout,
    )
    assert res.returncode == 0, res.stderr
    eig_rows = read_data_lines(tmp_path / "an" / "eigenvalues.csv")
    top = [float(r.split(",")[1]) for r in eig_rows[1:4]]
    # planted eigenvalues at 8 and 5 are recovered well above the noise band
    assert top[0] == pytest.approx(8.0, abs=1.5)
    assert top[1] == pytest.approx(5.0, abs=1.0)
    assert top[2] < 3.2


def test_synth_deterministic_output(planted_csv, tmp_path):
    _, spec_path = planted_csv
    outs = []
    for _ in range(2):  # identical invocation twice
        res = run_cli(
            "synth", "--spec", str(spec_path), "--outdir", "s", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / "s" / "panel.csv").read_bytes())
    assert outs[0] == outs[1]


CSV_OPS = {
    "an": ("analyze",),
    "nu": ("null", "--samples", "20"),
    "ge": ("genuine", "--k", "2"),
    "ri": ("ripple", "--k", "2", "--source", "S.15"),
    "rc": ("reduced-chi",),
    "cy": ("cycles",),
    "p4": ("phases", "--k", "4"),
    "pf": ("phases", "--freq-avg"),
    "st": ("stimuli",),
}


def test_every_csv_artifact_is_csv_writer_text_with_repr_floats(planted_csv, tmp_path):
    panel_path, spec_path = planted_csv
    runs = [(out, (*args, "--input", str(panel_path))) for out, args in CSV_OPS.items()]
    runs.append(("sy", ("synth", "--spec", str(spec_path))))
    seen = set()
    for out, args in runs:
        res = run_cli(*args, "--outdir", out, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        for path in sorted((tmp_path / out).glob("*.csv")):
            seen.add(path.name)
            config, text = path.read_text().split("\n", 1)
            assert config.startswith("# config: ")
            rows = list(csv.reader(io.StringIO(text)))
            # nothing needed quoting: the rows read back render to the same text
            assert text == csv_writer_text(rows), path
            # every row but a matrix's two-line header is as wide as the first
            body = rows[2:] if path.name == "genuine_matrix.csv" else rows
            assert {len(row) for row in body} == {len(body[0])}, path
            for cell in (cell for row in rows for cell in row):
                try:
                    int(cell)
                except ValueError:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a label, a month or a header
                    assert repr(value) == cell, (path, cell)
    assert len(seen) == 14
