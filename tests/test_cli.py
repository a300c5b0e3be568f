import argparse
import contextlib
import csv
import errno
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelresponse import corr_from_csv, corr_from_json, synth, to_level_panel, write_panel_csv

from oracles import csv_writer_text

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd, input_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "panelresponse", *args],
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


def test_synth_accepts_a_spec_with_a_byte_order_mark(planted_csv, tmp_path):
    _, spec_path = planted_csv
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + spec_path.read_bytes())
    panels = []
    for spec in (spec_path, bom):
        res = run_cli("synth", "--spec", str(spec), "--outdir", "s", cwd=tmp_path)
        assert (res.returncode, res.stderr) == (0, ""), res.stderr
        panels.append(read_data_lines(tmp_path / "s" / "panel.csv"))
    assert panels[0] == panels[1]


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
        ("genuine", "--samples", "x"),
        ("genuine", "--seed", "-1"),
        ("ripple", "--seed", "-1"),
        ("null", "--mode", "full"),
        ("null", "--samples", "2.5"),
        ("stimuli", "--xi", "nan"),
        ("null", "--seed", "1e3"),
        ("reduced-chi", "--k", "-1"),
        ("phases", "--k", "x"),
        ("analyze", "--method", "ln"),
        ("phases", "--kset", "0,1"),
        ("phases", "--kset", "-3"),
        ("phases", "--kset", ","),
        ("stimuli", "--kset", "0,1"),
        ("stimuli", "--kset", "-3"),
        ("stimuli", "--kset", ","),
        ("genuine", "--k", "-1"),
        ("ripple", "--k", "-1"),
        ("reduced-chi", "--k", "0"),
        ("phases", "--k", "0"),
        ("ripple", "--k", "1.5"),
        ("cycles", "--xi", "x"),
    ],
)
def test_out_of_range_argument_is_usage_error(planted_csv, tmp_path, args):
    panel_path, _ = planted_csv
    res = run_cli(*args, "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert f"argument {args[1]}" in res.stderr
    assert not (tmp_path / "o").exists()


# beta and the ripple shift are units, not options: chi-hat is read per unit
# beta, the stimuli in units of 1/beta and a ripple per unit shift; nor are the
# histogram's bins, the cycles lag range or a synth seed apart from the spec's
@pytest.mark.parametrize("args", [("reduced-chi", "--beta", "2"), ("stimuli", "--beta", "1"),
                                  ("ripple", "--k", "2", "--source", "S.15", "--shift", "1"),
                                  ("analyze", "--bins", "10"), ("cycles", "--max-lag", "5"),
                                  ("synth", "--seed", "1")],
                         ids=["reduced-chi-beta", "stimuli-beta", "ripple-shift",
                              "analyze-bins", "cycles-max-lag", "synth-seed"])
def test_removed_scale_option_is_usage_error(planted_csv, tmp_path, args):
    panel_path, spec_path = planted_csv
    source = ["--spec", str(spec_path)] if args[0] == "synth" else ["--input", str(panel_path)]
    res = run_cli(args[0], *source, *args[1:], "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == (
        f"panelresponse: error: unrecognized arguments: {' '.join(args[-2:])}")
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


def one_mode_spec(driver: str, eigenvalue: str = "3.0", noise: str = "0.0") -> str:
    return (f'{{"n_series": 6, "n_obs": 60, "seed": 1, "noise_ar1": {noise}, '
            f'"modes": [{{"eigenvalue": {eigenvalue}, "driver": {driver}}}]}}')


SINUSOID = '{"kind": "sinusoid", "period": %s, "phase": %s}'


@pytest.mark.parametrize("text, message", [
    (one_mode_spec(SINUSOID % ("Infinity", "0.0")),
     "sinusoid period must be finite and nonzero, got inf"),
    (one_mode_spec(SINUSOID % ("0", "0.0")), "sinusoid period must be finite and nonzero, got 0"),
    (one_mode_spec(SINUSOID % ("12.0", "Infinity")), "sinusoid phase must be finite, got inf"),
    (one_mode_spec(SINUSOID % ("12.0", "0.0"), eigenvalue="NaN"),
     "target eigenvalue nan is not finite"),
    (one_mode_spec(SINUSOID % ("12.0", "0.0"), noise="NaN"),
     "noise AR(1) coefficients must lie in (-1, 1)"),
    (one_mode_spec(SINUSOID % ("12.0", "0.0"), noise="[0.1, 0.1, NaN, 0.1, 0.1, 0.1]"),
     "noise AR(1) coefficients must lie in (-1, 1)"),
], ids=["period-inf", "period-0", "phase-inf", "eigenvalue-nan", "noise-nan", "noise-list-nan"])
def test_non_finite_spec_number_is_one_line_error(tmp_path, text, message):
    # each once exited 0 having dropped its mode, or warned twice and then
    # blamed a zero-variance series
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    res = run_cli("synth", "--spec", str(spec), "--outdir", "o", cwd=tmp_path)
    assert_one_line_error(res)
    assert res.stderr == f"panelresponse: {message}\n"
    assert list((tmp_path / "o").iterdir()) == []


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


def run_main(argv: list[str], outdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main`` in this process, warnings raised as errors."""
    from panelresponse import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main([*argv, "--outdir", str(outdir)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("args", [("genuine", "--k", "2"), ("ripple", "--k", "2"),
                                  ("reduced-chi",)])
def test_three_month_window_runs_without_a_warning(planted_csv, tmp_path, capsys, args):
    from panelresponse import cli

    # two growth rates: a rank-one matrix whose rounding passes 1 by ~3e-15
    panel_path, _ = planted_csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*args, "--window", "1988-01:1988-03", "--input", str(panel_path),
                         "--outdir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_failed_run_writes_no_artifact(planted_csv, tmp_path):
    # the source is resolved after the intermediate-response table is written
    # under its temporary name, which the failed run removes
    panel_path, _ = planted_csv
    res = run_cli("ripple", "--input", str(panel_path), "--k", "2", "--source", "S.99",
                  "--outdir", "fresh", cwd=tmp_path)
    assert res.returncode == 1
    assert list((tmp_path / "fresh").iterdir()) == []
    # a 2-goods panel has no final-demand -> producer-goods table: the run
    # fails while that table's file is open
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

    # what numpy raises for an absurd --samples;
    # allocating for real would be an OOM kill, not an error, on a host that
    # overcommits memory
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
    # (with decimal and fractions) is not imported for the band's one quantile
    code = (
        "import sys, panelresponse; panelresponse.no_autocorr_band(239); "
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
    res = run_cli("analyze", "--input", str(panel_path), "--outdir", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in read_data_lines(tmp_path / "o" / "spectrum_histogram.csv")]
    assert rows[0] == ["lambda_lo", "lambda_hi", "density"]
    lo, hi, density = (np.array(column, dtype=float) for column in zip(*rows[1:]))
    assert lo.size == 50 and np.array_equal(lo[1:], hi[:-1])
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
    # the run parameters are the config's alone
    assert (doc["config"]["mode"], doc["config"]["seed"]) == ("rotational", 7)
    assert not {"mode", "seed"} & doc.keys()
    assert doc["samples"] == 40
    assert len(doc["lambda_max"]) == 40
    assert doc["edge"]["low"] <= doc["edge"]["center"] <= doc["edge"]["high"]
    pooled = (tmp_path / "o" / "pooled_eigenvalues.csv").read_text().strip().split("\n")
    assert len(pooled) == 2 + 40 * 63  # config + header + samples*M


def test_failing_null_leaves_no_pooled_file(planted_csv, tmp_path, monkeypatch, capsys):
    from panelresponse import cli, load_panel, log_growth, null_ensemble, nullmodel, standardize
    from panelresponse.errors import PanelResponseError

    panel_path, _ = planted_csv
    argv = ["null", "--input", str(panel_path), "--samples", "200", "--outdir", str(tmp_path)]
    check, calls = nullmodel.check_standardized, itertools.count()

    def third_fails(mean, mean_square):
        # 25 chunks of 8 samples: earlier chunks' rows are already streamed
        if next(calls) == 2:
            raise PanelResponseError("planted failure in the third chunk")
        check(mean, mean_square)

    monkeypatch.setattr(nullmodel, "check_standardized", third_fails)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "panelresponse: planted failure in the third chunk\n"
    assert list(tmp_path.iterdir()) == []
    # unpatched, the streamed file is renamed into place and nothing else is left
    monkeypatch.setattr(nullmodel, "check_standardized", check)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ensemble.json", "manifest.json", "pooled_eigenvalues.csv"]
    config, text = (tmp_path / "pooled_eigenvalues.csv").read_text().split("\n", 1)
    assert json.loads(config.removeprefix("# config: ")) == json.loads(
        (tmp_path / "ensemble.json").read_text())["config"]
    w = standardize(log_growth(load_panel(panel_path)))
    written = io.StringIO()
    null_ensemble(w, "rotational", 200, 0).pooled_to_csv(written)
    assert text == written.getvalue()


class _EndFails:
    """A file whose write that ends a JSON document (its closing brace) raises ``exc``.

    The files in the file's directory at that moment are added to ``seen``.
    """

    def __init__(self, fh, exc, seen):
        self.fh, self.exc, self.seen = fh, exc, seen

    def write(self, text):
        if text.endswith("}"):
            self.seen.extend(sorted(p.name for p in Path(self.fh.name).parent.iterdir()))
            raise self.exc
        return self.fh.write(text)


def fail_document_end(monkeypatch, name, exc) -> list[str]:
    """Make the CLI's last write of JSON artifact ``name`` raise ``exc``.

    Returns the list that receives the output directory's files as it fails.
    """
    from panelresponse import cli

    open_text, seen = cli.open_text, []

    @contextlib.contextmanager
    def opened(target, mode="r"):
        with open_text(target, mode) as fh:
            yield _EndFails(fh, exc, seen) if f".{name}." in str(target) else fh

    monkeypatch.setattr(cli, "open_text", opened)
    return seen


@pytest.mark.parametrize("name, args", [
    ("genuine_matrix.json", ("genuine", "--k", "2")),  # after genuine_matrix.csv
    ("ensemble.json", ("null", "--samples", "40")),  # after pooled_eigenvalues.csv
    ("manifest.json", ("genuine", "--k", "2")),  # after every artifact
])
def test_failed_write_leaves_no_file(planted_csv, tmp_path, monkeypatch, capsys, name, args):
    from panelresponse import cli

    seen = fail_document_end(monkeypatch, name, OSError(errno.ENOSPC, "No space left on device"))
    panel_path, _ = planted_csv
    outdir = tmp_path / "o"
    assert cli.main([*args, "--input", str(panel_path), "--outdir", str(outdir)]) == 1
    out = capsys.readouterr()
    assert out.err == "panelresponse: [Errno 28] No space left on device\n"
    assert out.out == ""
    assert f".{name}.{os.getpid()}.part" in seen
    assert list(outdir.iterdir()) == []


def test_interrupted_run_leaves_no_file(planted_csv, tmp_path, monkeypatch):
    from panelresponse import cli

    # genuine_matrix.csv is written by then, and both files are open
    seen = fail_document_end(monkeypatch, "genuine_matrix.json", KeyboardInterrupt())
    panel_path, _ = planted_csv
    with pytest.raises(KeyboardInterrupt):
        cli.main(["genuine", "--k", "2", "--input", str(panel_path), "--outdir", str(tmp_path)])
    pid = os.getpid()
    assert seen == [f".genuine_matrix.csv.{pid}.part", f".genuine_matrix.json.{pid}.part"]
    assert list(tmp_path.iterdir()) == []


def test_files_are_renamed_in_the_order_opened(planted_csv, tmp_path, monkeypatch, capsys):
    from panelresponse import cli

    renamed = []
    replace = os.replace

    def record(src, dst):
        renamed.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    panel_path, _ = planted_csv
    argv = ["genuine", "--k", "2", "--input", str(panel_path), "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert renamed == ["genuine_matrix.csv", "genuine_matrix.json", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(renamed)
    assert json.loads(capsys.readouterr().out) == {"k": 2, "m": 63}


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
        "cycles", "--input", str(panel_path), "--outdir", "cy", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lag_rows = read_data_lines(tmp_path / "cy" / "lag_correlation.csv")
    assert len(lag_rows) == 1 + 73  # header + lags -36..36

    res = run_cli(
        "stimuli", "--input", str(panel_path), "--outdir", "st", cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    stim_rows = read_data_lines(tmp_path / "st" / "stimuli.csv")
    assert stim_rows[0] == "date,eta1,eta2"
    assert len(stim_rows) == 240  # header + 239 months


def test_cycles_on_a_short_panel_cuts_its_lags_to_the_overlap(tmp_path):
    # the benchmark's panel 0 cut to 21 months, so N' = 20: lags ±min(36, N' - 2)
    spec = synth.SynthSpec(
        n_series=63, n_obs=239, noise_ar1=-0.35, seed=0,
        modes=(synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.2)),
               synth.PlantedMode(eigenvalue=5.0, driver=synth.Sinusoid(period=60.0))),
    )
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(to_level_panel(synth.generate(spec)), panel_path)
    res = run_cli("cycles", "--input", str(panel_path), "--window", "1988-01:1989-09",
                  "--outdir", "o", cwd=tmp_path)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    series = read_data_lines(tmp_path / "o" / "mode_series.csv")
    assert len(series) == 1 + 20
    rows = [line.split(",") for line in read_data_lines(tmp_path / "o" / "lag_correlation.csv")]
    assert rows[0] == ["lag", "correlation"]
    assert [int(lag) for lag, _ in rows[1:]] == list(range(-18, 19))


def test_one_tone_phases_are_the_one_bin_average(planted_csv, tmp_path):
    # phases --k K is the frequency-averaged table over the one-bin set {K}
    panel_path, _ = planted_csv
    runs = {}
    for name, args in (("k", ("--k", "4")), ("avg", ("--freq-avg", "--kset", "4"))):
        res = run_cli("phases", *args, "--input", str(panel_path), "--outdir", name,
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        runs[name] = read_data_lines(tmp_path / name / "phases.csv"), json.loads(res.stdout)
    (k_rows, k_out), (avg_rows, avg_out) = runs["k"], runs["avg"]
    assert k_rows == avg_rows and len(k_rows) == 1 + 21 + 1
    assert k_out["average"] == avg_out["average"]
    assert (k_out["period"], avg_out["period"]) == ("T=60", "frequency-averaged")


def artifact_config(path: Path) -> dict:
    """The run config an artifact records: a CSV's ``# config:`` line or a JSON's ``config``."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["config"]
    first = path.read_text().split("\n", 1)[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


# the result containers keep no run parameter, so each artifact must record them
@pytest.mark.parametrize("args, want", [
    (("ripple", "--k", "2", "--source", "S.15"), {"k": 2, "source": "S.15"}),
    (("phases", "--k", "4", "--ref", "P.20"), {"k": 4, "ref": "P.20", "freq_avg": False}),
    (("phases", "--freq-avg", "--kset", "two-years", "--ref", "S.3"),
     {"kset": list(range(1, 10)), "ref": "S.3", "freq_avg": True}),
    (("stimuli", "--xi", "3", "--kset", "1,2,4,6"), {"xi": 3, "kset": [1, 2, 4, 6]}),
    (("reduced-chi", "--k", "2"), {"k": 2}),
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
        assert not {"beta", "shift"} & config.keys(), path.name
    if args[0] == "reduced-chi":
        doc = json.loads((tmp_path / "o" / "reduced_chi.json").read_text())
        assert list(doc) == ["config", "values", "normalized"]
        assert len(doc["values"]) == doc["config"]["k"]


def test_synth_pipe_to_analyze(planted_csv, tmp_path):
    _, spec_path = planted_csv
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**json.loads(spec_path.read_text()), "seed": 1}))
    synth_res = run_cli(
        "synth", "--spec", str(spec), "--stdout", "--outdir", "s", cwd=tmp_path,
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


# ---------------------------------------------------------------------------
# argv fuzz: every bad input ends as exit 1 or 2, never as a traceback
# ---------------------------------------------------------------------------

# boundary values, drawn as text the way a shell passes them
INTS = ["0", "-1", "1", "2", "3", "4", "6", "12", "36", "63", "64", "500", "", "nan", "inf",
        "1e200", "1e308", "٣", "x", "2.5"]
IDS = ["S.15", "P.20", "P.1", "I.21", "I.2", "S.99", "P.22", "S.0", "S.-1", "", "X.1", "S",
       "S.1.5", "s.15", "S.١٥", "S. 15", "P.20 "]
KSETS = ["cycles", "two-years", "1,2,4,6", "4", "9", "11", "1,,2", ",", "", "0", "-1", "500",
         "٣", "a", "1e200", "1,2,x"]
WINDOWS = ["1988-01:1988-03", "1988-01:1988-02", "1988-01:1988-01", "1988-03:1988-01",
           "1988-01:1989-12", "1989-06:2000-01", "2000-01:2001-01", "", ":", "1988-01",
           "garbage", "1988-13:1989-01", "١٩٨٨-٠١:1989-01", "1988-1:1989-1"]

# each subcommand's options: values a run should succeed with, then the
# boundary pool that a fuzzed option draws from instead (None marks a flag)
COMMON = {"--input": (["p63"], ["p6", "p3", "empty", "header", "missing"]),
          "--window": (["1988-01:1993-12", "1988-06:1994-01"], WINDOWS),
          "--method": (["log10", "simple"], ["log10", "simple", ""])}
K_MODES = (["0", "1", "2", "3"], INTS)
SAMPLES = (["1", "2", "20"], INTS)
SEED = (["0", "3"], INTS)
XI = (["0", "1", "6"], INTS)
FUZZ_OPTIONS = {
    "validate": {},
    "analyze": {},
    "null": {"--mode": (["complete", "rotational"], ["bogus", ""]), "--samples": SAMPLES,
             "--seed": SEED},
    "genuine": {"--k": K_MODES, "--samples": SAMPLES, "--seed": SEED},
    "ripple": {"--k": K_MODES, "--samples": SAMPLES, "--seed": SEED,
               "--source": (["S.15", "S.1", "P.20"], IDS)},
    "reduced-chi": {"--k": (["1", "2", "3"], INTS)},
    "cycles": {"--xi": XI},
    "phases": {"--k": (["1", "2", "4"], INTS), "--freq-avg": None,
               "--kset": (["cycles", "two-years", "1,2"], KSETS),
               "--ref": (["P.20", "S.15", "P.1"], IDS)},
    "stimuli": {"--xi": XI, "--kset": (["cycles", "1,2", "4"], KSETS)},
}
# an automatic k without --samples runs a 10,000-sample null, too slow here
ALWAYS = {"--input", "--samples"}


def subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, read from the parser itself (``--help`` aside)."""
    from panelresponse import cli

    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, p in subparsers.choices.items()}


def test_fuzz_pools_cover_every_option():
    # an option removed from the parser would leave its pool drawing usage errors;
    # one added would never be fuzzed
    parsed = subcommand_options()
    assert FUZZ_OPTIONS.keys() == parsed.keys() - {"synth"}
    for command, pools in FUZZ_OPTIONS.items():
        assert {*pools, *COMMON, "--outdir"} == parsed[command], command


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small fixed panels (21 goods by 73 months, G = 2 and the 3 x 4 minimum) and bad files."""
    root = tmp_path_factory.mktemp("fuzz")
    two_modes = (synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.2)),
                 synth.PlantedMode(eigenvalue=5.0, driver=synth.Sinusoid(period=12.0)))
    specs = {
        "p63": synth.SynthSpec(n_series=63, n_obs=72, modes=two_modes, noise_ar1=-0.35, seed=5),
        "p6": synth.SynthSpec(n_series=6, n_obs=13, seed=6),
        "p3": synth.SynthSpec(n_series=3, n_obs=3, seed=7),
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = root / f"{name}.csv"
        write_panel_csv(to_level_panel(synth.generate(spec)), paths[name])
    paths["empty"] = root / "empty.csv"
    paths["empty"].write_text("")
    paths["header"] = root / "header.csv"
    paths["header"].write_text("date,P.1,S.1,I.1\n")
    paths["missing"] = root / "missing.csv"
    return root, paths


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def assert_run_contract(argv: list[str], outdir: Path) -> None:
    code, stdout, stderr = run_main(argv, outdir)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert stderr == "", (argv, stderr)
        for path in outdir.glob("*.json"):
            strict_json(path.read_text())
        if stdout and "--stdout" not in argv:
            strict_json(stdout)
    else:
        assert not outdir.exists() or list(outdir.iterdir()) == [], (argv, code)
        assert stdout == "", (argv, stdout)
    if code == 1:
        assert stderr.startswith("panelresponse: ") and stderr.count("\n") == 1, (argv, stderr)


@st.composite
def pipeline_argv(draw) -> list[str]:
    """A subcommand with up to two options drawn from their boundary pools, the rest sound."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)), label="command")
    options = {**COMMON, **FUZZ_OPTIONS[command]}
    fuzzed = draw(st.sets(st.sampled_from(sorted(options)), max_size=2), label="fuzzed")
    argv = [command]
    for flag, pool in options.items():
        if flag in ALWAYS or flag in fuzzed or draw(st.booleans(), label=f"{flag}?"):
            if pool is None:
                argv.append(flag)
            else:
                good, boundary = pool
                value = draw(st.sampled_from(boundary if flag in fuzzed else good), label=flag)
                argv += [flag, value]
    return argv


@settings(max_examples=300)
@given(argv=pipeline_argv())
def test_fuzzed_pipeline_argv_exit_cleanly(fuzz_inputs, argv):
    root, paths = fuzz_inputs
    i = argv.index("--input") + 1
    argv[i] = str(paths[argv[i]])
    outdir = Path(tempfile.mkdtemp(dir=root)) / "out"
    try:
        assert_run_contract(argv, outdir)
    finally:
        shutil.rmtree(outdir.parent)


# JSON values a spec field may be given, NaN and the infinities included
SPEC_VALUES = [0, -1, 1, 2, 3, 6, 30, 10**20, 2**62, 0.5, 2.5, -0.35, 0.99, 1.0, 1e-320, 1e-300,
               1e200, 1e308, float("nan"), float("inf"), float("-inf"), "", "6", "٣", "1988-01",
               "1988-13", "١٩٨٨-٠١", "random", "ar1", "sinusoid", "bogus", True, None, [], {},
               [0.0] * 6, [0.1] * 6, [1e308] * 6, [float("nan")] * 6, [1.0, 0.0]]


def spec_base() -> dict:
    return {"n_series": 6, "n_obs": 30, "seed": 1, "noise_ar1": -0.2, "start": "1988-01",
            "modes": [{"eigenvalue": 2.0, "loading": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                       "driver": {"kind": "ar1", "coefficient": 0.3}},
                      {"eigenvalue": 1.5, "loading": "random",
                       "driver": {"kind": "sinusoid", "period": 12.0, "phase": 0.5}}]}


def spec_fields(doc: dict) -> list[tuple[dict, str]]:
    """Every (container, key) of a spec document that is still shaped like one, plus new keys."""
    fields = [(doc, key) for key in [*doc, "unknown"]]
    modes = doc.get("modes")
    for mode in modes if isinstance(modes, list) else []:
        if isinstance(mode, dict):
            fields += [(mode, key) for key in mode]
            if isinstance(mode.get("driver"), dict):
                fields += [(mode["driver"], key) for key in mode["driver"]]
    return fields


@st.composite
def spec_text(draw) -> str:
    """A spec document with up to three fields dropped or given a pool value."""
    doc = spec_base()
    for _ in range(draw(st.integers(0, 3), label="mutations")):
        parent, key = draw(st.sampled_from(spec_fields(doc)), label="field")
        if draw(st.integers(0, 4), label="drop?") == 0:
            parent.pop(key, None)
        else:
            parent[key] = draw(st.sampled_from(SPEC_VALUES), label="value")
    text = json.dumps(doc)
    form = draw(st.sampled_from(["as is"] * 4 + ["bom", "truncated", "list", "number"]),
                label="form")
    return {"as is": text, "bom": "\ufeff" + text, "truncated": text[: len(text) // 2],
            "list": f"[{text}]", "number": "3"}[form]


@settings(max_examples=500)
@given(text=spec_text(), stdout=st.booleans())
def test_fuzzed_synth_specs_exit_cleanly(fuzz_inputs, text, stdout):
    root, _ = fuzz_inputs
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        spec = work / "spec.json"
        spec.write_text(text, encoding="utf-8")
        argv = ["synth", "--spec", str(spec)] + (["--stdout"] if stdout else [])
        assert_run_contract(argv, work / "out")
    finally:
        shutil.rmtree(work)


def spec_with_modes(*modes: dict) -> dict:
    return {"n_series": 6, "n_obs": 30, "seed": 1, "modes": list(modes)}


AR1_MODE = {"eigenvalue": 2.0, "driver": {"kind": "ar1", "coefficient": 0.3}}


# each escaped as a traceback: a ValueError from numpy's array constructor,
# or a numpy RuntimeWarning raised as an error (without that, the run warned
# and then blamed "series P.1 has zero variance")
@pytest.mark.parametrize("doc, message", [
    ({"n_series": 6, "n_obs": 10**20}, "a 6 x 100000000000000000000 panel cannot be allocated"),
    ({"n_series": 6, "n_obs": 2**62}, f"a 6 x {2**62} panel cannot be allocated"),
    ({"n_series": 10**20, "n_obs": 30}, "a 100000000000000000000 x 30 panel cannot be allocated"),
    (spec_with_modes({"eigenvalue": 2.0, "driver": {"kind": "sinusoid", "period": 1e-320}}),
     "sinusoid period 1e-320 overflows its phase in 30 months"),
    (spec_with_modes({**AR1_MODE, "loading": [0.0] * 6}, AR1_MODE),
     "planted loadings are not pairwise orthonormal"),
    (spec_with_modes({**AR1_MODE, "loading": [float("nan")] + [0.0] * 5}),
     "planted loadings are not pairwise orthonormal"),
    (spec_with_modes({**AR1_MODE, "loading": [1e308, -1e308, 0.0, 0.0, 0.0, 0.0]}, AR1_MODE),
     "planted loadings are not pairwise orthonormal"),
    # JSON integers past the largest float: an OverflowError traceback from
    # numpy's float conversion, or a ufunc's complaint naming no field
    (spec_with_modes({**AR1_MODE, "loading": [10**400, 0, 0, 0, 0, 0]}),
     "spec field 'loading' must be within the float range"),
    ({"n_series": 6, "n_obs": 30, "noise_ar1": -10**400},
     "spec field 'noise_ar1' must be within the float range"),
    (spec_with_modes({**AR1_MODE, "eigenvalue": 10**400}),
     "spec field 'eigenvalue' must be within the float range"),
], ids=["n_obs-1e20", "n_obs-2^62", "n_series-1e20", "period-1e-320", "zero-loading",
        "nan-loading", "huge-loading", "loading-10^400", "noise-10^400", "eigenvalue-10^400"])
def test_spec_past_the_float_or_address_range_is_one_line_error(tmp_path, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    outdir = tmp_path / "o"
    assert run_main(["synth", "--spec", str(spec)], outdir) == (
        1, "", f"panelresponse: {message}\n")
    assert list(outdir.iterdir()) == []


# each ended with Python's own words, naming no field ('int' object has no
# attribute 'get', could not convert string to float: 'foo', ...), or exited 0
# reading {} or "" as no modes
@pytest.mark.parametrize("doc, message", [
    (3, "spec must be an object, got int"),
    ([spec_with_modes(AR1_MODE)], "spec must be an object, got list"),
    (spec_with_modes(3), "spec field 'modes[0]' must be an object, got 3"),
    (spec_with_modes(AR1_MODE, [AR1_MODE]),
     f"spec field 'modes[1]' must be an object, got {[AR1_MODE]!r}"),
    (spec_with_modes({**AR1_MODE, "driver": 5}), "spec field 'driver' must be an object, got 5"),
    (spec_with_modes({**AR1_MODE, "driver": ["ar1"]}),
     "spec field 'driver' must be an object, got ['ar1']"),
    ({**spec_with_modes(), "modes": {}}, "spec field 'modes' must be a list, got {}"),
    ({**spec_with_modes(), "modes": ""}, "spec field 'modes' must be a list, got ''"),
    ({**spec_with_modes(), "modes": 3}, "spec field 'modes' must be a list, got 3"),
    (spec_with_modes({**AR1_MODE, "loading": "foo"}),
     "spec field 'loading' must be a list, got 'foo'"),
    (spec_with_modes({**AR1_MODE, "loading": {"a": 1}}),
     "spec field 'loading' must be a list, got {'a': 1}"),
    (spec_with_modes({**AR1_MODE, "loading": [1.0, "0", 0, 0, 0, 0]}),
     "spec field 'loading' must be a number, got '0'"),
], ids=["document-3", "document-list", "mode-3", "mode-list", "driver-5", "driver-list",
        "modes-object", "modes-string", "modes-3", "loading-string", "loading-object",
        "loading-entry-string"])
def test_spec_of_the_wrong_shape_names_its_field(tmp_path, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    outdir = tmp_path / "o"
    assert run_main(["synth", "--spec", str(spec)], outdir) == (
        1, "", f"panelresponse: {message}\n")
    assert list(outdir.iterdir()) == []


HASH_FACTS = """
import json, os, sys
facts = {"_hashlib": "absent" if "_hashlib" not in sys.modules else
                     "blocked" if sys.modules["_hashlib"] is None else "loaded",
         "numpy.random": "numpy.random" in sys.modules}
maps = "/proc/self/maps"
facts["libcrypto"] = "libcrypto" in open(maps).read() if os.path.exists(maps) else None
import hashlib
facts["sha256"] = hashlib.sha256(b"abc").hexdigest()
facts["scrypt"] = hasattr(hashlib, "scrypt")
try:
    facts["sha512_256"] = hashlib.new("sha512_256").name
except ValueError:  # an algorithm only OpenSSL serves
    facts["sha512_256"] = None
print(json.dumps(facts))
"""

SYNTH_AND_NULL = """
import contextlib, io, sys
runs = (["synth", "--spec", "spec.json", "--outdir", "s"],
        ["null", "--mode", "complete", "--samples", "5", "--input", "s/panel.csv",
         "--outdir", "n"])
"""

CLI_RUNS = SYNTH_AND_NULL + """
from panelresponse import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert cli.main(argv) == 0
"""

# the console script's call, with no numpy imported before it
ENTRY_RUNS = SYNTH_AND_NULL + """
from panelresponse.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        sys.argv = ["panelresponse", *argv]
        assert main() == 0
"""


# hashlib's facts are taken after the code ran, the _hashlib entry and the
# mapped libraries before hashlib itself is imported
@pytest.mark.parametrize("code, state", [
    (ENTRY_RUNS, "blocked"),
    (CLI_RUNS, "loaded"),
    ("import _hashlib" + ENTRY_RUNS, "loaded"),
    ("import panelresponse, panelresponse.cli", "absent"),
], ids=["entry-point", "cli", "hashlib-first", "import-only"])
def test_cli_process_keeps_libcrypto_out(tmp_path, code, state):
    """The entry point maps no OpenSSL for numpy.random's secrets import; cli.main callers keep it."""
    import importlib.util

    from panelresponse.__main__ import _BUILTIN_HASHES

    if state == "blocked" and not all(map(importlib.util.find_spec, _BUILTIN_HASHES)):
        pytest.skip("hashlib needs OpenSSL for some algorithm on this interpreter")
    (tmp_path / "spec.json").write_text('{"n_series": 6, "n_obs": 60, "seed": 1}')
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code + HASH_FACTS], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    facts = json.loads(res.stdout)
    if state == "absent" and facts["numpy.random"]:
        pytest.skip("numpy < 2 loads _hashlib on import numpy")
    assert facts["_hashlib"] == state
    assert facts["numpy.random"] == (state != "absent")
    assert facts["sha256"] == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    # OpenSSL-only hashing stays for every caller but the entry point
    openssl = state != "blocked"
    assert facts["scrypt"] == openssl
    assert facts["sha512_256"] == ("sha512_256" if openssl else None)
    if facts["libcrypto"] is not None and state != "loaded":
        assert not facts["libcrypto"]
