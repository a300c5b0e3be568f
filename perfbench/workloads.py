"""Workloads of the CLI benchmark: inputs made from a seed, the CLI operations
each workload runs, and the checks applied to every operation's outputs.

Every workload runs on a synthetic panel with two planted modes (lambda ~ 8
AR(1) and lambda ~ 5 with a 60-month sinusoid) over AR(1) noise of -0.35.
The benchmark seed picks one of ``N_INPUTS`` panel seeds, because the
headline numbers of every operation are checked against values recorded for
each of those panels (``reference.json``, written by ``record_reference.py``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Number of distinct input panels; the benchmark seed is taken modulo this.
N_INPUTS = 16
#: Relative tolerance of the headline checks (ROADMAP aim 2), with a floor at
#: unit scale so entries that are ~0 (off-diagonal reduced chi) compare sanely.
REL_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's outputs are missing, unparseable or wrong."""


@dataclass(frozen=True)
class Shape:
    n_series: int
    n_obs: int


@dataclass(frozen=True)
class Inputs:
    """Files handed to the program, and the panel seed they were made from."""

    input_seed: int
    shape: Shape
    panel: Path
    spec: Path


@dataclass(frozen=True)
class Op:
    """One CLI call: its metric name, arguments, artifacts and output check.

    ``args`` may hold the placeholders ``{panel}`` and ``{spec}``.  ``check``
    receives the parsed artifacts, the parsed stdout JSON (or None) and the
    inputs; it raises CheckFailed or returns the headline numbers that are
    compared with the recorded reference.
    """

    name: str
    args: tuple[str, ...]
    artifacts: tuple[str, ...]
    check: Callable[[dict, dict | None, Inputs], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    ops: tuple[Op, ...]
    #: shuffle mode of the null ensembles this workload runs (None: no null)
    null_mode: str | None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(shape: Shape, input_seed: int, workdir: Path) -> Inputs:
    """Write the panel CSV and the synth spec JSON for one panel seed."""
    from panelresponse import synth
    from panelresponse.panel import write_panel_csv

    spec = synth.SynthSpec(
        n_series=shape.n_series,
        n_obs=shape.n_obs,
        modes=(
            synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.2)),
            synth.PlantedMode(eigenvalue=5.0, driver=synth.Sinusoid(period=60.0)),
        ),
        noise_ar1=-0.35,
        seed=input_seed,
    )
    panel_path = workdir / "panel.csv"
    spec_path = workdir / "spec.json"
    write_panel_csv(synth.to_level_panel(synth.generate(spec)), panel_path)
    synth.spec_to_json(spec, spec_path)
    return Inputs(input_seed, shape, panel_path, spec_path)


# ---------------------------------------------------------------------------
# artifact parsing
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[list[str]]:
    """Rows of a CLI CSV (header first), skipping the ``# config:`` line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if len(rows) < 2:
        raise CheckFailed(f"{path.name}: no data rows")
    return rows


def parse_artifacts(outdir: Path, names: tuple[str, ...]) -> dict:
    """Parse every expected artifact; CSVs become row lists, JSONs objects."""
    parsed = {}
    for name in names:
        path = outdir / name
        if not path.is_file():
            raise CheckFailed(f"missing artifact {name}")
        try:
            if name.endswith(".json"):
                with open(path) as fh:
                    parsed[name] = json.load(fh)
            else:
                parsed[name] = read_csv(path)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckFailed(f"{name}: {exc}") from None
    return parsed


def _rows(parsed: dict, name: str, n: int, header: int = 1) -> list[list[str]]:
    """The n data rows below the header lines, all as wide as the first."""
    rows = parsed[name][header:]
    if len(rows) != n:
        raise CheckFailed(f"{name}: {len(rows)} data rows, expected {n}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise CheckFailed(f"{name}: ragged rows")
    return rows


def _need(stdout: dict | None, *keys: str) -> dict:
    if stdout is None or any(k not in stdout for k in keys):
        raise CheckFailed(f"stdout lacks {', '.join(keys)}")
    return stdout


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------


def _check_validate(parsed, stdout, inputs):
    out = _need(stdout, "series", "months")
    expected = {"series": inputs.shape.n_series, "months": inputs.shape.n_obs + 1}
    if {k: out[k] for k in expected} != expected:
        raise CheckFailed(f"validate summary {out} differs from {expected}")
    return {}


def _check_analyze(parsed, stdout, inputs):
    top = _need(stdout, "top_eigenvalues")["top_eigenvalues"]
    m = inputs.shape.n_series
    lam = [float(r[1]) for r in _rows(parsed, "eigenvalues.csv", m)]
    _rows(parsed, "eigenvectors.csv", m * m)
    if lam[: len(top)] != top:
        raise CheckFailed("eigenvalues.csv disagrees with the printed top eigenvalues")
    return {"top_eigenvalues": top}


def _check_genuine(parsed, stdout, inputs):
    k = _need(stdout, "k")["k"]
    doc = parsed["genuine_matrix.json"]
    if doc.get("m") != inputs.shape.n_series or doc.get("k") != k:
        raise CheckFailed("genuine_matrix.json shape or k disagrees with stdout")
    rows = _rows(parsed, "genuine_matrix.csv", inputs.shape.n_series, header=2)
    if len(rows[0]) != inputs.shape.n_series:
        raise CheckFailed("genuine_matrix.csv is not square")
    return {"k": k}


def _check_genuine_auto(parsed, stdout, inputs):
    head = _check_genuine(parsed, stdout, inputs)
    if head["k"] != 2:
        raise CheckFailed(f"rotational null kept k={head['k']} modes, expected 2")
    return head


def _check_ripple(parsed, stdout, inputs):
    _rows(parsed, "ripple_source.csv", inputs.shape.n_series)
    return {}


def _check_reduced_chi(parsed, stdout, inputs):
    return {"normalized": _need(stdout, "normalized")["normalized"]}


def _check_cycles(parsed, stdout, inputs):
    _rows(parsed, "mode_series.csv", inputs.shape.n_obs)
    _rows(parsed, "lag_correlation.csv", 2 * 36 + 1)
    return {}


def _check_phases(parsed, stdout, inputs):
    _rows(parsed, "phases.csv", inputs.shape.n_series // 3 + 1)  # goods + average row
    return {"average": _need(stdout, "average")["average"]}


def _check_stimuli(parsed, stdout, inputs):
    out = _need(stdout, "max_abs_eta1", "max_abs_eta2")
    return {"max_abs_eta1": out["max_abs_eta1"], "max_abs_eta2": out["max_abs_eta2"]}


def _check_synth(parsed, stdout, inputs):
    if parsed["panel.csv"] != read_csv(inputs.panel):
        raise CheckFailed("synth panel.csv differs from the benchmark's own panel")
    return {}


def _check_null(samples):
    def check(parsed, stdout, inputs):
        edge = _need(stdout, "edge")["edge"]
        doc = parsed["ensemble.json"]
        if doc.get("samples") != samples or len(doc.get("lambda_max", ())) != samples:
            raise CheckFailed("ensemble.json sample count is wrong")
        _rows(parsed, "pooled_eigenvalues.csv", samples * inputs.shape.n_series)
        return {"edge_center": edge["center"], "edge_high": edge["high"]}

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

PAPER = Shape(63, 239)
SCALED = Shape(300, 1200)
SMOKE_SCALED = Shape(90, 360)

_GENUINE = ("genuine_matrix.csv", "genuine_matrix.json")


def _op(name, args, artifacts, check):
    return Op(name, tuple(args), tuple(artifacts) + ("manifest.json",), check)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The three workloads; ``smoke`` shrinks null sizes and the scaled panel."""
    null_samples = 50 if smoke else 10_000
    scaled_samples = 20 if smoke else 100
    panel = ("--input", "{panel}")
    sweep = (
        _op("validate", ("validate", *panel), (), _check_validate),
        _op("analyze", ("analyze", *panel),
            ("eigenvalues.csv", "eigenvectors.csv", "spectrum_histogram.csv", "mp_density.csv"),
            _check_analyze),
        _op("genuine_k2", ("genuine", "--k", "2", *panel), _GENUINE, _check_genuine),
        _op("ripple", ("ripple", "--k", "2", "--source", "S.15", *panel),
            ("intermediate_response.csv", "ripple_source.csv"), _check_ripple),
        _op("reduced_chi", ("reduced-chi", *panel),
            ("reduced_chi.json", "reduced_chi.csv"), _check_reduced_chi),
        _op("cycles", ("cycles", *panel),
            ("mode_series.csv", "lag_correlation.csv"), _check_cycles),
        _op("phases_k4", ("phases", "--k", "4", *panel), ("phases.csv",), _check_phases),
        _op("phases_freq_avg", ("phases", "--freq-avg", *panel), ("phases.csv",), _check_phases),
        _op("stimuli", ("stimuli", *panel), ("stimuli.csv",), _check_stimuli),
        _op("synth", ("synth", "--spec", "{spec}"), ("panel.csv",), _check_synth),
    )
    null = (
        _op("null_rotational",
            ("null", "--mode", "rotational", "--samples", str(null_samples), "--seed", "0", *panel),
            ("ensemble.json", "pooled_eigenvalues.csv"), _check_null(null_samples)),
        _op("genuine_auto",
            ("genuine", "--samples", str(null_samples), "--seed", "0", *panel),
            _GENUINE, _check_genuine_auto),
    )
    scaled = (
        _op("scaled_analyze", ("analyze", *panel),
            ("eigenvalues.csv", "eigenvectors.csv", "spectrum_histogram.csv", "mp_density.csv"),
            _check_analyze),
        _op("scaled_genuine_k2", ("genuine", "--k", "2", *panel), _GENUINE, _check_genuine),
        _op("scaled_null_complete",
            ("null", "--mode", "complete", "--samples", str(scaled_samples), "--seed", "0", *panel),
            ("ensemble.json", "pooled_eigenvalues.csv"), _check_null(scaled_samples)),
    )
    return {
        "paper-sweep": Workload("paper-sweep", PAPER, sweep, None),
        "paper-null": Workload("paper-null", PAPER, null, "rotational"),
        "scaled-panel": Workload(
            "scaled-panel", SMOKE_SCALED if smoke else SCALED, scaled, "complete"),
    }


def op_argv(op: Op, inputs: Inputs, outdir: Path) -> list[str]:
    subst = {"{panel}": str(inputs.panel), "{spec}": str(inputs.spec)}
    return [subst.get(a, a) for a in op.args] + ["--outdir", str(outdir)]


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between headline numbers and their recorded reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where or 'headline'}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, int) and not isinstance(want, bool):
        return [] if got == want else [f"{where}: {got} != {want}"]
    if isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return []
    return [f"{where}: {got!r} != {want!r}"]
