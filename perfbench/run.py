"""End-to-end and per-layer benchmark of the panelresponse command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every metric, every workload
    python3 perfbench/run.py --smoke                     # tiny sizes, checks names only

Each CLI operation is a fresh ``python -m panelresponse`` process, run one
after another (closed loop, one client) through ``launcher.py``, on inputs
made from ``--seed`` (see workloads.py).  With ``--trace 0`` the run repeats
passes over the workload's operations for about ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it makes one untraced and
one traced pass and reports the per-layer metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (machine, seeds, every child, spans) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import (  # noqa: E402
    N_INPUTS, CheckFailed, Inputs, Workload, make_inputs, mismatches, op_argv,
    parse_artifacts, workloads,
)

SETUP_SAMPLES = 3
OP_TIMEOUT_S = 150.0
#: samples of the benchmark-side shuffle / correlation / eigvalsh loop
NULL_LOOP_SAMPLES = {"rotational": 200, "complete": 20}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    ops = [op.name for wl in workloads().values() for op in wl.ops]
    units = {"cli.import_s": "s", "cli.import_scipy_s": "s"}
    units.update({f"cli.op.{op}_s": "s" for op in ops})
    units.update({f"cli.glue.{op}_s": "s" for op in ops})
    units.update({"cli.artifact_bytes": "bytes", "cli.cpu_s": "s", "cli.trace_overhead_s": "s"})
    units.update({f"panel.{n}_s": "s" for n in
                  ("load_panel", "log_growth", "standardize", "write_panel_csv")})
    units["panel.cells"] = "count"
    units.update({f"spectral.{n}_s": "s" for n in
                  ("correlation_matrix", "eigendecompose", "mode_series",
                   "corr_to_csv", "corr_to_json")})
    units.update({"nullmodel.null_ensemble_s": "s", "nullmodel.samples": "count",
                  "nullmodel.sample_ms": "ms", "nullmodel.shuffle_ms": "ms",
                  "nullmodel.corr_ms": "ms", "nullmodel.eigvalsh_ms": "ms",
                  "nullmodel.pooled_to_csv_s": "s", "nullmodel.pooled_rows": "count"})
    units.update({f"nullmodel.eig_use_ratio.{op}": "ratio" for op in
                  ("null_rotational", "genuine_auto", "scaled_null_complete")})
    for layer, names in (
        ("genuine", ("genuine_matrix", "default_mode_count")),
        ("response", ("ripple", "final_to_intermediate_csv", "reduced_susceptibility")),
        ("cycles", ("moving_average", "lag_correlation", "mode_phases",
                    "freq_avg_phases", "external_stimuli")),
        ("synth", ("generate", "to_level_panel")),
    ):
        units.update({f"{layer}.{n}_s": "s" for n in names})
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    start: float
    end: float
    status: int
    maxrss_mb: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict[str, str]:
    """The caller's environment, minus the CLI's own variables, plus src on the path."""
    env = dict(os.environ)
    env.pop("PANELRESPONSE_OUTDIR", None)
    env.pop("IIP_PANEL_CSV", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs ``python ARGS`` children one at a time through launcher.py."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)

    def spawn(self, args: list[str], stdout: Path, stderr: Path) -> Child:
        request = {"args": args, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return Child(**json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def check_op(op, child: Child, outdir: Path, stdout: Path, stderr: Path,
             inputs: Inputs, refs: dict | None) -> tuple[dict, str | None]:
    """(headline numbers, failure reason or None) of one finished operation."""
    try:
        if child.status != 0:
            raise CheckFailed(f"exit {child.status}: {_last_line(stderr)}")
        text = stdout.read_text().strip()
        try:
            printed = json.loads(text) if text else None
        except ValueError:
            raise CheckFailed("stdout is not JSON") from None
        headline = op.check(parse_artifacts(outdir, op.artifacts), printed, inputs)
        if refs is not None:
            diff = mismatches(headline, refs.get(op.name, {}), op.name)
            if diff:
                raise CheckFailed("; ".join(diff[:3]))
        return headline, None
    except CheckFailed as exc:
        return {}, str(exc)


def run_pass(wl: Workload, inputs: Inputs, launcher: Launcher, tmp: Path, tag: str,
             refs: dict | None, traced: bool = False) -> dict:
    """One pass over the workload's operations; outputs are checked afterwards."""
    children = []
    for op in wl.ops:
        base = tmp / f"{tag}-{op.name}"
        cli = op_argv(op, inputs, base)
        args = ([str(BENCH / "traced_cli.py"), f"{base}.spans.json", op.name, *cli]
                if traced else ["-m", "panelresponse", *cli])
        children.append(launcher.spawn(args, Path(f"{base}.stdout"), Path(f"{base}.stderr")))
    record = {"wall_s": children[-1].end - children[0].start, "ops": [], "artifact_bytes": 0}
    for op, child in zip(wl.ops, children):
        base = tmp / f"{tag}-{op.name}"
        headline, error = check_op(op, child, base, Path(f"{base}.stdout"),
                                   Path(f"{base}.stderr"), inputs, refs)
        if base.is_dir():
            record["artifact_bytes"] += sum(p.stat().st_size for p in base.iterdir())
            shutil.rmtree(base)
        entry = {"op": op.name, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                 "maxrss_mb": child.maxrss_mb, "status": child.status,
                 "error": error, "headline": headline}
        spans = Path(f"{base}.spans.json")
        if traced:
            if spans.is_file():
                entry["spans"] = json.loads(spans.read_text())["spans"]
            elif error is None:
                entry["error"] = "traced run wrote no spans"
        record["ops"].append(entry)
    return record


def failed_ops(passes: list[dict]) -> list[str]:
    return [f"{o['op']}: {o['error']}" for p in passes for o in p["ops"] if o["error"]]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(wl, inputs, launcher, tmp, refs, seconds: float) -> dict:
    setup = []
    for i in range(SETUP_SAMPLES):
        child = launcher.spawn(["-c", "import panelresponse"],
                               tmp / f"setup{i}.stdout", tmp / f"setup{i}.stderr")
        setup.append({"wall_s": child.wall_s, "status": child.status})
    # passes fill --seconds: another pass starts only if it should end in time
    t0 = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(wl, inputs, launcher, tmp, f"p{len(passes)}", refs))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    failures = failed_ops(passes) + [f"setup: exit {s['status']}" for s in setup if s["status"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(o["wall_s"] for p in passes for o in p["ops"]),
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "peak_rss_mb": statistics.median(max(o["maxrss_mb"] for o in p["ops"]) for p in passes),
    }
    return {"metrics": metrics, "units": END_TO_END, "failures": failures,
            "attempted": len(setup) + sum(len(p["ops"]) for p in passes),
            "setup": setup, "passes": passes}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def import_times(launcher, tmp) -> tuple[float, float] | None:
    """(cumulative import of panelresponse, self time of scipy.* modules) in s,
    or None when the import fails."""
    err = tmp / "importtime.stderr"
    child = launcher.spawn(["-X", "importtime", "-c", "import panelresponse"],
                           tmp / "importtime.stdout", err)
    if child.status != 0:
        return None
    total = scipy = 0.0
    for line in err.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].strip()
        if name == "panelresponse":
            total = int(fields[1]) / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += int(fields[0]) / 1e6
    return total, scipy


def null_loop(wl: Workload, inputs: Inputs) -> dict:
    """Per-sample split of the null: shuffle, X X^T / N' and eigvalsh (ms, medians)."""
    if wl.null_mode is None:
        return {}
    import numpy as np
    from panelresponse import nullmodel
    from panelresponse.panel import load_panel, log_growth, standardize

    w = standardize(log_growth(load_panel(inputs.panel)))
    shuffle = {"rotational": nullmodel.rotational_shuffle,
               "complete": nullmodel.complete_shuffle}[wl.null_mode]
    times = {"shuffle": [], "corr": [], "eigvalsh": []}
    for stream in np.random.SeedSequence(0).spawn(NULL_LOOP_SAMPLES[wl.null_mode]):
        rng = np.random.Generator(np.random.Philox(stream))
        t0 = perf_counter()
        x = shuffle(w, rng).values
        t1 = perf_counter()
        corr = x @ x.T / w.n_obs
        t2 = perf_counter()
        np.linalg.eigvalsh(corr)
        t3 = perf_counter()
        times["shuffle"].append(t1 - t0)
        times["corr"].append(t2 - t1)
        times["eigvalsh"].append(t3 - t2)
    return {f"nullmodel.{k}_ms": 1e3 * statistics.median(v) for k, v in times.items()}


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its duration minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child_time.get(s["id"], 0.0)) for s in spans]


def trace(wl, inputs, launcher, tmp, refs) -> dict:
    untraced = run_pass(wl, inputs, launcher, tmp, "u", refs)
    imports = import_times(launcher, tmp)
    traced = run_pass(wl, inputs, launcher, tmp, "t", refs, traced=True)
    m = {k: 0 if u in ("count", "bytes") else 0.0 for k, u in per_layer_units().items()}
    m["cli.import_s"], m["cli.import_scipy_s"] = imports or (0.0, 0.0)
    for o in untraced["ops"]:
        m[f"cli.op.{o['op']}_s"] = o["wall_s"]
        m["cli.cpu_s"] += o["cpu_s"]
    m["cli.artifact_bytes"] = untraced["artifact_bytes"]
    m["cli.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    for o in traced["ops"]:
        computed = consumed = 0
        for span, own in self_times(o.get("spans", [])):
            counts = span.get("counts", {})
            if span["name"] == "cli.main":
                m[f"cli.glue.{o['op']}_s"] = own
            elif f"{span['name']}_s" in m:
                m[f"{span['name']}_s"] += own
            m["panel.cells"] += counts.get("cells", 0)
            m["nullmodel.samples"] += counts.get("samples", 0)
            m["nullmodel.pooled_rows"] += counts.get("rows", 0)
            computed += counts.get("eigenvalues", 0)
            # an ensemble's lambda_max always feeds the edge; a pooled write uses all
            consumed += counts.get("samples", 0) + counts.get("rows", 0)
        ratio = f"nullmodel.eig_use_ratio.{o['op']}"
        if ratio in m and computed:
            m[ratio] = min(consumed, computed) / computed
    if m["nullmodel.samples"]:
        m["nullmodel.sample_ms"] = 1e3 * m["nullmodel.null_ensemble_s"] / m["nullmodel.samples"]
    m.update(null_loop(wl, inputs))
    passes = [untraced, traced]
    failures = failed_ops(passes) + ([] if imports else ["importtime: import failed"])
    return {"metrics": m, "units": per_layer_units(), "failures": failures,
            "attempted": 1 + sum(len(p["ops"]) for p in passes), "passes": passes}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy as np
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def load_refs(smoke: bool, input_seed: int, workload: str) -> dict:
    try:
        with open(BENCH / "reference.json") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    return doc.get("smoke" if smoke else "full", {}).get(str(input_seed), {}).get(workload, {})


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """Make the inputs, run the workload, write the run record, return it."""
    wl = workloads(smoke)[name]
    input_seed = 0 if smoke else seed % N_INPUTS
    refs = load_refs(smoke, input_seed, name)
    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(dir=work) as tmp, Launcher() as launcher:
        tmp = Path(tmp)
        inputs = make_inputs(wl.shape, input_seed, tmp)
        if traced:
            result = trace(wl, inputs, launcher, tmp, refs)
        else:
            result = measure(wl, inputs, launcher, tmp, refs, seconds)
    result.update({
        "workload": name, "seed": seed, "input_seed": input_seed, "smoke": smoke,
        "trace": traced, "seconds": seconds,
        "machine": machine(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    })
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tag = "smoke-" if smoke else ""
    with open(results / f"{tag}{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _print_metrics(result: dict) -> None:
    for k, v in result["metrics"].items():
        print(f"{result['workload']:>13} {k:<46} {v:>14.6g} {result['units'][k]}")
    for f in result["failures"]:
        print(f"FAILED {result['workload']} {f}", file=sys.stderr)


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced and traced; print one table; smoke also checks names."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = list(workloads())
    rows: dict[str, dict[str, float]] = {}
    units: dict[str, str] = {}
    problems = []
    for wl in names:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(wl, seed, seconds, traced, smoke)
            _print_metrics(result)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = result["units"]
            if want != {k: got[k] for k in result["metrics"]}:
                problems.append(f"{wl} {key}: emitted metrics differ from BENCHMARK.json")
            problems += [f"{wl}: {f}" for f in result["failures"]]
            units.update(got)
            for k, v in result["metrics"].items():
                rows.setdefault(k, {})[wl] = v
    print()
    print("| metric | unit | " + " | ".join(names) + " |")
    print("| --- | --- |" + " --- |" * len(names))
    for k, by_wl in rows.items():
        print(f"| {k} | {units[k]} | " + " | ".join(f"{by_wl[w]:.4g}" for w in names) + " |")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    if smoke:
        print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def use_source() -> bool:
    """Import the program from this checkout's src; False when it is absent."""
    if not (SRC / "panelresponse" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'panelresponse'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass, every workload; checks metric names")
    args = parser.parse_args(argv)
    if not use_source():
        return 2
    if args.smoke:
        return run_all(args.seed, 0.0, smoke=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, smoke=False)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(result)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
