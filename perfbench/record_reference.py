"""Record the headline numbers of every benchmark operation on every input.

    python3 perfbench/record_reference.py

Runs each workload once per input panel (all ``N_INPUTS`` panels at full size,
panel 0 at smoke size) through the CLI and writes ``perfbench/reference.json``,
which every benchmark run then checks its outputs against.  Re-record only
when a change is meant to alter the program's numbers, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import N_INPUTS, make_inputs, workloads


def main() -> int:
    if not run.use_source():
        return 2
    work = run.BENCH / "work"
    work.mkdir(exist_ok=True)
    doc = {"recorded_with": run.machine(), "full": {}, "smoke": {}}
    with run.Launcher() as launcher:
        for size, seeds in (("smoke", [0]), ("full", range(N_INPUTS))):
            for name, wl in workloads(size == "smoke").items():
                for seed in seeds:
                    with tempfile.TemporaryDirectory(dir=work) as tmp:
                        inputs = make_inputs(wl.shape, seed, Path(tmp))
                        rec = run.run_pass(wl, inputs, launcher, Path(tmp), "r", refs=None)
                    failures = run.failed_ops([rec])
                    if failures:
                        print(f"{size} {name} input {seed}: {failures}", file=sys.stderr)
                        return 1
                    doc[size].setdefault(str(seed), {})[name] = {
                        o["op"]: o["headline"] for o in rec["ops"] if o["headline"]}
                    print(f"{size} {name} input {seed}: {rec['wall_s']:.1f} s", flush=True)
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
