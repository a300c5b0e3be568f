"""Run one panelresponse CLI call in-process, with spans around library calls.

Usage: python perfbench/traced_cli.py SPANS_JSON OP_ID CLI_ARG...

``panelresponse.cli.main(argv)`` is the root span.  Every library function
that ``panelresponse.cli`` imported is replaced, in the CLI module's own
namespace, by a wrapper that records a span; ``NullEnsemble.pooled_to_csv``
is wrapped on its class.  Spans (name, start, end, parent, op id, counts)
are kept in memory and written to SPANS_JSON when the call returns.  The
exit status is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

SPANS: list[dict] = []
_STACK: list[int] = []
OP_ID = ""


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts taken where the work happens (see perfbench/README.md)."""
    if name == "panel.load_panel":
        return {"cells": result.n_series * result.n_months}
    if name == "nullmodel.null_ensemble":
        pooled = result.pooled
        return {"samples": result.samples,
                "eigenvalues": pooled.size if pooled is not None else result.samples}
    if name == "nullmodel.pooled_to_csv":
        return {"rows": args[0].pooled.size}
    return {}


def traced(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = {"id": len(SPANS), "name": name, "op": OP_ID,
                "parent": _STACK[-1] if _STACK else None, "start": perf_counter()}
        SPANS.append(span)
        _STACK.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            _STACK.pop()
        span["counts"] = _counts(name, args, result)
        return result

    return wrapper


def instrument(cli) -> None:
    for attr, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (inspect.isfunction(obj) and module.startswith("panelresponse.")
                and module != cli.__name__):
            setattr(cli, attr, traced(f"{module.rsplit('.', 1)[1]}.{attr}", obj))
    from panelresponse.nullmodel import NullEnsemble

    NullEnsemble.pooled_to_csv = traced("nullmodel.pooled_to_csv", NullEnsemble.pooled_to_csv)


def main(argv: list[str]) -> int:
    global OP_ID
    spans_path, OP_ID, cli_argv = argv[0], argv[1], argv[2:]
    from panelresponse import cli

    instrument(cli)
    status = 1
    try:
        status = traced("cli.main", cli.main)(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"op": OP_ID, "status": status, "spans": SPANS}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
