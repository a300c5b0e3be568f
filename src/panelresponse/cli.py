"""Command-line front end: orchestrates the pipeline, emits CSV/JSON artifacts.

Every subcommand computes its artifacts without writing anything; once the
computation succeeds, :func:`main` writes them plus a ``manifest.json`` into
the output directory (flag ``--outdir``, env ``PANELRESPONSE_OUTDIR``,
default ``out``) and embeds the full effective configuration in each file, so
any output can be reproduced bit-for-bit from the recorded configuration.
No plotting: artifacts are plot-ready CSV for external tools.

Exit status: 0 on success, 1 on data or validation errors or a refused
memory allocation (one-line diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from ._files import open_text, write_json, write_rows
from .cycles import (
    KSET_BUSINESS_CYCLES,
    KSET_LONG_PERIODS,
    external_stimuli,
    freq_avg_phases,
    lag_correlation,
    mode_phases,
    moving_average,
)
from .errors import BadParameter, PanelResponseError
from .genuine import default_mode_count, genuine_matrix
from .nullmodel import null_ensemble
from .panel import (
    SeriesId,
    StandardizedPanel,
    load_panel,
    log_growth,
    simple_growth,
    standardize,
    write_panel_csv,
)
from .response import final_to_intermediate_csv, reduced_susceptibility, ripple
from .spectral import (
    CorrMatrix,
    ModeBasis,
    correlation_matrix,
    _corr_document,
    corr_to_csv,
    eigendecompose,
    mode_series,
    mp_bounds,
    mp_density,
)
from .synth import generate, spec_from_json, spec_to_json, to_level_panel

#: Conventional analysis window for the monthly industrial panels this tool
#: was built around (the pre-recession "normal" period).
DEFAULT_WINDOW = "1988-01:2007-12"

_KSET_PRESETS = {
    "cycles": KSET_BUSINESS_CYCLES,
    "two-years": KSET_LONG_PERIODS,
}


def _parse_kset(text: str) -> tuple[int, ...]:
    """argparse type: a preset name or a non-empty set of frequency indices >= 1."""
    if text in _KSET_PRESETS:
        return _KSET_PRESETS[text]
    try:
        ks = tuple(sorted({int(p) for p in text.split(",") if p.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad kset {text!r}: use 'cycles', 'two-years', or comma-separated integers"
        ) from None
    if not ks:
        raise argparse.ArgumentTypeError(f"empty frequency set {text!r}")
    if ks[0] < 1:
        raise argparse.ArgumentTypeError(f"frequency indices must be >= 1, got {ks[0]}")
    return ks


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (usage error otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite float (nan and inf are usage errors)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float above 0."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _effective_config(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    config["outdir"] = str(config["outdir"])
    return config


def _table(header: list[str], rows: Iterable[Sequence]) -> Callable[[TextIO], None]:
    """A CSV writer of ``header`` then ``rows``, taking the rows only as it writes them."""
    return lambda fh: write_rows(fh, itertools.chain([header], rows))


def _eigenvector_rows(basis: ModeBasis, labels: list[str]) -> Iterator[tuple]:
    """``mode,series,component`` rows, one mode's M rows at a time (M^2 in all)."""
    return itertools.chain.from_iterable(
        zip(itertools.repeat(str(n)), labels, vector.tolist())
        for n, vector in enumerate(basis.vectors.T, 1)
    )


def _write_artifact(
    outdir: Path, name: str, content: dict | Callable[[TextIO], None], config: dict
) -> None:
    """Write one artifact of a subcommand, framed by its config.

    ``content`` is the document of a ``.json`` name, written with ``config``
    as its first key, and otherwise a writer that takes the open file, called
    after the ``# config:`` line.  The name ``-`` is stdout.
    """
    target = sys.stdout if name == "-" else outdir / name
    if name.endswith(".json"):
        write_json(target, {"config": config, **content})
        return
    with open_text(target, "w") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        content(fh)


def _input(args) -> TextIO | str:
    return sys.stdin if args.input == "-" else args.input


def _standardized(args) -> StandardizedPanel:
    # no name holds the level panel, so it is freed once its growth rates exist
    growth = log_growth if args.method == "log10" else simple_growth
    return standardize(growth(load_panel(_input(args), window=args.window)))


def _spectrum(args) -> tuple[StandardizedPanel, CorrMatrix, ModeBasis]:
    """The pipeline every analysis shares: standardized panel, raw matrix, modes."""
    w = _standardized(args)
    raw = correlation_matrix(w)
    return w, raw, eigendecompose(raw)


def _resolve_mode_count(args, w: StandardizedPanel, basis: ModeBasis) -> int:
    if args.k is not None:
        return args.k
    # the decision reads only lambda_max, so skip keeping the pooled spectrum
    ensemble = null_ensemble(w, "rotational", args.samples, args.seed, keep_pooled=False)
    return default_mode_count(basis, ensemble)


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts, summary) and writes nothing itself
# ---------------------------------------------------------------------------


def _cmd_validate(args, config: dict) -> tuple[dict, dict]:
    panel = load_panel(_input(args), window=args.window)
    return {}, {
        "series": panel.n_series, "goods": panel.n_goods, "months": panel.n_months,
        "start": str(panel.months[0]), "end": str(panel.months[-1]),
    }


def _cmd_analyze(args, config: dict) -> tuple[dict, dict]:
    w, _, basis = _spectrum(args)
    lam = basis.eigenvalues
    labels = [sid.label for sid in w.ids]
    top = float(lam[0]) * 1.05
    density, edges = np.histogram(lam, bins=args.bins, range=(0.0, top), density=True)
    edges = edges.tolist()
    q = w.n_obs / w.n_series
    grid = np.linspace(0.0, top, 512)
    dens = mp_density(grid, q)
    lo, hi = mp_bounds(q)
    return {
        "eigenvalues.csv": _table(["n", "eigenvalue"], enumerate(lam.tolist(), 1)),
        "eigenvectors.csv": _table(["mode", "series", "component"],
                                   _eigenvector_rows(basis, labels)),
        "spectrum_histogram.csv": _table(["lambda_lo", "lambda_hi", "density"],
                                         zip(edges[:-1], edges[1:], density.tolist())),
        "mp_density.csv": _table(["lambda", "density"], zip(grid.tolist(), dens.tolist())),
    }, {
        "m": w.n_series, "n_obs": w.n_obs, "q": q,
        "mp_lower": lo, "mp_upper": hi,
        "top_eigenvalues": [float(v) for v in lam[:3]],
    }


def _cmd_null(args, config: dict) -> tuple[dict, dict]:
    ensemble = null_ensemble(_standardized(args), args.mode, args.samples, args.seed)
    return {
        "ensemble.json": ensemble.to_json(), "pooled_eigenvalues.csv": ensemble.pooled_to_csv,
    }, {"mode": ensemble.mode.value, "edge": dataclasses.asdict(ensemble.edge)}


def _cmd_genuine(args, config: dict) -> tuple[dict, dict]:
    w, _, basis = _spectrum(args)
    k = config["effective_k"] = _resolve_mode_count(args, w, basis)
    cg = genuine_matrix(basis, k)
    return {
        "genuine_matrix.csv": lambda fh: corr_to_csv(cg, fh),
        "genuine_matrix.json": _corr_document(cg),
    }, {"k": k, "m": cg.m}


def _cmd_ripple(args, config: dict) -> tuple[dict, None]:
    w, raw, basis = _spectrum(args)
    k = config["effective_k"] = _resolve_mode_count(args, w, basis)
    cg = genuine_matrix(basis, k)
    # rendered here (19 rows), so a panel without the 21-goods layout fails
    # before anything is written
    table = io.StringIO()
    final_to_intermediate_csv(cg, raw, table)
    artifacts = {"intermediate_response.csv": lambda fh: fh.write(table.getvalue())}
    if args.source is not None:
        report = ripple(cg, SeriesId.parse(args.source), args.shift)
        artifacts["ripple_source.csv"] = _table(
            ["series", "response"], zip([sid.label for sid in w.ids], report.responses.tolist()))
    return artifacts, None


def _cmd_reduced_chi(args, config: dict) -> tuple[dict, dict]:
    _, _, basis = _spectrum(args)
    if args.k > basis.m:
        # reduced_susceptibility's range, named before genuine_matrix names its own
        raise BadParameter(f"mode count {args.k} outside [1, {basis.m}]")
    red = reduced_susceptibility(genuine_matrix(basis, args.k), basis, args.k, args.beta)
    values, normalized = red.values.tolist(), red.normalized.tolist()
    return {
        "reduced_chi.json": {"beta": args.beta, "k": args.k, "values": values,
                             "normalized": normalized},
        "reduced_chi.csv": _table(
            ["row", "col", "value", "normalized"],
            [(i + 1, j + 1, values[i][j], normalized[i][j])
             for i in range(args.k) for j in range(args.k)],
        ),
    }, {"normalized": normalized}


def _cmd_cycles(args, config: dict) -> tuple[dict, None]:
    w, _, basis = _spectrum(args)
    ms = mode_series(w, basis)
    a1, a2 = ms.coeffs[0], ms.coeffs[1]
    s1 = moving_average(a1, args.xi)
    s2 = moving_average(a2, args.xi)
    return {
        "mode_series.csv": _table(
            ["date", "a1", "a2", "a1_smooth", "a2_smooth"],
            zip(ms.months, a1.tolist(), a2.tolist(), s1.tolist(), s2.tolist()),
        ),
        # s1 and s2 are already smoothed, so the lagged correlation smooths nothing more
        "lag_correlation.csv": _table(
            ["lag", "correlation"],
            [(lag, lag_correlation(s1, s2, lag))
             for lag in range(-args.max_lag, args.max_lag + 1)],
        ),
    }, None


def _cmd_phases(args, config: dict) -> tuple[dict, dict]:
    w, _, basis = _spectrum(args)
    ms = mode_series(w, basis)
    ref = SeriesId.parse(args.ref)
    if args.freq_avg:
        table = freq_avg_phases(ms, basis, args.kset, ref)
    else:
        table = mode_phases(ms, basis, args.k, ref)
    return {"phases.csv": table.to_csv}, {
        "period": table.period_label,
        "average": {c: table.class_average(v) for v, c in enumerate("PSI", 1)},
    }


def _cmd_stimuli(args, config: dict) -> tuple[dict, dict]:
    w, _, basis = _spectrum(args)
    chi = reduced_susceptibility(genuine_matrix(basis, 2), basis, 2, args.beta)
    series = external_stimuli(mode_series(w, basis), basis, chi, args.xi, args.kset)
    return {"stimuli.csv": series.to_csv}, {
        "max_abs_eta1": float(np.abs(series.eta1).max()),
        "max_abs_eta2": float(np.abs(series.eta2).max()),
    }


def _cmd_synth(args, config: dict) -> tuple[dict, None]:
    spec = spec_from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    config["effective_spec"] = spec_to_json(spec)
    panel = to_level_panel(generate(spec))
    return {"-" if args.stdout else "panel.csv": lambda fh: write_panel_csv(panel, fh)}, None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, pipeline: bool = True) -> None:
    p.add_argument(
        "--outdir",
        default=os.environ.get("PANELRESPONSE_OUTDIR", "out"),
        help="output directory (env PANELRESPONSE_OUTDIR; default: out)",
    )
    if pipeline:
        p.add_argument("--input", required=True, help="panel CSV path, or - for stdin")
        p.add_argument(
            "--window", default=None,
            help=f"analysis window START:END (conventional choice: {DEFAULT_WINDOW})",
        )
        p.add_argument(
            "--method", choices=("log10", "simple"), default="log10",
            help="growth-rate definition (default: log10)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelresponse",
        description="Noise-filtered correlation and linear-response analysis "
                    "of monthly index panels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a panel CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="eigenvalues, eigenvectors, spectrum vs MP law")
    _add_common(p)
    p.add_argument("--bins", type=_int_at_least(1), default=50)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("null", help="shuffling null ensemble and significance edge")
    _add_common(p)
    p.add_argument("--mode", choices=("complete", "rotational"), default="rotational")
    p.add_argument("--samples", type=_int_at_least(1), default=10_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_null)

    p = sub.add_parser("genuine", help="noise-filtered correlation matrix")
    _add_common(p)
    p.add_argument("--k", type=_int_at_least(0), default=None,
                   help="modes to keep (default: count above the rotational edge)")
    p.add_argument("--samples", type=_int_at_least(1), default=10_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_genuine)

    p = sub.add_parser("ripple", help="final-demand to producer-goods response table")
    _add_common(p)
    p.add_argument("--k", type=_int_at_least(0), default=None)
    p.add_argument("--samples", type=_int_at_least(1), default=10_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--source", default=None, help="optional source series, e.g. S.15")
    p.add_argument("--shift", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_ripple)

    p = sub.add_parser("reduced-chi", help="two-mode reduced susceptibility")
    _add_common(p)
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.set_defaults(func=_cmd_reduced_chi)

    p = sub.add_parser("cycles", help="smoothed mode series and lag correlation")
    _add_common(p)
    p.add_argument("--xi", type=_int_at_least(0), default=6, help="moving-average half-width")
    p.add_argument("--max-lag", type=_int_at_least(0), default=36)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("phases", help="per-goods oscillation phase table")
    _add_common(p)
    p.add_argument("--k", type=_int_at_least(1), default=4,
                   help="frequency index (single-tone table)")
    p.add_argument("--freq-avg", action="store_true",
                   help="amplitude-weighted average over --kset instead of one tone")
    p.add_argument("--kset", type=_parse_kset, default=KSET_LONG_PERIODS)
    p.add_argument("--ref", default="P.20", help="reference series (default P.20)")
    p.set_defaults(func=_cmd_phases)

    p = sub.add_parser("stimuli", help="invert the reduced response on residuals")
    _add_common(p)
    p.add_argument("--xi", type=_int_at_least(0), default=6)
    p.add_argument("--kset", type=_parse_kset, default=KSET_BUSINESS_CYCLES)
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.set_defaults(func=_cmd_stimuli)

    p = sub.add_parser("synth", help="generate a synthetic panel CSV from a spec")
    _add_common(p, pipeline=False)
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the spec seed")
    p.add_argument("--stdout", action="store_true", help="write the CSV to stdout")
    p.set_defaults(func=_cmd_synth)

    return parser


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MiB (None where unknown)."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1 << 20) if sys.platform == "darwin" else peak / (1 << 10)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.outdir)
    config = _effective_config(args)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts, summary = args.func(args, config)
        for name in list(artifacts):
            # popped, so each artifact's content is freed once it is written
            _write_artifact(outdir, name, artifacts.pop(name), config)
        if summary is not None:
            print(json.dumps(summary, sort_keys=True))
        manifest = {
            "subcommand": args.command,
            "config": config,
            "versions": {
                "panelresponse": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        peak = _peak_rss_mb()
        if peak is not None:
            manifest["peak_rss_mb"] = peak
        write_json(outdir / "manifest.json", manifest, indent=2, sort_keys=True)
    except (PanelResponseError, OSError, MemoryError) as exc:
        # numpy's refused allocation names its size; a bare MemoryError has no message
        print(f"panelresponse: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
