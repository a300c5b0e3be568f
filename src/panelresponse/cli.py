"""Command-line front end: orchestrates the pipeline, emits CSV/JSON artifacts.

Every subcommand writes its artifacts as it computes them, and :func:`main`
adds a ``manifest.json``, all into the output directory (``--outdir``,
default ``out``).  Each file embeds the full
effective configuration, so any output can be reproduced bit-for-bit from the
recorded configuration.  Every file is written under a temporary name and
renamed into place only when the whole run has succeeded, so a failed run
leaves none of its files, whole or partial.
No plotting: artifacts are plot-ready CSV for external tools.

Exit status: 0 on success, 1 on data or validation errors, a failed write or
a refused memory allocation (one-line diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import platform
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import _BLAS_THREAD_VARS, __version__
from ._files import open_text, write_json, write_rows
from .cycles import (
    KSET_BUSINESS_CYCLES,
    KSET_LONG_PERIODS,
    external_stimuli,
    freq_avg_phases,
    lag_correlation,
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
    _write_corr,
    correlation_matrix,
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
    """argparse type: an integer >= ``low`` (usage error otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _effective_config(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    config["outdir"] = str(config["outdir"])
    return config


def _eigenvector_rows(basis: ModeBasis, labels: list[str]) -> Iterator[tuple]:
    """``mode,series,component`` rows, one mode's M rows at a time (M^2 in all)."""
    return itertools.chain.from_iterable(
        zip(itertools.repeat(str(n)), labels, vector.tolist())
        for n, vector in enumerate(basis.vectors.T, 1)
    )


class _Artifacts:
    """The files of one run, each framed by ``config`` and written under a temporary name.

    A file is written under ``.{name}.{pid}.part`` in ``outdir`` as its
    subcommand computes it.  :meth:`commit` renames every file into place in
    the order it was opened, once the whole run has succeeded;
    :meth:`discard` removes those not renamed.  The name ``-`` is stdout.
    """

    def __init__(self, outdir: Path, config: dict):
        self.outdir, self.config = outdir, config
        self._parts: list[tuple[Path, Path]] = []

    @contextlib.contextmanager
    def open(self, name: str) -> Iterator[TextIO]:
        """The open file of artifact ``name``; a CSV starts with its ``# config:`` line."""
        if name == "-":
            target = sys.stdout
        else:
            target = self.outdir / f".{name}.{os.getpid()}.part"
            self._parts.append((target, self.outdir / name))
        with open_text(target, "w") as fh:
            if not name.endswith(".json"):
                fh.write("# config: " + json.dumps(self.config, sort_keys=True) + "\n")
            yield fh

    def table(self, name: str, header: list[str], rows: Iterable[Sequence]) -> None:
        """Write ``header`` then ``rows``, taking the rows only as it writes them."""
        with self.open(name) as fh:
            write_rows(fh, itertools.chain([header], rows))

    def json(self, name: str, doc: dict, **fmt) -> None:
        """Write ``doc`` with ``config`` as its first key (``fmt`` as for ``write_json``)."""
        with self.open(name) as fh:
            write_json(fh, {"config": self.config, **doc}, **fmt)

    def commit(self) -> None:
        for part, final in self._parts:
            os.replace(part, final)
        self._parts = []

    def discard(self) -> None:
        for part, _ in self._parts:
            part.unlink(missing_ok=True)


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
# subcommands: each writes through ``out`` as it computes and returns its stdout summary
# ---------------------------------------------------------------------------


def _cmd_validate(args, out: _Artifacts) -> dict:
    panel = load_panel(_input(args), window=args.window)
    return {
        "series": panel.n_series, "goods": panel.n_goods, "months": panel.n_months,
        "start": str(panel.months[0]), "end": str(panel.months[-1]),
    }


def _cmd_analyze(args, out: _Artifacts) -> dict:
    w, _, basis = _spectrum(args)
    lam = basis.eigenvalues
    labels = [sid.label for sid in w.ids]
    top = float(lam[0]) * 1.05
    density, edges = np.histogram(lam, bins=50, range=(0.0, top), density=True)
    edges = edges.tolist()
    q = w.n_obs / w.n_series
    grid = np.linspace(0.0, top, 512)
    dens = mp_density(grid, q)
    lo, hi = mp_bounds(q)
    out.table("eigenvalues.csv", ["n", "eigenvalue"], enumerate(lam.tolist(), 1))
    out.table("eigenvectors.csv", ["mode", "series", "component"],
              _eigenvector_rows(basis, labels))
    out.table("spectrum_histogram.csv", ["lambda_lo", "lambda_hi", "density"],
              zip(edges[:-1], edges[1:], density.tolist()))
    out.table("mp_density.csv", ["lambda", "density"], zip(grid.tolist(), dens.tolist()))
    return {
        "m": w.n_series, "n_obs": w.n_obs, "q": q,
        "mp_lower": lo, "mp_upper": hi,
        "top_eigenvalues": [float(v) for v in lam[:3]],
    }


def _cmd_null(args, out: _Artifacts) -> dict:
    w = _standardized(args)
    # the pooled spectrum goes to its file as the chunks finish, never held whole
    with out.open("pooled_eigenvalues.csv") as fh:
        ensemble = null_ensemble(w, args.mode, args.samples, args.seed, keep_pooled=False,
                                 pooled_csv=fh)
    out.json("ensemble.json", ensemble.to_json())
    return {"mode": args.mode, "edge": dataclasses.asdict(ensemble.edge)}


def _cmd_genuine(args, out: _Artifacts) -> dict:
    w, _, basis = _spectrum(args)
    k = out.config["effective_k"] = _resolve_mode_count(args, w, basis)
    cg = genuine_matrix(basis, k)
    # each row is rendered once for both files; the CSV is opened, so renamed, first
    with out.open("genuine_matrix.csv") as csv_fh, out.open("genuine_matrix.json") as json_fh:
        _write_corr(cg, csv_fh, json_fh, {"config": out.config})
    return {"k": k, "m": cg.m}


def _cmd_ripple(args, out: _Artifacts) -> None:
    w, raw, basis = _spectrum(args)
    k = out.config["effective_k"] = _resolve_mode_count(args, w, basis)
    cg = genuine_matrix(basis, k)
    with out.open("intermediate_response.csv") as fh:
        final_to_intermediate_csv(cg, raw, fh)
    if args.source is not None:
        responses = ripple(cg, SeriesId.parse(args.source))
        out.table("ripple_source.csv", ["series", "response"],
                  zip([sid.label for sid in w.ids], responses.tolist()))


def _cmd_reduced_chi(args, out: _Artifacts) -> dict:
    _, _, basis = _spectrum(args)
    if args.k > basis.m:
        # reduced_susceptibility's range, named before genuine_matrix names its own
        raise BadParameter(f"mode count {args.k} outside [1, {basis.m}]")
    chi = reduced_susceptibility(genuine_matrix(basis, args.k), basis, args.k)
    values, normalized = chi.tolist(), (chi / chi[0, 0]).tolist()
    out.json("reduced_chi.json", {"values": values, "normalized": normalized})
    out.table("reduced_chi.csv", ["row", "col", "value", "normalized"],
              [(i + 1, j + 1, values[i][j], normalized[i][j])
               for i in range(args.k) for j in range(args.k)])
    return {"normalized": normalized}


def _cmd_cycles(args, out: _Artifacts) -> None:
    """Smoothed a1, a2 and their lag correlation at lags -L..L, L = min(36, N' - 2).

    Three years either way, cut on a short panel to the longest lag whose
    overlap still holds 2 points.
    """
    w, _, basis = _spectrum(args)
    ms = mode_series(w, basis)
    a1, a2 = ms.coeffs[0], ms.coeffs[1]
    s1 = moving_average(a1, args.xi)
    s2 = moving_average(a2, args.xi)
    out.table("mode_series.csv", ["date", "a1", "a2", "a1_smooth", "a2_smooth"],
              zip(ms.months, a1.tolist(), a2.tolist(), s1.tolist(), s2.tolist()))
    max_lag = min(36, w.n_obs - 2)
    out.table("lag_correlation.csv", ["lag", "correlation"],
              [(lag, lag_correlation(s1, s2, lag)) for lag in range(-max_lag, max_lag + 1)])


def _cmd_phases(args, out: _Artifacts) -> dict:
    w, _, basis = _spectrum(args)
    ms = mode_series(w, basis)
    table = freq_avg_phases(ms, basis, args.kset if args.freq_avg else [args.k],
                            SeriesId.parse(args.ref))
    with out.open("phases.csv") as fh:
        table.to_csv(fh)
    return {
        "period": "frequency-averaged" if args.freq_avg else f"T={round((w.n_obs + 1) / args.k)}",
        "average": {c: table.class_average(v) for v, c in enumerate("PSI", 1)},
    }


def _cmd_stimuli(args, out: _Artifacts) -> dict:
    w, _, basis = _spectrum(args)
    chi = reduced_susceptibility(genuine_matrix(basis, 2), basis, 2)
    series = external_stimuli(mode_series(w, basis), chi, args.xi, args.kset)
    with out.open("stimuli.csv") as fh:
        series.to_csv(fh)
    return {
        "max_abs_eta1": float(np.abs(series.eta1).max()),
        "max_abs_eta2": float(np.abs(series.eta2).max()),
    }


def _cmd_synth(args, out: _Artifacts) -> None:
    spec = spec_from_json(args.spec)
    # in the config before the panel's file is opened, which renders the config line
    out.config["effective_spec"] = spec_to_json(spec)
    panel = to_level_panel(generate(spec))
    with out.open("-" if args.stdout else "panel.csv") as fh:
        write_panel_csv(panel, fh)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, pipeline: bool = True) -> None:
    p.add_argument("--outdir", default="out", help="output directory (default: out)")
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

    p = sub.add_parser("analyze", help="eigenvalues, eigenvectors, 50-bin spectrum vs MP law")
    _add_common(p)
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
    p.set_defaults(func=_cmd_ripple)

    p = sub.add_parser("reduced-chi", help="two-mode reduced susceptibility")
    _add_common(p)
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.set_defaults(func=_cmd_reduced_chi)

    p = sub.add_parser("cycles", help="smoothed mode series and lag correlation (lags up to +-36)")
    _add_common(p)
    p.add_argument("--xi", type=_int_at_least(0), default=6, help="moving-average half-width")
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
    p.set_defaults(func=_cmd_stimuli)

    p = sub.add_parser("synth", help="generate a synthetic panel CSV from a spec")
    _add_common(p, pipeline=False)
    p.add_argument("--spec", required=True, help="JSON spec file (its seed is the run's)")
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
    out = _Artifacts(Path(args.outdir), _effective_config(args))
    try:
        out.outdir.mkdir(parents=True, exist_ok=True)
        summary = args.func(args, out)
        manifest = {
            "subcommand": args.command,
            # as this process saw them; python -m panelresponse sets each unset one to "1"
            "thread_env": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
            "versions": {
                "panelresponse": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        peak = _peak_rss_mb()
        if peak is not None:
            manifest["peak_rss_mb"] = peak
        out.json("manifest.json", manifest, indent=2, sort_keys=True)
        out.commit()
    except (PanelResponseError, OSError, MemoryError) as exc:
        # numpy's refused allocation names its size; a bare MemoryError has no message
        print(f"panelresponse: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        # whatever was raised, KeyboardInterrupt included, no temporary file stays
        out.discard()
    if summary is not None:
        print(json.dumps(summary, sort_keys=True))
    return 0

