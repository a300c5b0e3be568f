"""The package's lazy namespace and the command line's numpy-free entry point."""

import ctypes
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import panelresponse
from panelresponse.__main__ import _glibc, _one_malloc_arena

REPO = Path(__file__).resolve().parents[1]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_VARS = ("MALLOC_ARENA_MAX", "GLIBC_TUNABLES")

# the public names, as the package listed them when it imported every submodule
PUBLIC = {
    "__version__",
    "Variable", "SeriesId", "Panel", "GrowthPanel", "StandardizedPanel",
    "DEFAULT_GOODS_LABELS", "canonical_ids", "load_panel", "write_panel_csv",
    "log_growth", "simple_growth", "standardize", "parse_month", "parse_window",
    "CorrMatrix", "ModeBasis", "ModeSeries", "correlation_matrix",
    "eigendecompose", "mode_series", "reconstruct", "mp_bounds", "mp_density",
    "corr_to_csv", "corr_from_csv", "corr_from_json",
    "NullEnsemble", "EdgeEstimate", "autocorrelations", "cyclic_autocorrelation",
    "no_autocorr_band", "complete_shuffle", "rotational_shuffle", "null_ensemble",
    "upper_edge",
    "genuine_matrix", "default_mode_count",
    "ripple", "final_to_intermediate", "reduced_susceptibility",
    "KSET_BUSINESS_CYCLES", "KSET_LONG_PERIODS", "moving_average",
    "lag_correlation", "dft", "inverse_dft", "long_period",
    "residual_disturbance", "external_stimuli", "freq_avg_phases",
    "SynthSpec", "PlantedMode", "Sinusoid", "Ar1", "generate",
    "to_level_panel", "spec_to_json", "spec_from_json",
    "PanelResponseError",
}


def run_python(args, cwd=None, **env_changes):
    """A fresh interpreter on the source tree, with no BLAS or malloc variable unless given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + MALLOC_VARS}
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_changes)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("module", ["panelresponse", "panelresponse.__main__"])
def test_import_loads_no_numpy(module):
    # the entry point can then choose BLAS's thread count before numpy loads it
    res = run_python(["-c", f"import sys, {module}; print('numpy' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_all_lists_the_public_names_once():
    assert len(panelresponse.__all__) == len(PUBLIC)
    assert set(panelresponse.__all__) == PUBLIC
    assert PUBLIC <= set(dir(panelresponse))


def test_each_public_name_is_its_submodules_object():
    for module, names in panelresponse._EXPORTS.items():
        home = importlib.import_module(f"panelresponse.{module}")
        for name in names:
            assert getattr(panelresponse, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from panelresponse import *", namespace)
    assert PUBLIC <= namespace.keys()
    assert namespace["load_panel"] is panelresponse.panel.load_panel


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        panelresponse.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from panelresponse import no_such_name", {})


def test_console_script_runs_the_numpy_free_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"panelresponse": "panelresponse.__main__:main"}


@pytest.fixture(scope="module")
def small_panel(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    (root / "spec.json").write_text('{"n_series": 6, "n_obs": 60, "seed": 1}')
    res = run_python(["-m", "panelresponse", "synth", "--spec", "spec.json", "--outdir", "s"],
                     cwd=root)
    assert res.returncode == 0, res.stderr
    return root / "s" / "panel.csv"


# -m panelresponse, and the console script's call of its target
ENTRIES = {
    "module": ["-m", "panelresponse"],
    "script": ["-c", "import sys; from panelresponse.__main__ import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("caller, recorded", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
], ids=["unset", "caller-set"])
def test_manifest_records_the_thread_variables(small_panel, tmp_path, entry, caller, recorded):
    # the entry point sets each variable the caller left unset to "1"
    res = run_python([*ENTRIES[entry], "analyze", "--input", str(small_panel), "--outdir", "o"],
                     cwd=tmp_path, **caller)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["thread_env"] == recorded


def test_cli_main_records_unset_variables_as_null(small_panel, tmp_path):
    # cli.main itself sets nothing: a process that calls it records what it has
    res = run_python(["-c", "import sys; from panelresponse.cli import main; sys.exit(main())",
                      "validate", "--input", str(small_panel), "--outdir", "o"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["thread_env"] == dict.fromkeys(THREAD_VARS)
    assert manifest["malloc_env"] == dict.fromkeys(MALLOC_VARS)


GLIBC = _glibc()

# the entry point, with every ctypes.CDLL it opens listed on stderr
MALLOPT_SPY = """
import ctypes, sys
from panelresponse.__main__ import main
real, opened = ctypes.CDLL, []
ctypes.CDLL = lambda name, *args, **kwargs: opened.append(name) or real(name, *args, **kwargs)
sys.argv = ["panelresponse", *sys.argv[1:]]
code = main()
print(opened, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("caller, recorded", [
    ({}, {"MALLOC_ARENA_MAX": "1" if GLIBC else None, "GLIBC_TUNABLES": None}),
    ({"MALLOC_ARENA_MAX": "2"}, {"MALLOC_ARENA_MAX": "2", "GLIBC_TUNABLES": None}),
    ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=2"},
     {"MALLOC_ARENA_MAX": None, "GLIBC_TUNABLES": "glibc.malloc.arena_max=2"}),
], ids=["unset", "caller-set", "caller-tunable"])
def test_manifest_records_the_malloc_arena_variable(small_panel, tmp_path, entry, caller,
                                                    recorded):
    # on glibc the entry point caps malloc at one arena unless the caller chose a cap
    res = run_python([*ENTRIES[entry], "analyze", "--input", str(small_panel), "--outdir", "o"],
                     cwd=tmp_path, **caller)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["malloc_env"] == recorded


@pytest.mark.parametrize("caller, capped", [
    ({}, GLIBC),
    ({"MALLOC_ARENA_MAX": "abc"}, False),
    ({"MALLOC_ARENA_MAX": "2"}, False),
    ({"GLIBC_TUNABLES": "glibc.malloc.check=0:glibc.malloc.arena_max=4"}, False),
    ({"GLIBC_TUNABLES": "glibc.malloc.check=0"}, GLIBC),
], ids=["unset", "malformed", "caller-set", "caller-tunable", "other-tunable"])
def test_entry_point_calls_mallopt_only_for_an_unset_cap(small_panel, tmp_path, caller, capped):
    # a caller's value, malformed or not, is left to glibc and recorded as given
    res = run_python(["-c", MALLOPT_SPY, "validate", "--input", str(small_panel),
                      "--outdir", "o"], cwd=tmp_path, **caller)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == str([None] if capped else [])
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["malloc_env"]["MALLOC_ARENA_MAX"] == caller.get(
        "MALLOC_ARENA_MAX", "1" if capped else None)


def _no_such_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [None, _no_such_name, lambda name: None,
                                     lambda name: "musl 1.2.4"],
                         ids=["no-confstr", "no-such-name", "unset", "other-libc"])
def test_other_libcs_keep_their_malloc(monkeypatch, confstr):
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(os, "environ", {})
    monkeypatch.setattr(ctypes, "CDLL", None)  # any call would raise
    _one_malloc_arena()
    assert os.environ == {}


# a two-worker null on any machine, then glibc's count of malloc's arenas
TWO_WORKER_NULL_HEAPS = """
import contextlib, ctypes, io, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from panelresponse.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["synth", "--spec", "spec.json", "--outdir", "s"],
                 ["null", "--mode", "rotational", "--samples", "2000",
                  "--input", "s/panel.csv", "--outdir", "n"]):
        sys.argv = ["panelresponse", *argv]
        assert main() == 0
libc = ctypes.CDLL(None)
libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
libc.fopen.restype = ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.malloc_info.restype = ctypes.c_int
libc.fclose.argtypes = (ctypes.c_void_p,)
libc.fclose.restype = ctypes.c_int
stream = libc.fopen(b"malloc_info.xml", b"w")
assert stream and libc.malloc_info(0, stream) == 0 and libc.fclose(stream) == 0
"""


@pytest.mark.skipif(not GLIBC, reason="malloc arenas are glibc's")
def test_two_worker_null_allocates_from_one_arena(tmp_path):
    # each null worker would otherwise create an arena of its own: 3 heaps
    (tmp_path / "spec.json").write_text('{"n_series": 6, "n_obs": 60, "seed": 1}')
    res = run_python(["-c", TWO_WORKER_NULL_HEAPS], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "malloc_info.xml").read_text().count("<heap nr=") == 1
