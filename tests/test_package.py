"""The package's lazy namespace and the command line's numpy-free entry point."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import panelresponse

REPO = Path(__file__).resolve().parents[1]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
    """A fresh interpreter on the source tree, with no BLAS thread variable unless given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
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
