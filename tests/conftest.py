from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from panelresponse import synth

# Property tests run a fixed, bounded set of examples so the suite stays
# deterministic and its run time predictable.
settings.register_profile("panelresponse", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("panelresponse")

# ---------------------------------------------------------------------------
# shared panels (session-scoped: several modules reuse them)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def iid_panel():
    """63 x 239 panel of independent white noise."""
    return synth.generate(synth.SynthSpec(n_series=63, n_obs=239, seed=2024))


@pytest.fixture(scope="session")
def ar1_panel():
    """63 x 239 panel of AR(1) noise with the production/shipments-like lag-1 sign."""
    return synth.generate(
        synth.SynthSpec(n_series=63, n_obs=239, noise_ar1=-0.35, seed=515)
    )


@pytest.fixture(scope="session")
def planted_panel():
    """63 x 239 panel carrying two strong planted modes over white noise."""
    spec = synth.SynthSpec(
        n_series=63,
        n_obs=239,
        modes=(
            synth.PlantedMode(eigenvalue=8.0, driver=synth.Ar1(0.2)),
            synth.PlantedMode(eigenvalue=5.0, driver=synth.Sinusoid(period=60.0)),
        ),
        noise_ar1=0.0,
        seed=77,
    )
    return synth.generate(spec)


@pytest.fixture()
def real_panel_path():
    """Path to the real IIP panel CSV, or skip when it is not available."""
    path = os.environ.get("IIP_PANEL_CSV", "")
    if not path or not os.path.exists(path):
        pytest.skip("real IIP panel not available (set IIP_PANEL_CSV to enable)")
    return path


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion at the end of the run
# ---------------------------------------------------------------------------

_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance):
        outcome = _acceptance[name].upper()
        terminalreporter.write_line(f"{name:<58s} {outcome}")
