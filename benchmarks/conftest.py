"""Shared fixtures for the benchmark suite.

Trained models live in the :class:`~repro.api.ThermalService` checkpoint
registry (``.model_cache/``, or ``REPRO_MODEL_CACHE``), keyed by each
scenario's content digest: the first ``pytest benchmarks/
--benchmark-only`` run trains once (~5 min total), every later run loads
instantly, and a changed scenario never loads a stale model.  Each bench
writes its regenerated table/figure to ``benchmarks/out/`` alongside the
timing numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import ThermalService, scenario_for

OUT_DIR = Path(__file__).parent / "out"

# REPRO_SMOKE=1 switches the suite into the CI perf-contract mode: tiny
# "test"-scale models (seconds to train) and parity-only assertions.
SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
MODEL_SCALE = "test" if SMOKE else "ci"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def _trained(name: str, scale: str = MODEL_SCALE):
    """A preset's setup, trained into (or loaded from) the registry."""
    scenario = scenario_for(name, scale=scale)
    service = ThermalService()
    service.train(scenario)
    return service.setup(scenario)


@pytest.fixture(scope="session")
def trained_a():
    """CI-scale Experiment-A model (trained once, then disk-cached)."""
    return _trained("a")


@pytest.fixture(scope="session")
def trained_b():
    """CI-scale Experiment-B model (trained once, then disk-cached)."""
    return _trained("b")


@pytest.fixture(scope="session")
def trained_transient():
    """CI-scale transient model (trained once, then disk-cached)."""
    return _trained("transient")


@pytest.fixture(scope="session")
def trained_volumetric():
    """CI-scale 3-D power-map model (trained once, then disk-cached).

    Always CI scale: the volumetric bench has no smoke mode, and its
    accuracy gate is set for the CI-scale model.
    """
    return _trained("volumetric", scale="ci")


@pytest.fixture(scope="session")
def exp_a_result(trained_a):
    """The full p1..p10 evaluation shared by Table-I and Fig.-3 benches."""
    from repro.experiments import run_experiment_a

    return run_experiment_a(trained_a)
