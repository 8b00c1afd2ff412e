"""Shared plumbing for the repository benchmark.

Paths, environment scrubbing, seeded inputs, the scenarios every
workload uses, summary statistics, the in-memory span tracer and the
result line.  Nothing here starts a process or imports ``repro`` at
import time, so the self-tests can load it cheaply.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FAMILY_JSON = ROOT / "examples" / "scenarios" / "family_htc_sweep.json"
#: run-time scratch (fresh registry, daemon logs, traces); gitignored.
WORK_DIR = ROOT / ".perfbench"

#: environment the program must not inherit: worker count, fault
#: injection and a shared checkpoint registry would each change what is
#: measured (or let one run read another run's checkpoints).
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_FAULTS", "REPRO_MODEL_CACHE")

#: training iterations of the checkpoints the serve and explore
#: workloads warm-start; serving and sweeping cost does not depend on
#: the weight values, so a handful is enough.
CHECKPOINT_ITERATIONS = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed boot)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "repro", FAMILY_JSON)
               if not p.exists()]
    if missing:
        raise BenchError(f"program files missing from the checkout: {missing}")


def scrub_environment() -> None:
    """Drop inherited knobs before ``repro`` is imported."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a child process: scrubbed, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


@contextmanager
def run_dir(workload: str, seed: int):
    """A fresh per-run directory under the checkout, removed afterwards."""
    path = WORK_DIR / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def cold_start(workload: str, seed: int, registry: Path) -> float:
    """Wall seconds of one fresh-process preparation (see coldstart.py)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "coldstart.py"), workload, str(seed),
         str(registry)],
        env=child_env(), check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def derived_seed(seed: int, *tags: int) -> int:
    """A 31-bit integer seed for APIs that take ``seed=``."""
    return int(rng_for(seed, *tags).integers(0, 2**31 - 1))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def with_training(scenario, iterations: int, seed: int):
    """The scenario with its training budget and training seed replaced."""
    return replace(scenario, training=replace(
        scenario.training, iterations=int(iterations), seed=int(seed)))


def scenario_a(iterations: int, seed: int):
    """Experiment A (power maps) at the ci architecture."""
    from repro.api.presets import scenario_for

    return with_training(scenario_for("a", scale="ci"), iterations, seed)


def scenario_b(iterations: int, seed: int):
    """Experiment B (dual HTC) at the ci architecture."""
    from repro.api.presets import scenario_for

    return with_training(scenario_for("b", scale="ci"), iterations, seed)


def family(iterations: int, seed: int):
    """The shipped HTC-sweep family with its training budget replaced."""
    from repro.family import ScenarioFamily

    data = ScenarioFamily.from_json(FAMILY_JSON).to_dict()
    data["base"]["training"]["iterations"] = int(iterations)
    data["base"]["training"]["seed"] = int(seed)
    return ScenarioFamily.from_dict(data)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(list(values), dtype=float), q))


def peak_rss_mb() -> float:
    """This process's high-water resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Another process's high-water RSS (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def environment_record() -> Dict:
    """Host and library configuration recorded with every result."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {"name": deps[key].get("name"),
                      "version": deps[key].get("version"),
                      "config": deps[key].get("openblas configuration")}
                for key in ("blas", "lapack") if key in deps}
    except (AttributeError, KeyError, TypeError):
        blas = {"unavailable": True}
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, parent index, trace id, start, end]``; spans of
    one replayed operation share a trace id.  Nothing is written until
    :meth:`write` runs at the end of the benchmark.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        """Time the enclosed block as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][2]
        record = [name, parent, trace_id, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_time[index])
        return out

    def write(self, path: Path) -> None:
        """Dump every span as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"name": n, "parent": p, "trace": t, "start": s, "end": e}
            for n, p, t, s, e in self.spans
        ]))


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced twin of a replay."""

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        """No-op span."""
        yield


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted/failed and correctness-check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check (first 20 kept verbatim)."""
        if not ok:
            if len(self.problems) < 20:
                self.problems.append(message)
            else:
                self.problems[-1] = f"... and more ({message})"

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def result_line(outcome: Outcome, metrics: Dict[str, tuple]) -> str:
    """The benchmark's last stdout line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
