"""Self-tests of the benchmark itself (not collected by the repo's suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py            # seed, checks, metric names
    python3 perfbench/selftest.py --runs     # also short runs of every
                                             # workload, traced and not

* a seed fully determines the generated inputs (designs, request mix,
  arrival schedule, training and sweep seeds);
* every in-run correctness check rejects a perturbed answer;
* every metric a workload prints is declared in ``BENCHMARK.json``, and
  every per-layer metric has a row in the layer map of ``README.md``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import common

common.scrub_environment()

import wl_explore  # noqa: E402
import wl_serve  # noqa: E402
import wl_train  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
OFFSET_K = 1e-6


def _same(a, b) -> bool:
    """Deep equality over the plan's dicts, lists and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


class SeedDeterminesInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.api import ThermalService

        cls.registry = tempfile.TemporaryDirectory(dir=common.WORK_DIR)
        cls.service = ThermalService(cache_dir=cls.registry.name)

    @classmethod
    def tearDownClass(cls):
        cls.service.close()
        cls.registry.cleanup()

    def plan(self, seed):
        scenario, fam = wl_serve._specs(seed)
        return wl_serve.build_plan(self.service, scenario, fam, seed, seconds=4.0)

    def test_serve_plan(self):
        first, again, other = self.plan(5), self.plan(5), self.plan(6)
        self.assertTrue(_same(first, again))
        self.assertFalse(_same(first["open"], other["open"]))
        kinds = [request["kind"] for request in first["open"]]
        self.assertEqual(sorted(set(kinds)), sorted(wl_serve.KINDS))
        dues = [request["due"] for request in first["open"]]
        self.assertEqual(dues, sorted(dues))

    def test_explore_and_train_specs(self):
        for module in (wl_explore, wl_train):
            digests = [{k: v.content_digest() for k, v in module._specs(seed).items()}
                       for seed in (5, 5, 6)]
            self.assertEqual(digests[0], digests[1])
            self.assertNotEqual(digests[0], digests[2])

    def test_sweep_seeds(self):
        self.assertEqual(common.derived_seed(5, 2, 2, 0), common.derived_seed(5, 2, 2, 0))
        self.assertNotEqual(common.derived_seed(5, 2, 2, 0), common.derived_seed(6, 2, 2, 0))


class ChecksRejectPerturbedAnswers(unittest.TestCase):
    def test_serve_answer(self):
        rng = np.random.default_rng(0)
        fields = 300.0 + rng.random((4, 50))
        reference = SimpleNamespace(fields=fields, peaks=fields.max(axis=1))
        exact = {"fields": fields.copy(), "peaks": fields.max(axis=1)}
        self.assertEqual(wl_serve.check_answer("field", exact, reference), "")
        shifted = {"fields": fields + OFFSET_K, "peaks": fields.max(axis=1) + OFFSET_K}
        self.assertNotEqual(wl_serve.check_answer("field", shifted, reference), "")
        one_peak = {"peaks": reference.peaks.copy()}
        one_peak["peaks"][2] += OFFSET_K
        self.assertNotEqual(wl_serve.check_answer("peak", one_peak, reference), "")
        # Within tolerance of the reference, but peaks != fields.max(1).
        inconsistent = {"fields": fields - 1e-10, "peaks": fields.max(axis=1)}
        self.assertNotEqual(wl_serve.check_answer("field", inconsistent, reference), "")

    def test_explore_checks(self):
        from repro.api import ThermalService

        with tempfile.TemporaryDirectory(dir=common.WORK_DIR) as registry:
            wl_explore.prepare(0, Path(registry))
            service = ThermalService(cache_dir=registry)
            spec = wl_explore._specs(0)["a"]
            result = wl_explore._sweep(service, spec, "a", seed=3)
            outcome = common.Outcome()
            wl_explore.check_sweep(service, spec, "a", result, outcome)
            self.assertEqual(outcome.problems, [])
            for perturb in ("peaks", "reference", "energy"):
                copy = wl_explore._sweep(service, spec, "a", seed=3)
                if perturb == "peaks":
                    copy.peaks = copy.peaks + OFFSET_K
                elif perturb == "reference":
                    copy.validation.reference_peaks = copy.validation.reference_peaks + OFFSET_K
                else:
                    copy.validation.worst_energy_imbalance = 1e-6
                outcome = common.Outcome()
                wl_explore.check_sweep(service, spec, "a", copy, outcome)
                self.assertTrue(outcome.problems, perturb)
            service.close()

    def test_train_replay_check(self):
        outcome = common.Outcome()
        wl_train.check_replay("a", 4.25, 4.25, outcome)
        self.assertTrue(outcome.correct)
        wl_train.check_replay("a", 4.25 * (1 + 1e-9), 4.25, outcome)
        self.assertFalse(outcome.correct)


class MetricNames(unittest.TestCase):
    def test_layer_map_covers_every_per_layer_metric(self):
        readme = (common.BENCH_DIR / "README.md").read_text()
        missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in readme
                   and not _in_braced_row(m["name"], readme)]
        self.assertEqual(missing, [])

    @unittest.skipUnless("--runs" in sys.argv, "pass --runs for the short workload runs")
    def test_printed_names_are_declared(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                out = subprocess.run(
                    [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload",
                     workload, "--seed", "1", "--seconds", "2", "--trace", str(trace)],
                    cwd=common.ROOT, capture_output=True, text=True, timeout=300)
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stderr[-2000:])
                declared = {m["name"] for m in SPEC[group]}
                self.assertEqual(set(result["metrics"]), declared)


def _in_braced_row(name: str, readme: str) -> bool:
    """``a.{x,y}.b`` rows of the layer map expand to ``a.x.b`` and ``a.y.b``."""
    for token in readme.split("`"):
        if "{" not in token:
            continue
        head, rest = token.split("{", 1)
        options, tail = rest.split("}", 1)
        if any(name == head + option + tail for option in options.split(",")):
            return True
    return False


if __name__ == "__main__":
    common.WORK_DIR.mkdir(exist_ok=True)
    unittest.main(argv=[sys.argv[0]] + [a for a in sys.argv[1:] if a != "--runs"])
