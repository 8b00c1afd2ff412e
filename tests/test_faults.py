"""Chaos suite: deterministic fault injection across every recovery path.

The contract under test (ISSUE 8):

* :mod:`repro.faults` schedules crashes exactly — per-site rules with
  ``match``/``after``/``times`` gating, seed-deterministic probability,
  JSON round-trip and ``REPRO_FAULTS`` propagation into child
  processes — and is a single ``None`` check when disarmed;
* a training run killed (``kill -9``-style) at iteration k resumes
  from its checkpoint to final weights bitwise identical to an
  uninterrupted run; a corrupt checkpoint is quarantined, never
  half-loaded;
* the serving daemon stays observable and honest under faults: the
  ``health`` op answers inline while compute is busy, expired deadlines
  die before compute, the watchdog fails a wedged dispatch's clients
  fast, and the client absorbs connection drops and ``shutting_down``;
* SIGTERM drains in-flight work and exits 0; SIGTERM with a wedged
  compute thread exits nonzero within the watchdog deadline.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.api import CheckpointCorrupt, ThermalService, scenario_for
from repro.core import Trainer, TrainerConfig
from repro.nn.serialize import read_payload
from repro.serve import (
    MicroBatcher,
    QueuedRequest,
    ServerError,
    ThermalClient,
    ThermalServer,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _always_disarm():
    """No test leaves a plan armed (or exported) behind."""
    yield
    faults.disarm()


def _tiny(iterations=5):
    scenario = scenario_for("a", scale="test")
    scenario.training.iterations = iterations
    return scenario


def _tiny_family(iterations=4):
    from repro.family import ScenarioFamily

    base = scenario_for("b", scale="test")
    base.training.iterations = iterations
    return ScenarioFamily.from_dict({
        "family_schema_version": 1,
        "name": "faults_family",
        "base": base.to_dict(),
        "axes": [{"kind": "htc_range", "input": "htc_top", "low": 333.33,
                  "high": 1000.0, "member_width": 150.0}],
        "n_members": 2,
        "sample_seed": 7,
        "conditioning_hidden": [8],
    })


def _designs(service, scenario, n, seed=0):
    raws = service.sample_designs(scenario, n, seed=seed)
    return [{name: batch[index] for name, batch in raws.items()}
            for index in range(n)]


def _weights(setup):
    return [p.data.copy() for p in setup.model.net.parameters()]


def _run_child(script: str, tmp_path: Path, name: str, env_extra=None,
               **popen_kwargs):
    """Run ``script`` as a real file in a fresh interpreter."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(script))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.Popen(
        [sys.executable, str(path)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        **popen_kwargs,
    )


# ----------------------------------------------------------------------
# FaultPlan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_disarmed_hit_is_noop(self):
        assert not faults.active()
        faults.hit("trainer.iteration", iteration=0)  # no plan: no effect
        assert faults.fired("trainer.iteration") == 0

    def test_match_after_times_gating(self):
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="unit.site", match={"tag": "x"},
                             after=2, times=2),
        ])
        faults.arm(plan)
        faults.hit("unit.site", tag="y")  # non-matching context: ignored
        faults.hit("unit.site", tag="x")  # skipped (after=2)
        faults.hit("unit.site", tag="x")  # skipped
        for _ in range(2):  # the next two matching hits fire
            with pytest.raises(faults.FaultInjected):
                faults.hit("unit.site", tag="x")
        faults.hit("unit.site", tag="x")  # times exhausted: pass again
        assert faults.fired("unit.site") == 2

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            plan = faults.FaultPlan(seed=seed, rules=[
                faults.FaultRule(site="unit.site", times=0,
                                 probability=0.5),
            ])
            faults.arm(plan)
            fired = []
            for _ in range(32):
                try:
                    faults.hit("unit.site")
                    fired.append(False)
                except faults.FaultInjected:
                    fired.append(True)
            faults.disarm()
            return fired

        assert pattern(7) == pattern(7)  # replayable
        assert pattern(7) != pattern(8)  # but seed-sensitive
        assert any(pattern(7)) and not all(pattern(7))

    def test_json_roundtrip_and_env_propagation(self):
        plan = faults.FaultPlan(seed=3, rules=[
            faults.FaultRule(site="trainer.iteration", action="kill",
                             match={"iteration": 1}, after=4, exit_code=99),
        ])
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

        faults.arm(plan, propagate=True)
        blob = os.environ[faults.ENV_VAR]
        faults.disarm()
        assert faults.ENV_VAR not in os.environ  # disarm unexports
        os.environ[faults.ENV_VAR] = blob  # as a child process sees it
        try:
            assert faults.load_from_env()
            assert faults.active()
        finally:
            faults.disarm()

    def test_malformed_env_is_ignored(self):
        os.environ[faults.ENV_VAR] = "{not json"
        try:
            assert not faults.load_from_env()
            assert not faults.active()
        finally:
            faults.disarm()

    def test_delay_and_drop_actions(self):
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="unit.slow", action="delay",
                             delay_seconds=0.05),
            faults.FaultRule(site="unit.drop", action="drop"),
        ])
        faults.arm(plan)
        start = time.perf_counter()
        faults.hit("unit.slow")
        assert time.perf_counter() - start >= 0.05
        with pytest.raises(faults.ConnectionDropInjected):
            faults.hit("unit.drop")
        assert faults.fired("unit.slow") == 1
        assert faults.fired("unit.drop") == 1

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            faults.FaultRule(site="s", action="explode")
        with pytest.raises(ValueError):
            faults.FaultRule(site="s", after=-1)
        with pytest.raises(ValueError):
            faults.FaultRule(site="s", probability=1.5)


# ----------------------------------------------------------------------
# Trainer: checkpoint/resume
# ----------------------------------------------------------------------
class TestTrainerChaos:
    def test_interrupted_resume_is_bitwise(self, tmp_path):
        ckpt = str(tmp_path / "state.train.npz")
        reference = scenario_for("a", scale="test", seed=0).compile()
        cfg = TrainerConfig(iterations=10, n_functions=4, log_every=3,
                            seed=0)
        full = Trainer([(reference.model, reference.plan)], cfg).run()
        expected = _weights(reference)

        cut = scenario_for("a", scale="test", seed=0).compile()
        cfg_ck = TrainerConfig(iterations=10, n_functions=4, log_every=3,
                               seed=0, checkpoint_every=3)
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="trainer.iteration",
                             match={"iteration": 6}),
        ])
        trainer = Trainer([(cut.model, cut.plan)], cfg_ck)
        with pytest.raises(faults.FaultInjected):
            with faults.injected(plan):
                trainer.run(checkpoint_path=ckpt)
        assert os.path.exists(ckpt)

        # Resume on a FRESH model (exactly the post-kill situation).
        resumed = scenario_for("a", scale="test", seed=0).compile()
        history = Trainer([(resumed.model, resumed.plan)], cfg_ck).run(
            checkpoint_path=ckpt, resume=True
        )
        for lhs, rhs in zip(expected, _weights(resumed)):
            assert np.array_equal(lhs, rhs)
        assert history.iterations == full.iterations
        assert history.total_loss == full.total_loss

    @pytest.mark.parametrize("kind", ["scenario", "family"])
    def test_kill_dash_nine_then_service_resume_bitwise(self, tmp_path,
                                                        kind):
        # Scenarios and families train through one loop; both resume.
        if kind == "scenario":
            subject, train = _tiny(iterations=6), ThermalService.train
            kill_at = {"iteration": 4}
        else:
            subject, train = _tiny_family(), ThermalService.train_family
            kill_at = {"iteration": 3, "member": 1}
        with ThermalService(cache_dir=tmp_path / "ref") as svc:
            ref = train(svc, subject, checkpoint_every=2)
        ref_state, _ = read_payload(ref.checkpoint_path)

        # Same training run in a child process, killed dead (os._exit,
        # no cleanup — kill -9 equivalent) mid-run.
        spec = tmp_path / "subject.json"
        subject.to_json(spec)
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="trainer.iteration", action="kill",
                             match=kill_at, exit_code=137),
        ])
        child = _run_child(
            f"""
            from repro import faults
            from repro.api import ThermalScenario, ThermalService
            from repro.family import ScenarioFamily

            faults.load_from_env()
            with ThermalService(cache_dir={str(tmp_path / "cut")!r}) as svc:
                if {kind!r} == "family":
                    family = ScenarioFamily.from_json({str(spec)!r})
                    svc.train_family(family, checkpoint_every=2)
                else:
                    scenario = ThermalScenario.from_json({str(spec)!r})
                    svc.train(scenario, checkpoint_every=2)
            print("FINISHED")
            """,
            tmp_path, "train_kill.py",
            env_extra={faults.ENV_VAR: plan.to_json()},
        )
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 137, out
        assert "FINISHED" not in out
        assert list((tmp_path / "cut").glob("*.train.npz")), out

        # Resume in-process: final weights bitwise equal the
        # uninterrupted run, and the partial slot is cleaned up.
        with ThermalService(cache_dir=tmp_path / "cut") as svc:
            resumed = train(svc, subject, resume=True, checkpoint_every=2)
        assert not resumed.from_cache
        assert not list((tmp_path / "cut").glob("*.train.npz"))
        cut_state, _ = read_payload(resumed.checkpoint_path)
        assert set(ref_state) == set(cut_state)
        for key in ref_state:
            assert np.array_equal(ref_state[key], cut_state[key]), key


# ----------------------------------------------------------------------
# Checkpoint integrity: digest validation and quarantine
# ----------------------------------------------------------------------
class TestCheckpointCorruption:
    def test_corrupt_registry_hit_quarantines_and_retrains(self, tmp_path):
        scn = _tiny(iterations=6)
        with ThermalService(cache_dir=tmp_path) as svc:
            first = svc.train(scn)
            assert not first.from_cache
        ref_state, _ = read_payload(first.checkpoint_path)

        # Flip one byte in the cached payload: load must refuse (with
        # the bad file quarantined on disk), never half-apply.
        raw = bytearray(first.checkpoint_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        first.checkpoint_path.write_bytes(bytes(raw))
        with ThermalService(cache_dir=tmp_path) as svc:
            with pytest.raises(CheckpointCorrupt) as info:
                svc.registry.load(scn, svc.session(scn).setup.model)
            assert info.value.quarantined is not None
            assert info.value.quarantined.exists()
            assert info.value.quarantined.suffix == ".corrupt"
            assert not first.checkpoint_path.exists()

        # A fresh service retrains the now-empty slot to weights
        # bitwise equal to the original run.
        with ThermalService(cache_dir=tmp_path) as svc:
            again = svc.train(scn)
        assert not again.from_cache
        new_state, _ = read_payload(again.checkpoint_path)
        for key in ref_state:
            assert np.array_equal(ref_state[key], new_state[key]), key

    @pytest.mark.parametrize("kind", ["scenario", "family"])
    def test_train_self_heals_a_corrupt_cache_hit(self, tmp_path, caplog,
                                                  kind):
        # Scenarios and families share one train body; both halves heal.
        if kind == "scenario":
            subject, train = _tiny(iterations=6), ThermalService.train
        else:
            subject, train = _tiny_family(), ThermalService.train_family
        with ThermalService(cache_dir=tmp_path) as svc:
            train(svc, subject)
        with ThermalService(cache_dir=tmp_path) as svc:
            path = svc.registry.find(subject)
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
            with caplog.at_level("WARNING", logger="repro.api.service"):
                result = train(svc, subject)
            assert not result.from_cache  # retrained, not served corrupt
            assert list(tmp_path.glob("*.corrupt"))


# ----------------------------------------------------------------------
# Serve: health inline, deadlines, watchdog, client retries
# ----------------------------------------------------------------------
class TestServeChaos:
    def test_health_answers_fast_while_compute_busy(self, tmp_path):
        scn = _tiny()
        with ThermalServer(cache_dir=tmp_path,
                           watchdog_timeout=30.0) as server:
            server.warm_start([scn])
            with ThermalService(cache_dir=tmp_path) as reference:
                designs = _designs(reference, scn, 2)
            faults.arm(faults.FaultPlan(rules=[
                faults.FaultRule(site="serve.compute", action="delay",
                                 delay_seconds=1.2,
                                 match={"op": "predict"}, times=1),
            ]))
            with ThermalClient(port=server.port) as probe:
                health = probe.health()
                assert health["ready"] and health["live"]
                assert health["status"] == "ok"

                done = threading.Event()

                def slow_call():
                    with ThermalClient(port=server.port) as client:
                        client.predict(scn, designs)
                    done.set()

                thread = threading.Thread(target=slow_call)
                thread.start()
                time.sleep(0.3)  # let it reach the delayed compute
                assert server.batcher.busy_seconds() > 0.1
                # The acceptance bar: health answers in < 50 ms while
                # the compute thread is busy with a long fused call.
                latencies = []
                for _ in range(5):
                    start = time.perf_counter()
                    health = probe.health()
                    latencies.append(time.perf_counter() - start)
                assert min(latencies) < 0.05, latencies
                assert health["busy_seconds"] > 0.1
                thread.join(30.0)
                assert done.is_set()  # the slow request still answered

    def test_deadline_expires_before_compute(self, tmp_path):
        scn = _tiny()
        with ThermalServer(cache_dir=tmp_path) as server:
            server.warm_start([scn])
            with ThermalService(cache_dir=tmp_path) as reference:
                designs = _designs(reference, scn, 2)
            faults.arm(faults.FaultPlan(rules=[
                faults.FaultRule(site="serve.compute", action="delay",
                                 delay_seconds=1.0,
                                 match={"op": "predict"}, times=1),
            ]))
            blocker = threading.Thread(
                target=lambda: ThermalClient(port=server.port).predict(
                    scn, designs
                )
            )
            blocker.start()
            time.sleep(0.2)  # occupy the compute thread first
            with ThermalClient(port=server.port, max_retries=0) as client:
                with pytest.raises(ServerError) as info:
                    client.predict(scn, designs, timeout_ms=50)
            assert info.value.code == "deadline_exceeded"
            assert info.value.attempts == 1
            blocker.join(30.0)
            assert server.batcher.stats()["expired"] == 1

    def test_watchdog_fails_wedged_dispatch_fast(self, tmp_path):
        scn = _tiny()
        with ThermalServer(cache_dir=tmp_path,
                           watchdog_timeout=0.5) as server:
            server.warm_start([scn])
            with ThermalService(cache_dir=tmp_path) as reference:
                designs = _designs(reference, scn, 2)
            server._stop_event = threading.Event()
            faults.arm(faults.FaultPlan(rules=[
                faults.FaultRule(site="serve.compute", action="delay",
                                 delay_seconds=3.0,
                                 match={"op": "predict"}, times=1),
            ]))
            with ThermalClient(port=server.port, max_retries=0) as client:
                start = time.perf_counter()
                with pytest.raises(ServerError) as info:
                    client.predict(scn, designs)
                elapsed = time.perf_counter() - start
            # Failed by the watchdog well before the 3 s wedge cleared.
            assert info.value.code == "error"
            assert "wedged" in str(info.value)
            assert elapsed < 2.5
            assert server._wedged.is_set()
            assert server._stop_event.wait(2.0)  # supervisor signal
            with ThermalClient(port=server.port, max_retries=0) as client:
                health = client.health()
            assert health["status"] == "wedged"
            assert not health["live"]

    def test_client_retries_connection_drop(self, tmp_path):
        scn = _tiny()
        with ThermalServer(cache_dir=tmp_path) as server:
            server.warm_start([scn])
            with ThermalService(cache_dir=tmp_path) as reference:
                designs = _designs(reference, scn, 2)
                expected = reference.predict(scn, designs).fields
            faults.arm(faults.FaultPlan(rules=[
                faults.FaultRule(site="serve.connection", action="drop",
                                 match={"op": "predict"}, times=1),
            ]))
            with ThermalClient(port=server.port, retry_seed=1,
                               backoff_base=0.01) as client:
                result = client.predict(scn, designs)
            # First attempt's connection was dropped server-side; the
            # retry reconnected and the answer is still bitwise right.
            assert faults.fired("serve.connection") == 1
            assert np.array_equal(result["fields"], expected)

    def test_client_retries_shutting_down_then_surfaces(self, tmp_path):
        with ThermalServer(cache_dir=tmp_path) as server:
            # Batched ops answer shutting_down while the daemon drains
            # (the check precedes parsing, so no warm model is needed).
            server._draining.set()
            start = time.perf_counter()
            with ThermalClient(port=server.port, max_retries=2,
                               retry_seed=0, backoff_base=0.01,
                               backoff_cap=0.05) as client:
                with pytest.raises(ServerError) as info:
                    client._call({"op": "predict", "scenario": {},
                                  "designs": []})
            assert info.value.code == "shutting_down"
            assert info.value.attempts == 3  # initial try + 2 retries
            assert time.perf_counter() - start >= 0.01  # it did back off
            server._draining.clear()

    def test_backoff_is_deterministic_and_floored(self):
        first = ThermalClient(retry_seed=5, backoff_base=0.05,
                              backoff_cap=2.0)
        second = ThermalClient(retry_seed=5, backoff_base=0.05,
                               backoff_cap=2.0)
        a = [first._backoff(k, None) for k in range(6)]
        b = [second._backoff(k, None) for k in range(6)]
        assert a == b  # same seed, same jitter stream
        assert all(delay <= 2.0 * 1.5 for delay in a)  # capped (pre-jitter)
        # The server's retry_after hint is a floor on the sleep.
        assert first._backoff(0, 7.5) >= 7.5

    def test_batcher_close_reports_leaked_thread(self, caplog):
        release = threading.Event()

        def execute(group):
            release.wait(30.0)
            for request in group:
                request.resolve({"ok": True})

        batcher = MicroBatcher(execute, max_batch=1)
        request = QueuedRequest(request_id=0, op="predict",
                                fuse_key=("k",), payload={})
        assert batcher.submit(request)
        time.sleep(0.05)  # let the dispatcher enter the wedged execute
        with caplog.at_level("WARNING", logger="repro.serve"):
            leaked = batcher.close(drain=False, timeout=0.1)
        assert leaked is not None and leaked.is_alive()
        assert any("did not exit" in record.message
                   for record in caplog.records)
        release.set()
        leaked.join(5.0)
        assert not leaked.is_alive()


# ----------------------------------------------------------------------
# Signal handling: drain-on-SIGTERM, fail-fast when wedged
# ----------------------------------------------------------------------
_SERVE_CHILD = """
import sys
import threading
from repro import faults
from repro.api import scenario_for
from repro.serve import ThermalServer

faults.load_from_env()
scenario = scenario_for("a", scale="test")
scenario.training.iterations = 5
server = ThermalServer(cache_dir=sys.argv[1], port=0,
                       watchdog_timeout=WATCHDOG)
server.start()
server.warm_start([scenario])
print(f"PORT {server.port}", flush=True)
sys.exit(server.serve_forever())
"""


class TestSignalHandling:
    def _start_server(self, tmp_path, watchdog, plan):
        child = _run_child(
            _SERVE_CHILD
            .replace("sys.argv[1]", repr(str(tmp_path / "reg")))
            .replace("WATCHDOG", watchdog),
            tmp_path, "serve_child.py",
            env_extra={faults.ENV_VAR: plan.to_json()},
        )
        port = None
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            line = child.stdout.readline()
            if not line:
                break
            if line.startswith("PORT "):
                port = int(line.split()[1])
                break
        if port is None:
            child.kill()
            pytest.fail("serve child never reported its port")
        return child, port

    def _sampled_designs(self, tmp_path):
        scn = _tiny()
        with ThermalService(cache_dir=tmp_path / "reg") as reference:
            return scn, _designs(reference, scn, 2)

    def test_sigterm_mid_request_drains_and_exits_zero(self, tmp_path):
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="serve.compute", action="delay",
                             delay_seconds=1.5,
                             match={"op": "predict"}, times=1),
        ])
        child, port = self._start_server(tmp_path, "None", plan)
        try:
            scn, designs = self._sampled_designs(tmp_path)
            answered = {}

            def request():
                with ThermalClient(port=port, max_retries=0) as client:
                    answered["fields"] = client.predict(scn, designs)

            thread = threading.Thread(target=request)
            thread.start()
            time.sleep(0.5)  # the delayed predict is now in flight
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=60)
            thread.join(30.0)
        finally:
            if child.poll() is None:
                child.kill()
        # Drained: the in-flight request was answered, then exit 0.
        assert child.returncode == 0, out
        assert "fields" in answered

    def test_sigterm_with_wedged_compute_exits_nonzero(self, tmp_path):
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site="serve.compute", action="delay",
                             delay_seconds=12.0,
                             match={"op": "predict"}, times=1),
        ])
        child, port = self._start_server(tmp_path, "0.5", plan)
        try:
            scn, designs = self._sampled_designs(tmp_path)

            def request():
                try:
                    with ThermalClient(port=port, max_retries=0) as client:
                        client.predict(scn, designs)
                except ServerError:
                    pass  # the watchdog fails it — expected

            thread = threading.Thread(target=request, daemon=True)
            thread.start()
            time.sleep(0.3)  # the wedged predict is now in flight
            child.send_signal(signal.SIGTERM)
            start = time.perf_counter()
            out, _ = child.communicate(timeout=60)
            elapsed = time.perf_counter() - start
        finally:
            if child.poll() is None:
                child.kill()
        # Exit nonzero (watchdog verdict), well inside the 12 s wedge:
        # the close path must not wait out the stuck dispatch.
        assert child.returncode == 2, out
        assert elapsed < 8.0
