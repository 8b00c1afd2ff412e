"""Serving daemon: protocol, micro-batcher, end-to-end socket parity.

The contract under test (ISSUE 7):

* the newline-JSON protocol round-trips floats exactly, so responses
  fetched through a real socket are *bitwise* equal to in-process
  serial ``ThermalService`` calls — including when N concurrent clients
  with mixed digests and grids get fused into shared merge dgemms;
* the queue is bounded: overflow answers ``overloaded`` with a
  ``retry_after`` hint (and the client's retry loop absorbs it), never
  unbounded buffering;
* byte-budgeted caches evict under pressure without changing results;
* shutdown drains in-flight work and flushes every response;
  ``close()`` is idempotent on daemon and service alike.
"""

import io
import json
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.api import ThermalService, scenario_for
from repro.serve import (
    MAX_LINE_BYTES,
    MicroBatcher,
    ProtocolError,
    QueuedRequest,
    ServerError,
    ThermalClient,
    ThermalServer,
    decode_frame,
    encode_frame,
    fuse_key_for,
    ok_response,
    read_frame,
)
from repro.serve.protocol import json_default, read_message

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _tiny(family: str = "a"):
    scenario = scenario_for(family, scale="test")
    scenario.training.iterations = 5
    return scenario


def _designs(service, scenario, n, seed=0):
    raws = service.sample_designs(scenario, n, seed=seed)
    return [{name: batch[index] for name, batch in raws.items()}
            for index in range(n)]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
#: floats at the edges of float64: signed zero, the smallest subnormal,
#: the largest finite value and the non-finite ones.
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf")]


def _oracle_jsonable(value):
    """Reference conversion: numpy values to builtins, recursively."""
    if isinstance(value, dict):
        return {str(k): _oracle_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _oracle_jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _oracle_frame(message) -> bytes:
    return (json.dumps(_oracle_jsonable(message), separators=(",", ":"))
            + "\n").encode()


def _array_frame(descriptors, payload: bytes, declared=None) -> bytes:
    """A hand-built array frame: ``{"a0": d0, ...}`` over ``payload``."""
    header = json.dumps({f"a{i}": {"__ndarray__": "<f8", **d}
                         for i, d in enumerate(descriptors)})
    size = len(payload) if declared is None else declared
    return b"#%d %s\n" % (size, header.encode()) + payload


#: array frames the decoder must refuse, by what is wrong with them.
MALFORMED_ARRAY_FRAMES = {
    "unknown_dtype": _array_frame(
        [{"shape": [2], "offset": 0, "nbytes": 16}], bytes(16)
    ).replace(b"<f8", b"<f4"),
    "shape_vs_nbytes": _array_frame(
        [{"shape": [3], "offset": 0, "nbytes": 16}], bytes(16)),
    "overlap": _array_frame(
        [{"shape": [2], "offset": 0, "nbytes": 16},
         {"shape": [2], "offset": 8, "nbytes": 16}], bytes(24)),
    "gap": _array_frame(
        [{"shape": [1], "offset": 8, "nbytes": 8}], bytes(16)),
    "out_of_range": _array_frame(
        [{"shape": [2], "offset": 0, "nbytes": 16}], bytes(8)),
    "negative_offset": _array_frame(
        [{"shape": [1], "offset": -8, "nbytes": 8}], bytes(8)),
    "unclaimed_bytes": _array_frame(
        [{"shape": [1], "offset": 0, "nbytes": 8}], bytes(16)),
    "oversized_payload": _array_frame(
        [], b"", declared=MAX_LINE_BYTES + 1),
    "cut_short": _array_frame(
        [{"shape": [4], "offset": 0, "nbytes": 32}], bytes(32),
        declared=64),
    "bad_length": b"#12x {}\n",
}


class TestProtocol:
    def test_roundtrip_is_bitwise_for_floats(self):
        rng = np.random.default_rng(0)
        field = rng.standard_normal((3, 17)) * 300.0
        field[0, :len(EDGE_FLOATS)] = EDGE_FLOATS
        frame = encode_frame({"id": 1, "ok": True,
                              "result": {"fields": field}})
        decoded = decode_frame(frame.rstrip(b"\n"))
        restored = np.asarray(decoded["result"]["fields"], dtype=np.float64)
        # exact, not approx; NaN compares equal to NaN only here
        assert np.array_equal(restored, field, equal_nan=True)
        assert np.array_equal(np.signbit(restored), np.signbit(field))
        assert np.signbit(restored[0, 0]) and restored[0, 0] == 0.0
        assert restored[0, 1] == 5e-324
        assert restored[0, 2] == np.finfo(np.float64).max

    def test_frames_match_oracle_on_edge_cases(self):
        edge = np.array(EDGE_FLOATS)
        messages = [
            {"f32": np.float32(0.1), "f64": np.float64(-0.0),
             "i64": np.int64(-(2 ** 62)), "u8": np.uint8(255),
             "yes": np.bool_(True), "no": np.bool_(False)},
            {"scalar0d": np.array(2.5), "int0d": np.array(7),
             "bool0d": np.array(True), "f32_0d": np.array(0.1, np.float32)},
            {"tuple": (1, 2.5, (np.float64(3.0), "x")),
             "nested": [np.arange(3), [np.eye(2)], {"k": np.ones(2, bool)}],
             "empty": np.zeros((0, 3))},
            {"edge": edge, "edge_list": EDGE_FLOATS,
             "edge_f32": np.array([-0.0, 1e-45, np.finfo(np.float32).max,
                                   np.nan, np.inf, -np.inf], np.float32),
             "edge_scalars": [np.float64(v) for v in EDGE_FLOATS]},
            {"id": None, "ok": True, "text": "héllo \u2603", "n": 10 ** 20,
             "field": np.random.default_rng(1).standard_normal((4, 9))},
        ]
        for message in messages:
            assert encode_frame(message) == _oracle_frame(message)

    def test_default_hook_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="object"):
            encode_frame({"result": object()})
        with pytest.raises(TypeError, match="complex"):
            json_default(np.complex128(1j))

    def test_read_frame_eof_and_unterminated(self):
        assert read_frame(io.BytesIO(b"")) is None
        assert read_frame(io.BytesIO(b'{"op":"ping"}\n')) == {"op": "ping"}
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b'{"op":"ping"}'))  # no newline

    def test_rejects_non_object_and_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_frame(b"{not json")

    def test_array_frame_roundtrip_is_exact(self):
        edge = np.array(EDGE_FLOATS)
        big_endian = np.arange(6.0).reshape(2, 3).astype(">f8")
        strided = np.arange(24.0).reshape(4, 6)[::2, 1::2]
        message = {"id": 3, "edge": edge, "scalar0d": np.array(-0.0),
                   "strided": strided, "big_endian": big_endian,
                   "empty": np.zeros((0, 3)),
                   "nested": [{"inner": edge[::-1]}, 2.5],
                   "ints": np.arange(3), "f32": np.float32(0.5)}
        frame = encode_frame(message, binary=True)
        assert frame.startswith(b"#")
        decoded, binary = read_message(io.BytesIO(frame))
        assert binary
        for key in ("edge", "scalar0d", "strided", "big_endian", "empty"):
            restored = decoded[key]
            assert restored.dtype == np.float64 and restored.flags.writeable
            assert restored.shape == message[key].shape
            assert np.array_equal(restored, message[key], equal_nan=True)
            assert np.array_equal(np.signbit(restored),
                                  np.signbit(message[key]))
        restored = decoded["edge"]
        assert restored[1] == 5e-324
        assert restored[2] == np.finfo(np.float64).max
        assert np.signbit(decoded["scalar0d"])
        assert np.array_equal(decoded["nested"][0]["inner"], edge[::-1],
                              equal_nan=True)
        restored[0] = 1.0  # the caller owns a writable array
        # non-float64 values are encoded exactly as in a JSON frame
        assert decoded["ints"] == [0, 1, 2] and decoded["f32"] == 0.5
        assert decoded["nested"][1] == 2.5 and decoded["id"] == 3

    def test_array_frame_without_arrays(self):
        message = {"id": "x", "op": "ping", "values": [1.5, -0.0]}
        frame = encode_frame(message, binary=True)
        assert frame == b"#0 " + encode_frame(message)
        assert read_message(io.BytesIO(frame)) == (message, True)
        assert read_message(io.BytesIO(encode_frame(message))) == (
            message, False)

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARRAY_FRAMES))
    def test_malformed_array_frames_raise(self, case):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(MALFORMED_ARRAY_FRAMES[case]))

    def test_fuse_key_binds_identity(self):
        base = fuse_key_for("predict", "d" * 16, None)
        assert base == fuse_key_for("predict", "d" * 16, None)
        assert base != fuse_key_for("solve", "d" * 16, None)
        assert base != fuse_key_for("predict", "e" * 16, None)
        assert base != fuse_key_for("predict", "d" * 16, (8, 8, 4))
        assert base != fuse_key_for("predict", "d" * 16, None, t=0.5)
        assert (fuse_key_for("rollout", "d" * 16, None, times=[0.1, 0.2])
                != fuse_key_for("rollout", "d" * 16, None, times=[0.1]))


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
def _request(key, rid=0):
    return QueuedRequest(request_id=rid, op="predict", fuse_key=key,
                         payload={})


def _hold_dispatcher(batcher):
    """Park the dispatcher on a blocker request; returns ``release()``.

    Everything submitted while it is held queues behind the blocker, so
    the dispatches after ``release()`` see that whole backlog at once:
    fusion is decided by the queue's contents, not by timing.
    """
    holding, release = threading.Event(), threading.Event()
    execute = batcher.execute

    def gated(group):
        if group[0].request_id != "__block__":
            return execute(group)
        holding.set()
        release.wait(30.0)
        for request in group:
            request.resolve({"id": request.request_id, "ok": True})

    batcher.execute = gated
    assert batcher.submit(_request(("__block__",), "__block__"))
    assert holding.wait(10.0)
    return release.set


def _wait_depth(batcher, depth):
    """Block until ``depth`` requests are queued behind a held dispatcher."""
    deadline = time.monotonic() + 60
    while batcher.depth() < depth:
        assert time.monotonic() < deadline, "requests never reached the queue"
        time.sleep(0.005)


class TestMicroBatcher:
    @staticmethod
    def _recording():
        groups = []

        def execute(group):
            groups.append([r.request_id for r in group])
            for r in group:
                r.resolve({"ok": True, "id": r.request_id})

        return groups, execute

    def _run_backlog(self, requests, max_batch):
        """Queue ``requests`` behind a held dispatcher, release, drain."""
        groups, execute = self._recording()
        batcher = MicroBatcher(execute, max_batch=max_batch)
        release = _hold_dispatcher(batcher)
        for r in requests:
            assert batcher.submit(r)
        release()
        for r in requests:
            assert r.event.wait(5.0)
        batcher.close()
        return groups, batcher.stats()

    def test_same_key_requests_fuse(self):
        key = ("predict", "aa", ("eval",))
        groups, stats = self._run_backlog(
            [_request(key, i) for i in range(4)], max_batch=8)
        assert groups == [[0, 1, 2, 3]]  # one fused dispatch
        assert stats["fused_requests"] == 4
        assert stats["max_batch_seen"] == 4
        assert stats["dispatched_batches"] == 2  # blocker + the group

    def test_mixed_keys_split_but_preserve_order(self):
        requests = [_request(("a",), 0), _request(("b",), 1),
                    _request(("a",), 2), _request(("b",), 3)]
        groups, stats = self._run_backlog(requests, max_batch=8)
        # the head picks the key; other keys keep their arrival order
        assert groups == [[0, 2], [1, 3]]
        assert stats["fused_requests"] == 4

    def test_max_batch_caps_group_size(self):
        groups, stats = self._run_backlog(
            [_request(("k",), i) for i in range(5)], max_batch=2)
        assert groups == [[0, 1], [2, 3], [4]]
        assert stats["fused_requests"] == 4
        assert stats["max_batch_seen"] == 2

    def test_bounded_queue_rejects_overflow(self):
        release = threading.Event()

        def execute(group):
            release.wait(10.0)
            for r in group:
                r.resolve({"ok": True})

        batcher = MicroBatcher(execute, max_batch=1, queue_depth=2)
        accepted = [_request(("k",), i) for i in range(8)]
        verdicts = [batcher.submit(r) for r in accepted]
        # first goes straight to the dispatcher, two queue, rest refuse
        assert verdicts.count(True) >= 2
        assert verdicts.count(False) >= 1
        assert batcher.stats()["rejected"] >= 1
        release.set()
        batcher.close()

    def test_close_without_drain_fails_pending(self):
        release = threading.Event()

        def execute(group):
            release.wait(10.0)
            for r in group:
                r.resolve({"ok": True})

        batcher = MicroBatcher(execute, max_batch=1, queue_depth=8)
        requests = [_request(("k",), i) for i in range(4)]
        for r in requests:
            assert batcher.submit(r)
        time.sleep(0.05)  # let the dispatcher take the head request
        release.set()
        batcher.close(drain=False)
        assert not batcher.submit(_request(("k",), 99))  # closed
        for r in requests:
            assert r.event.wait(5.0)
            assert r.response is not None
        codes = {r.response.get("error", {}).get("code") for r in requests}
        assert "shutting_down" in codes or all(
            r.response.get("ok") for r in requests
        )

    def test_buggy_executor_never_strands_clients(self):
        def execute(group):
            raise RuntimeError("boom")

        batcher = MicroBatcher(execute, max_batch=4)
        request = _request(("k",), 0)
        assert batcher.submit(request)
        assert request.event.wait(5.0)
        assert request.response["ok"] is False
        batcher.close()

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda g: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda g: None, queue_depth=0)


# ----------------------------------------------------------------------
# Daemon end-to-end (real sockets)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory):
    """Pre-trained registry shared by every daemon in this module."""
    root = tmp_path_factory.mktemp("serve_registry")
    with ThermalService(cache_dir=root) as service:
        for family in ("a", "b", "transient"):
            service.train(_tiny(family))
    return root


class TestDaemonEndToEnd:
    def test_concurrent_mixed_traffic_is_bitwise_serial(self, registry_dir):
        """N clients, mixed digests+grids, fused answers == serial answers."""
        scn_a, scn_b = _tiny("a"), _tiny("b")
        with ThermalService(cache_dir=registry_dir) as reference, \
                ThermalServer(cache_dir=registry_dir) as server:
            designs_a = _designs(reference, scn_a, 6, seed=1)
            designs_b = _designs(reference, scn_b, 4, seed=2)
            expected = {
                "a-eval": reference.predict(scn_a, designs_a).fields,
                "a-grid": reference.predict(scn_a, designs_a,
                                            grid_shape=(7, 7, 4)).fields,
                "b-eval": reference.predict(scn_b, designs_b).fields,
            }

            jobs = [
                ("a-eval", scn_a, designs_a[0:2], None),
                ("a-eval", scn_a, designs_a[2:4], None),
                ("a-eval", scn_a, designs_a[4:6], None),
                ("a-grid", scn_a, designs_a[0:3], (7, 7, 4)),
                ("b-eval", scn_b, designs_b[0:2], None),
                ("b-eval", scn_b, designs_b[2:4], None),
            ]
            slices = {"a-eval": [(0, 2), (2, 4), (4, 6)],
                      "a-grid": [(0, 3)],
                      "b-eval": [(0, 2), (2, 4)]}
            results = [None] * len(jobs)

            def worker(index, scenario, designs, grid_shape):
                with ThermalClient(port=server.port) as client:
                    results[index] = client.predict(
                        scenario, designs, grid_shape=grid_shape
                    )

            threads = [
                threading.Thread(target=worker, args=(i, scn, d, g))
                for i, (_, scn, d, g) in enumerate(jobs)
            ]
            release = _hold_dispatcher(server.batcher)
            for thread in threads:
                thread.start()
            _wait_depth(server.batcher, len(jobs))
            release()
            for thread in threads:
                thread.join(timeout=120)

            cursor = {key: 0 for key in slices}
            for (key, _, _, _), result in zip(jobs, results):
                lo, hi = slices[key][cursor[key]]
                cursor[key] += 1
                assert np.array_equal(result["fields"], expected[key][lo:hi])
                assert np.array_equal(result["peaks"],
                                      expected[key][lo:hi].max(axis=1))
                # each fuse key's whole backlog rode one dispatch
                assert result["batch"]["requests"] == len(slices[key])
            queue = server.stats()["queue"]
            assert queue["dispatched_requests"] == len(jobs) + 1  # + blocker
            assert queue["dispatched_batches"] == len(slices) + 1
            assert queue["fused_requests"] == 5  # 3 a-eval + 2 b-eval

    def test_transient_predict_and_rollout_parity(self, registry_dir):
        scn = _tiny("transient")
        with ThermalService(cache_dir=registry_dir) as reference, \
                ThermalServer(cache_dir=registry_dir) as server:
            designs = _designs(reference, scn, 3, seed=4)
            times = np.linspace(0.0, scn.transient.horizon, 4)
            expected = reference.rollout(scn, designs, times)
            instant = reference.predict(scn, designs,
                                        t=float(times[1])).fields

            with ThermalClient(port=server.port) as client:
                rollout = client.rollout(scn, designs,
                                         times=[float(v) for v in times])
                predict = client.predict(scn, designs, t=float(times[1]))
            assert np.array_equal(rollout["fields"], expected.fields)
            assert np.array_equal(rollout["peak_traces"],
                                  expected.peak_traces)
            assert np.array_equal(predict["fields"], instant)

    def test_solve_fuses_and_matches_serial(self, registry_dir):
        scn = _tiny("a")
        with ThermalService(cache_dir=registry_dir) as reference, \
                ThermalServer(cache_dir=registry_dir) as server:
            designs = _designs(reference, scn, 4, seed=5)
            expected = reference.solve(scn, designs=designs)
            results = [None, None]

            def worker(index):
                with ThermalClient(port=server.port) as client:
                    results[index] = client.solve(
                        scn, designs[2 * index:2 * index + 2]
                    )

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(2)]
            release = _hold_dispatcher(server.batcher)
            for thread in threads:
                thread.start()
            _wait_depth(server.batcher, 2)
            release()
            for thread in threads:
                thread.join(timeout=120)
            assert server.stats()["queue"]["fused_requests"] == 2
            for index, result in enumerate(results):
                assert result["batch"]["requests"] == 2
                lo = 2 * index
                assert np.array_equal(result["fields"],
                                      expected.fields[lo:lo + 2])
                assert np.array_equal(result["peaks"],
                                      expected.peaks[lo:lo + 2])
                assert np.array_equal(result["energy_imbalance"],
                                      expected.energy_imbalance[lo:lo + 2])

    def test_eviction_pressure_does_not_change_answers(self, registry_dir):
        """A ~1-entry byte budget forces constant evictions; answers hold."""
        scn = _tiny("a")
        with ThermalService(cache_dir=registry_dir) as reference, \
                ThermalServer(cache_dir=registry_dir,
                              memory_budget=64 * 1024) as server:
            designs = _designs(reference, scn, 2, seed=6)
            grids = [None, (6, 6, 4), (7, 7, 4), None, (6, 6, 4)]
            expected = [
                reference.predict(scn, designs, grid_shape=grid).fields
                for grid in grids
            ]
            with ThermalClient(port=server.port) as client:
                for grid, fields in zip(grids, expected):
                    result = client.predict(scn, designs, grid_shape=grid)
                    assert np.array_equal(result["fields"], fields)
                stats = client.stats()
            trunk = stats["caches"]["trunk"]
            assert trunk["evictions"] > 0
            assert trunk["max_bytes"] == 32 * 1024  # half the budget

    def test_backpressure_rejects_then_client_retries(self, registry_dir):
        scn = _tiny("a")
        with ThermalServer(cache_dir=registry_dir, max_batch=1,
                           queue_depth=1) as server:
            server.warm_start([scn])
            with ThermalService(cache_dir=registry_dir) as reference:
                designs = _designs(reference, scn, 2, seed=7)
                expected = reference.predict(scn, designs).fields

            # hold the dispatcher hostage so the queue backs up
            release = threading.Event()
            blocker = QueuedRequest(
                request_id="block", op="predict",
                fuse_key=("__block__",), payload={},
            )
            original = server._execute_group

            def gated(group):
                if group and group[0].request_id == "block":
                    release.wait(10.0)
                    for request in group:
                        request.resolve({"id": request.request_id,
                                         "ok": True, "result": {}})
                    return
                original(group)

            server.batcher.execute = gated
            assert server.batcher.submit(blocker)
            filler = QueuedRequest(request_id="fill", op="predict",
                                   fuse_key=("__block__",), payload={})
            time.sleep(0.05)  # dispatcher now holds the blocker
            assert server.batcher.submit(filler)  # fills the queue

            rejected = {}

            def raw_reject():
                import socket as socket_mod

                from repro.serve.protocol import encode_frame as enc
                from repro.serve.protocol import read_frame as rf
                with socket_mod.create_connection(
                        ("127.0.0.1", server.port), timeout=30) as sock:
                    sock.sendall(enc({
                        "id": "r", "op": "predict",
                        "scenario": scn.to_dict(),
                        "designs": [
                            {k: (v.tolist() if isinstance(v, np.ndarray)
                                 else v) for k, v in designs[0].items()}
                        ],
                    }))
                    rejected.update(rf(sock.makefile("rb")))

            raw_reject()
            assert rejected["ok"] is False
            assert rejected["error"]["code"] == "overloaded"
            assert rejected["error"]["retry_after"] > 0

            # releasing the dispatcher lets the client retry loop win
            def release_soon():
                time.sleep(0.2)
                release.set()

            threading.Thread(target=release_soon, daemon=True).start()
            with ThermalClient(port=server.port, max_retries=50) as client:
                result = client.predict(scn, designs)
            assert np.array_equal(result["fields"], expected)
            assert server.batcher.stats()["rejected"] >= 1

    def test_bad_requests_answer_bad_request(self, registry_dir):
        scn = _tiny("a")
        with ThermalServer(cache_dir=registry_dir) as server:
            server.warm_start([scn])
            with ThermalClient(port=server.port) as client:
                with pytest.raises(ServerError) as info:
                    client._call({"op": "predict", "scenario": "nope",
                                  "designs": []})
                assert info.value.code == "bad_request"
                with pytest.raises(ServerError) as info:
                    client._call({"op": "warp", "scenario": scn.to_dict()})
                assert info.value.code == "bad_request"
                with pytest.raises(ServerError) as info:
                    client.predict(scn, [{"power_map": "NaN soup"}])
                assert info.value.code == "bad_request"
                # steady scenario refuses an instant
                with pytest.raises(ServerError) as info:
                    client.predict(scn, _designs_inline(scn), t=0.5)
                assert info.value.code == "bad_request"

    def test_non_finite_spec_answers_bad_request(self, registry_dir):
        # The wire is JSON with NaN allowed; the spec parser rejects it.
        raw = _tiny("a").to_dict()
        raw["material"]["conductivity"] = float("nan")
        with ThermalServer(cache_dir=registry_dir) as server:
            with ThermalClient(port=server.port) as client:
                with pytest.raises(ServerError) as info:
                    client._call({"op": "predict", "scenario": raw,
                                  "designs": []})
        assert info.value.code == "bad_request"
        assert ("material.conductivity: expected a finite number, got nan"
                in str(info.value))

    def test_malformed_frame_gets_error_not_hang(self, registry_dir):
        import socket as socket_mod

        with ThermalServer(cache_dir=registry_dir) as server:
            with socket_mod.create_connection(
                    ("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(b"this is not json\n")
                response = json.loads(sock.makefile("rb").readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"

    def test_malformed_array_frames_answer_bad_request_and_close(
            self, registry_dir):
        import socket as socket_mod

        cases = {**MALFORMED_ARRAY_FRAMES,
                 "unterminated_json": b'{"op":"ping"}'}
        with ThermalServer(cache_dir=registry_dir) as server:
            for case, frame in sorted(cases.items()):
                with socket_mod.create_connection(
                        ("127.0.0.1", server.port), timeout=30) as sock:
                    sock.sendall(frame)
                    sock.shutdown(socket_mod.SHUT_WR)  # a cut is a hang-up
                    stream = sock.makefile("rb")
                    line = stream.readline()
                    assert stream.read() == b"", case  # connection closed
                response = json.loads(line)
                assert response["ok"] is False, case
                assert response["error"]["code"] == "bad_request", case

    def test_json_request_gets_json_answer(self, registry_dir):
        """A newline-JSON peer (nc, scripts) is answered with a JSON line."""
        import socket as socket_mod

        scn = _tiny("a")
        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, 2, seed=15)
            expected = reference.predict(scn, designs).fields
        with ThermalServer(cache_dir=registry_dir) as server:
            with socket_mod.create_connection(
                    ("127.0.0.1", server.port), timeout=60) as sock:
                sock.sendall(encode_frame({"id": 7, "op": "predict",
                                           "scenario": scn.to_dict(),
                                           "designs": designs}))
                line = sock.makefile("rb").readline()
            with ThermalClient(port=server.port) as client:
                binary = client.predict(scn, designs)
        assert line.startswith(b"{") and line.endswith(b"\n")
        answer = json.loads(line)
        assert answer["ok"] is True and answer["id"] == 7
        assert np.array_equal(np.asarray(answer["result"]["fields"]), expected)
        assert np.array_equal(binary["fields"], expected)

    def test_spec_carrying_arrays_reads_as_lists(self, registry_dir):
        """An array frame may carry ndarrays inside the spec dict itself."""
        scn = _tiny("a")
        raw = scn.to_dict()
        raw["geometry"]["size_mm"] = np.asarray(raw["geometry"]["size_mm"])
        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, 1, seed=17)
            expected = reference.predict(scn, designs).fields
        with ThermalServer(cache_dir=registry_dir) as server, \
                ThermalClient(port=server.port) as client:
            result = client.predict(raw, designs)
        assert result["digest"] == scn.content_digest()
        assert np.array_equal(result["fields"], expected)

    def test_fused_answers_within_tolerance_of_serial(self, registry_dir):
        """8 requests x 4 designs fuse; each is <= 1e-8 K off serial.

        A taller merge dgemm may be blocked differently by BLAS, so a
        fused answer can differ from serial in the last bits; an
        unfused answer is the same dgemm and stays bitwise.
        """
        scn = _tiny("a")
        n_requests, per_request = 8, 4
        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, n_requests * per_request,
                               seed=16)
            chunks = [designs[i * per_request:(i + 1) * per_request]
                      for i in range(n_requests)]
            expected = [reference.predict(scn, chunk).fields
                        for chunk in chunks]
        with ThermalServer(cache_dir=registry_dir) as server:
            server.warm_start([scn])
            results = [None] * n_requests

            def worker(index):
                with ThermalClient(port=server.port) as client:
                    results[index] = client.predict(scn, chunks[index])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_requests)]
            release = _hold_dispatcher(server.batcher)
            for thread in threads:
                thread.start()
            _wait_depth(server.batcher, n_requests)
            release()
            for thread in threads:
                thread.join(timeout=120)
            with ThermalClient(port=server.port) as client:
                alone = client.predict(scn, chunks[0])
        for result, fields in zip(results, expected):
            assert result["batch"]["requests"] == n_requests
            assert np.max(np.abs(result["fields"] - fields)) <= 1e-8
            assert np.array_equal(result["peaks"],
                                  result["fields"].max(axis=1))
        assert alone["batch"]["fused"] is False
        assert np.array_equal(alone["fields"], expected[0])

    def test_shutdown_op_drains_and_closes(self, registry_dir):
        scn = _tiny("a")
        server = ThermalServer(cache_dir=registry_dir)
        server.start()
        server.warm_start([scn])
        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, 2, seed=9)
            expected = reference.predict(scn, designs).fields
        with ThermalClient(port=server.port) as client:
            result = client.predict(scn, designs)
            assert np.array_equal(result["fields"], expected)
            ack = client.shutdown()
            assert ack["draining"] is True
        deadline = time.monotonic() + 30
        while not server._closed and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server._closed
        server.close()  # idempotent

    def test_ping_and_stats_shapes(self, registry_dir):
        with ThermalServer(cache_dir=registry_dir) as server:
            with ThermalClient(port=server.port) as client:
                pong = client.ping()
                assert pong["pong"] is True
                stats = client.stats()
            assert stats["queue"]["queue_depth"] == 128
            assert "trunk" in stats["caches"]
            assert stats["draining"] is False

    def test_health_key_set_is_pinned(self, registry_dir):
        # Supervisors parse this payload: adding or dropping a key must
        # be a deliberate change to this list.
        with ThermalServer(cache_dir=registry_dir) as server:
            with ThermalClient(port=server.port) as client:
                health = client.health()
        assert set(health) == {
            "status", "ready", "live", "queue_depth", "busy_seconds",
            "watchdog_timeout", "cache_bytes", "uptime_seconds",
        }

    def test_live_frames_match_recursive_oracle(self, registry_dir,
                                                family_registry):
        """Every frame the daemon sends equals the recursive reference."""
        scn, transient = _tiny("a"), _tiny("transient")
        family = _serve_family()
        member = family.holdout(0)
        responses = []

        def record(server):
            handle = server._handle_message

            def recording(message):
                response = handle(message)
                responses.append(response)
                return response

            server._handle_message = recording

        def expect_code(code, call, *args, **kwargs):
            with pytest.raises(ServerError) as info:
                call(*args, **kwargs)
            assert info.value.code == code

        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, 2, seed=11)
            transient_designs = _designs(reference, transient, 2, seed=12)
        with ThermalServer(cache_dir=registry_dir, queue_depth=1) as server:
            record(server)
            with ThermalClient(port=server.port, max_retries=0) as client:
                client.predict(scn, designs)
                client.predict(scn, designs, return_fields=False)
                client.predict(transient, transient_designs, t=0.0)
                client.rollout(transient, transient_designs,
                               times=[0.0, transient.transient.horizon])
                client.solve(scn, designs[:1])
                client.stats()
                client.health()
                client.ping()
                expect_code("bad_request", client._call, {"op": "warp"})

                def boom(group):
                    raise RuntimeError("injected runner failure")

                run_solve = server._runners["solve"]
                server._runners["solve"] = boom
                expect_code("error", client.solve, scn, designs[:1])
                server._runners["solve"] = run_solve

                # A slow dispatch holds the compute thread: the next
                # request waits in the one-slot queue past its deadline
                # and the one after it finds the queue full.
                faults.arm(faults.FaultPlan(rules=[
                    faults.FaultRule(site="serve.compute", action="delay",
                                     delay_seconds=1.0,
                                     match={"op": "predict"}, times=1),
                ]))
                try:
                    late = {}

                    def send(**kwargs):
                        with ThermalClient(port=server.port,
                                           max_retries=0) as other:
                            try:
                                other.predict(scn, designs, **kwargs)
                            except ServerError as exc:
                                late["code"] = exc.code

                    def wait_until(condition):
                        deadline = time.monotonic() + 30
                        while not condition():
                            assert time.monotonic() < deadline
                            time.sleep(0.01)

                    blocker = threading.Thread(target=send)
                    blocker.start()
                    wait_until(lambda: server.batcher.busy_seconds() > 0)
                    waiter = threading.Thread(target=send,
                                              kwargs={"timeout_ms": 50})
                    waiter.start()
                    wait_until(lambda: server.batcher.depth() == 1)
                    expect_code("overloaded", client.predict, scn, designs)
                    blocker.join(30.0)
                    waiter.join(30.0)
                    assert not (blocker.is_alive() or waiter.is_alive())
                    assert late == {"code": "deadline_exceeded"}
                finally:
                    faults.disarm()

                server._draining.set()
                expect_code("shutting_down", client.predict, scn, designs)

        with ThermalService(cache_dir=family_registry) as reference:
            member_designs = _designs(reference, member, 2, seed=13)
        with ThermalServer(cache_dir=family_registry) as server:
            record(server)
            with ThermalClient(port=server.port) as client:
                assert "family" in client.predict(member, member_designs)

        codes = {r["error"]["code"] for r in responses if not r["ok"]}
        assert codes == {"bad_request", "error", "overloaded",
                         "deadline_exceeded", "shutting_down"}
        assert len(responses) == 15
        for response in responses:
            assert encode_frame(response) == _oracle_frame(response)

    def test_unencodable_result_answers_error(self, registry_dir):
        """A result the wire cannot carry fails alone; the socket lives."""
        scn = _tiny("a")
        with ThermalService(cache_dir=registry_dir) as reference:
            designs = _designs(reference, scn, 1, seed=14)
            expected = reference.predict(scn, designs).fields
        with ThermalServer(cache_dir=registry_dir) as server:
            run_predict = server._runners["predict"]

            def poisoned(group):
                for request in group:
                    request.resolve(ok_response(request.request_id,
                                                {"opaque": object()}))

            server._runners["predict"] = poisoned
            with ThermalClient(port=server.port, max_retries=0) as client:
                with pytest.raises(ServerError) as info:
                    client.predict(scn, designs)
                assert info.value.code == "error"
                assert "object" in str(info.value)
                sock = client._sock
                server._runners["predict"] = run_predict
                result = client.predict(scn, designs)
                assert client._sock is sock  # same connection, no reconnect
            assert np.array_equal(result["fields"], expected)


def _designs_inline(scenario):
    with ThermalService() as service:
        return _designs(service, scenario, 1, seed=0)


# ----------------------------------------------------------------------
# Context managers / idempotent teardown (satellite 1)
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_service_context_manager_closes_once(self, tmp_path):
        service = ThermalService(cache_dir=tmp_path, memory_budget=64 * 1024 * 1024)
        farm = service.farm
        assert farm is not service  # private farm, not the default
        assert service._owns_farm
        service.close()
        assert service._farm is None
        service.close()  # second close is a no-op, not an error

    def test_service_with_block(self, tmp_path):
        with ThermalService(cache_dir=tmp_path) as service:
            scn = _tiny("a")
            service.train(scn)
            service.predict(scn, _designs(service, scn, 1))
        assert service._trunk_cache.cache_stats()["entries"] == 0

    def test_shared_farm_is_left_alone(self, tmp_path):
        from repro.fdm import get_default_farm

        with ThermalService(cache_dir=tmp_path) as service:
            assert service.farm is get_default_farm()
        # closing the service must not null the process-wide farm
        assert get_default_farm() is not None

    def test_server_close_idempotent_and_reports(self, registry_dir):
        server = ThermalServer(cache_dir=registry_dir)
        server.start()
        server.close()
        server.close()
        assert repr(server).endswith("closed)")

    def test_closed_service_lazily_rebuilds(self, tmp_path):
        service = ThermalService(cache_dir=tmp_path, memory_budget=64 * 1024 * 1024)
        _ = service.farm
        service.close()
        rebuilt = service.farm  # usable again after close
        assert rebuilt is not None
        service.close()  # and tears down again
        assert service._farm is None


# ----------------------------------------------------------------------
# Byte-accounted cache stats (satellite 2)
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_trunk_cache_counts_bytes_and_evicts(self):
        from repro.engine.surrogate import TrunkFeatureCache

        cache = TrunkFeatureCache(max_entries=8, max_bytes=2000)
        for index in range(4):
            cache.put(("k", index), np.zeros(100))  # 800 bytes each
        stats = cache.cache_stats()
        assert stats["bytes"] <= 2000
        assert stats["evictions"] >= 2
        assert stats["entries"] == stats["bytes"] // 800

    def test_trunk_cache_keeps_most_recent_oversized_entry(self):
        from repro.engine.surrogate import TrunkFeatureCache

        cache = TrunkFeatureCache(max_entries=8, max_bytes=10)
        big = np.zeros(1000)
        cache.put(("big",), big)
        assert cache.get(("big",)) is big  # never evict down to empty

    def test_farm_budget_evicts_operators(self):
        from repro.fdm import SolveFarm
        from repro.geometry import StructuredGrid, paper_chip_a

        farm = SolveFarm(max_operators=8, max_bytes=1)  # everything over
        chip = paper_chip_a()
        with ThermalService() as service:
            scn = _tiny("a")
            setup = service.setup(scn)
            model = setup.model
            design = _designs(service, scn, 1)[0]
            for shape in ((6, 6, 4), (7, 7, 4), (8, 8, 4)):
                grid = StructuredGrid(chip, shape)
                problem = model.concrete_config(design).heat_problem(grid)
                farm.solve(problem)
        stats = farm.cache_stats()
        assert stats["entries"] <= 1  # budget of 1 byte: keep newest only
        assert stats["evictions"] >= 2
        assert stats["max_bytes"] == 1

    def test_service_cache_stats_shape(self, tmp_path):
        with ThermalService(cache_dir=tmp_path,
                            memory_budget=1024 * 1024) as service:
            stats = service.cache_stats()
            assert set(stats["trunk"]) >= {"hits", "misses", "evictions",
                                           "entries", "bytes", "max_bytes"}
            assert stats["trunk"]["max_bytes"] == 512 * 1024
            scn = _tiny("a")
            service.solve(scn, n_designs=1)
            stats = service.cache_stats()
            assert stats["farm"]["max_bytes"] == 512 * 1024
            assert stats["farm"]["bytes"] > 0

    def test_frozen_nbytes_is_positive_and_additive(self, tmp_path):
        with ThermalService(cache_dir=tmp_path) as service:
            scn = _tiny("a")
            service.train(scn)
            net = service.engine(scn).net
        assert net.nbytes > 0
        assert net.nbytes >= net.trunk.nbytes + sum(
            b.nbytes for b in net.branches
        )


# ----------------------------------------------------------------------
# Family serving (ISSUE 10): cross-member fusion + warm-start fallback
# ----------------------------------------------------------------------
def _serve_family():
    base = scenario_for("b", scale="test")
    base.training.iterations = 5
    from repro.family import ScenarioFamily

    return ScenarioFamily.from_dict({
        "family_schema_version": 1,
        "name": "serve_family",
        "base": base.to_dict(),
        "axes": [
            {"kind": "htc_range", "input": "htc_top",
             "low": 333.33, "high": 1000.0, "member_width": 150.0},
            {"kind": "htc_range", "input": "htc_bottom",
             "low": 333.33, "high": 1000.0, "member_width": 150.0},
        ],
        "n_members": 2,
        "sample_seed": 7,
        "conditioning_hidden": [8],
    })


def _transient_serve_family():
    base = scenario_for("transient", scale="test")
    base.training.iterations = 3
    from repro.family import ScenarioFamily

    return ScenarioFamily.from_dict({
        "family_schema_version": 1,
        "name": "transient_serve_family",
        "base": base.to_dict(),
        "axes": [{"kind": "trace_levels", "input": "transient_power",
                  "low": 0.5, "high": 1.5}],
        "n_members": 2,
        "sample_seed": 3,
        "conditioning_hidden": [8],
    })


@pytest.fixture(scope="module")
def family_registry(tmp_path_factory):
    """Registry holding one trained tiny family (plus its spec sidecar)."""
    root = tmp_path_factory.mktemp("serve_family_registry")
    with ThermalService(cache_dir=root) as service:
        service.train_family(_serve_family())
    return root


class TestFamilyServing:
    def test_different_members_fuse_and_match_serial(self, family_registry):
        """Two held-out members share one fused batch, bitwise vs serial."""
        family = _serve_family()
        members = [family.holdout(0), family.holdout(1)]
        with ThermalService(cache_dir=family_registry) as reference, \
                ThermalServer(cache_dir=family_registry) as server:
            designs = [_designs(reference, member, 2, seed=index)
                       for index, member in enumerate(members)]
            expected = [
                reference.predict_member(family, member, member_designs,
                                         prefer_fine_tuned=False)
                for member, member_designs in zip(members, designs)
            ]
            results = [None, None]

            def worker(index):
                with ThermalClient(port=server.port) as client:
                    results[index] = client.predict(members[index],
                                                    designs[index])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(2)]
            release = _hold_dispatcher(server.batcher)
            for thread in threads:
                thread.start()
            _wait_depth(server.batcher, 2)
            release()
            for thread in threads:
                thread.join(timeout=120)

            fam_digest = family.content_digest()
            assert server.stats()["queue"]["fused_requests"] == 2
            for index, result in enumerate(results):
                assert result["family"] == fam_digest
                assert result["batch"]["fused"], \
                    "cross-member requests did not fuse into one batch"
                assert result["batch"]["requests"] == 2
                assert np.array_equal(result["fields"],
                                      expected[index].fields)
                assert np.array_equal(result["peaks"],
                                      expected[index].peaks)

    def test_exact_checkpoint_wins_over_family_route(self, family_registry):
        family = _serve_family()
        member = family.member(0)
        member.training.iterations = 3
        with ThermalService(cache_dir=family_registry) as service:
            service.train(member)
            with ThermalServer(service=service) as server:
                assert server._route_for(member) is None
                expected = service.predict(member,
                                           _designs(service, member, 1))
                with ThermalClient(port=server.port) as client:
                    result = client.predict(member,
                                            _designs(service, member, 1))
                assert "family" not in result
                assert np.array_equal(result["fields"], expected.fields)

    def test_warm_start_family_fallback_and_stats(self, family_registry):
        family = _serve_family()
        holdout = family.holdout(0)
        with ThermalServer(cache_dir=family_registry) as server:
            server.warm_start([holdout])
            stats = server.stats()
            fam16 = family.content_digest()[:16]
            assert stats["families"] == {fam16: "serve_family"}
            source = stats["boot_sources"][holdout.content_digest()[:16]]
            assert source == f"family:{fam16}"
            # The route is pinned: a served predict rides the family.
            with ThermalClient(port=server.port) as client:
                with ThermalService(cache_dir=family_registry) as reference:
                    result = client.predict(
                        holdout, _designs(reference, holdout, 1))
            assert result["family"] == family.content_digest()

    def test_family_routed_rollout_and_transient_predict(self, tmp_path):
        """A transient holdout's socket answers equal the in-process ones."""
        family = _transient_serve_family()
        holdout = family.holdout(0)
        times = [0.0, 2.0, 4.0]
        with ThermalService(cache_dir=tmp_path) as reference:
            reference.train_family(family)
            designs = _designs(reference, holdout, 2, seed=5)
            vector = family.conditioning_vector(holdout)
            conditioned = [{**design, "scenario_conditioning": vector}
                           for design in designs]
            grid = reference.family_session(family).setup.setups[0].eval_grid
            expected_rollout = reference.family_engine(family).predict_rollout(
                conditioned, np.asarray(times), grid=grid)
            expected_predict = reference.predict_member(
                family, holdout, designs, t=2.0, prefer_fine_tuned=False)
        with ThermalServer(cache_dir=tmp_path) as server:
            with ThermalClient(port=server.port) as client:
                rollout = client.rollout(holdout, designs, times)
                predict = client.predict(holdout, designs, t=2.0)
        fam_digest = family.content_digest()
        assert rollout["family"] == predict["family"] == fam_digest
        assert np.array_equal(rollout["fields"], expected_rollout)
        assert np.array_equal(rollout["peak_traces"],
                              expected_rollout.max(axis=2))
        assert np.array_equal(predict["fields"], expected_predict.fields)
        assert np.array_equal(predict["peaks"], expected_predict.peaks)

    def test_warm_start_families_boot_exactly(self, family_registry):
        family = _serve_family()
        with ThermalServer(cache_dir=family_registry) as server:
            server.warm_start([], families=[family])
            stats = server.stats()
            fam16 = family.content_digest()[:16]
            assert stats["boot_sources"][fam16] == "exact"

    @staticmethod
    def _count_digests(monkeypatch):
        """Count ``content_digest`` calls by kind from now on."""
        from repro.api import ThermalScenario
        from repro.family import ScenarioFamily

        calls = {"scenario": 0, "family": 0}
        for cls, kind in ((ThermalScenario, "scenario"),
                          (ScenarioFamily, "family")):
            def wrapped(self, digest=cls.content_digest, kind=kind):
                calls[kind] += 1
                return digest(self)

            monkeypatch.setattr(cls, "content_digest", wrapped)
        return calls

    def test_spec_digest_taken_once_per_new_spec(self, registry_dir,
                                                 family_registry,
                                                 monkeypatch):
        """Repeat served predicts reuse the digest their spec resolved to."""
        scn = _tiny("a")
        member = _serve_family().holdout(0)
        cases = [(registry_dir, scn), (family_registry, member)]
        with ThermalService() as reference:
            designs = [_designs(reference, spec, 1) for _, spec in cases]
        calls = self._count_digests(monkeypatch)
        for (registry, spec), spec_designs in zip(cases, designs):
            with ThermalServer(cache_dir=registry) as server, \
                    ThermalClient(port=server.port) as client:
                first = client.predict(spec, spec_designs)  # resolves, routes
                assert ("family" in first) == (spec is member)
                calls.update(scenario=0, family=0)
                for _ in range(10):
                    client.predict(spec, spec_designs)
                assert calls == {"scenario": 0, "family": 0}, spec.name

    def test_spec_digest_taken_once_per_served_solve(self, registry_dir,
                                                     monkeypatch):
        """Repeat served solves reuse the digest their spec resolved to."""
        scn = _tiny("a")
        with ThermalService() as reference:
            designs = _designs(reference, scn, 1)
        calls = self._count_digests(monkeypatch)
        with ThermalServer(cache_dir=registry_dir) as server, \
                ThermalClient(port=server.port) as client:
            first = client.solve(scn, designs)  # resolves the spec
            assert first["digest"] == scn.content_digest()
            calls.update(scenario=0, family=0)
            for _ in range(10):
                assert np.array_equal(client.solve(scn, designs)["fields"],
                                      first["fields"])
        assert calls == {"scenario": 0, "family": 0}
