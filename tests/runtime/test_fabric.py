"""Sweep-fabric tests: protocol, bit-identity, worker death, resume.

The load-bearing contract: a fixed-budget ``run_ensemble_reduced`` routed
through a :class:`~repro.runtime.fabric.FabricSession` returns a reducer
**bit-identical** to the serial run — regardless of fleet size, worker
placement, mid-flight worker deaths (``SIGKILL``), hung workers
(``SIGSTOP`` → lease expiry), or a whole-fabric kill resumed from parked
blocks.  Tasks live at module top level so worker subprocesses (which get
the driver's ``sys.path`` via ``PYTHONPATH``) can unpickle them.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.aggregate import StreamingScalar
from repro.analysis.precision import PrecisionTarget
from repro.core.policy import ENV_VARS, forced_policy
from repro.io.store import CheckpointSlot, ResultStore
from repro.runtime import (
    FabricSession,
    TaskError,
    current_fabric,
    run_ensemble_reduced,
)
from repro.runtime.executor import block_seed_spec
from repro.runtime.fabric.broker import Broker
from repro.runtime.fabric.protocol import (
    Wire,
    encode,
    park_fingerprint,
    park_path,
    split_lines,
    work_token,
)
from repro.runtime.fabric.worker import _pid_alive, _recv_patiently, run_worker

REPS, BLOCK = 24, 3  # 8 blocks


def scalar_block(seeds):
    """Pure block reducer: one uniform draw per repetition."""
    values = [float(np.random.default_rng(s).random()) for s in seeds]
    return StreamingScalar().update(values)


def slow_block(seeds, *, delay=0.1):
    """Same numbers as scalar_block, but slow enough to kill mid-flight."""
    time.sleep(delay)
    return scalar_block(seeds)


def suicidal_block(seeds, *, arm_dir, fuse=9):
    """SIGKILLs its own worker process on late blocks while the arm file
    exists — the whole-fabric-kill scenario.  ``arm_dir`` is part of the
    kwargs (so every attempt shares one work token); *arming* is
    out-of-band file state, so the resume attempt computes instead of
    dying.  Early blocks always complete and get parked."""
    first_rep = seeds[0].spawn_key[-1]
    if first_rep >= fuse and (Path(arm_dir) / "armed").exists():
        os.kill(os.getpid(), signal.SIGKILL)
    return scalar_block(seeds)


def failing_block(seeds):
    raise ValueError("fabric task boom")


def reference_reducer():
    return run_ensemble_reduced(scalar_block, REPS, seed=42, block_size=BLOCK)


def assert_same_reducer(a, b):
    assert a == b  # bit-exact state equality (byte-compared moments)
    agg_a, agg_b = a.aggregate(), b.aggregate()
    assert (agg_a.mean, agg_a.std, agg_a.minimum, agg_a.maximum) == (
        agg_b.mean, agg_b.std, agg_b.minimum, agg_b.maximum
    )


def wait_for_park_file(store, deadline=10.0):
    """Spin until some worker parks a block reducer in *store* (so a kill
    staged after this is genuinely mid-flight, not before the start)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if any(store.root.rglob("block-*.pkl")):
            return True
        time.sleep(0.02)
    return False


def _proc_environ(pid):
    """Parse /proc/<pid>/environ into a dict (Linux only)."""
    raw = Path(f"/proc/{pid}/environ").read_bytes()
    return dict(
        item.split(b"=", 1) for item in raw.split(b"\0") if b"=" in item
    )


def wait_until(predicate, deadline=10.0):
    """Spin until *predicate()* holds; report whether it did in time."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def wait_for_workers(session, count):
    """Spin until *count* workers said hello: each has exec'd the worker
    module (before that, /proc shows the forked driver's environment)."""
    assert wait_until(lambda: session.broker.worker_count() >= count)


@pytest.mark.skipif(not Path("/proc").exists(), reason="needs Linux procfs")
class TestWorkerThreadBudget:
    """Oversubscription guard, fabric side: spawned workers are pinned to
    one compiled thread via their environment unless the driver forced an
    explicit budget (mirrors the executor pool initializer)."""

    def test_spawned_workers_pinned_to_one_thread(self):
        with FabricSession(1) as session:
            wait_for_workers(session, 1)
            pid = session.worker_pids[0]
            assert _proc_environ(pid)[ENV_VARS["threads"].encode()] == b"1"

    def test_spawned_workers_inherit_forced_budget(self):
        with forced_policy(threads=3):
            with FabricSession(1) as session:
                wait_for_workers(session, 1)
                pid = session.worker_pids[0]
                assert _proc_environ(pid)[ENV_VARS["threads"].encode()] == b"3"


class TestProtocol:
    def test_frame_round_trip(self):
        messages = [
            {"type": "hello", "worker": "w-1"},
            {"type": "lease", "token": "t" * 24, "dir": "/x", "i0": 0, "i1": 3},
        ]
        stream = b"".join(encode(m) for m in messages) + b'{"type":"ok"'
        decoded, rest = split_lines(stream)
        assert decoded == messages
        assert rest == b'{"type":"ok"'
        more, rest = split_lines(rest + b"}\n")
        assert more == [{"type": "ok"}] and rest == b""

    def test_work_token_is_seed_and_kwargs_sensitive(self):
        spec = block_seed_spec(42)
        base = work_token(scalar_block, REPS, BLOCK, spec, {})
        assert len(base) == 24
        assert base == work_token(scalar_block, REPS, BLOCK, spec, {})
        assert base != work_token(scalar_block, REPS, BLOCK, block_seed_spec(43), {})
        assert base != work_token(scalar_block, REPS + 1, BLOCK, spec, {})
        assert base != work_token(slow_block, REPS, BLOCK, spec, {})
        big = np.ones(5000)
        tweaked = big.copy()
        tweaked[2500] = 7.0  # repr-invisible: both print as [1. 1. ... 1.]
        assert work_token(scalar_block, REPS, BLOCK, spec, {"caps": big}) != (
            work_token(scalar_block, REPS, BLOCK, spec, {"caps": tweaked})
        )

    def test_none_seed_tokens_never_collide(self):
        a = work_token(scalar_block, REPS, BLOCK, block_seed_spec(None), {})
        b = work_token(scalar_block, REPS, BLOCK, block_seed_spec(None), {})
        assert a != b  # fresh OS entropy per spec: no false park sharing

    def test_wire_recv_timeout_loses_no_bytes(self):
        a, b = socket.socketpair()
        try:
            wire = Wire(a)
            with pytest.raises(TimeoutError, match="no broker frame"):
                wire.recv(timeout=0.05)
            # A frame split across sends survives a timeout mid-frame:
            # the partial line stays buffered, nothing is dropped.
            b.sendall(b'{"type":"ok"')
            with pytest.raises(TimeoutError):
                wire.recv(timeout=0.05)
            b.sendall(b'}\n{"type":"idle"}\n')
            assert wire.recv(timeout=1.0) == {"type": "ok"}
            assert wire.recv(timeout=1.0) == {"type": "idle"}
            b.close()
            with pytest.raises(ConnectionError, match="closed"):
                wire.recv(timeout=1.0)
        finally:
            a.close()

    def test_recv_patiently_detects_a_dead_broker_pid(self):
        # A pid that existed and is now gone: the probe, not the socket,
        # must get the worker out (a vanished broker host sends no RST).
        ghost = subprocess.Popen([sys.executable, "-c", "pass"])
        ghost.wait()
        assert not _pid_alive(ghost.pid)
        assert _pid_alive(os.getpid())
        a, b = socket.socketpair()
        try:
            with pytest.raises(ConnectionError, match="died"):
                _recv_patiently(
                    Wire(a), broker_pid=ghost.pid, tick=0.02, deadline=60.0)
        finally:
            a.close()
            b.close()

    def test_recv_patiently_deadline_fires_on_live_silent_broker(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ConnectionError, match="no broker reply"):
                _recv_patiently(
                    Wire(a), broker_pid=os.getpid(), tick=0.02, deadline=0.1)
        finally:
            a.close()
            b.close()


class TestBrokerUnit:
    """Broker scheduling decisions, driven without any real workers."""

    def test_park_detected_on_lost_lease(self, tmp_path):
        broker = Broker(lease_ttl=60.0)
        try:
            ws = broker.submit("tok", tmp_path, [(0, 3)])
            # park the block exactly as a worker would, then lose the lease
            reducer = scalar_block([np.random.SeedSequence(1)])
            CheckpointSlot(park_path(tmp_path, 0)).save(
                reducer, 1, park_fingerprint("tok", 0, 3)
            )
            with broker._lock:
                broker._lost(("tok", 0), "worker disconnected")
            assert ws.event.is_set() and ws.error is None
            assert ws.done == {0}
            assert ws.done_repetitions() == 3
        finally:
            broker.stop()

    def test_unparked_lost_lease_requeues_then_gives_up(self, tmp_path):
        broker = Broker(lease_ttl=60.0, max_requeues=2)
        try:
            ws = broker.submit("tok", tmp_path, [(0, 3)])
            with broker._lock:
                broker._queue.clear()  # simulate the block being leased out
            for _ in range(2):
                with broker._lock:
                    broker._lost(("tok", 0), "lease expired")
                    assert not ws.event.is_set()
                    assert ("tok", 0) in broker._queue
                    broker._queue.clear()
            with broker._lock:
                broker._lost(("tok", 0), "lease expired")
            assert ws.event.is_set()
            assert "lost 3 times" in ws.error
        finally:
            broker.stop()


class TestFabricIdentity:
    def test_fabric_equals_serial_bit_identically(self):
        reference = reference_reducer()
        with FabricSession(workers=2) as session:
            with session.activate():
                fabbed = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK
                )
        assert_same_reducer(fabbed, reference)

    def test_fleet_size_never_changes_numbers(self):
        reference = reference_reducer()
        with FabricSession(workers=3) as session:
            with session.activate():
                fabbed = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK
                )
        assert_same_reducer(fabbed, reference)

    def test_activation_is_scoped(self):
        assert current_fabric() is None
        with FabricSession(workers=0, spawn_workers=False) as session:
            with session.activate():
                assert current_fabric() is session
            assert current_fabric() is None
        assert current_fabric() is None

    def test_closed_session_refuses_activation(self):
        session = FabricSession(workers=0, spawn_workers=False)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            with session.activate():
                pass  # pragma: no cover

    def test_adaptive_runs_stay_local(self):
        # The fabric serves only fixed-budget runs; an until= run under an
        # activated workerless session must execute locally (it would hang
        # forever if it leased blocks to the empty fleet).
        target = PrecisionTarget(absolute=0.2, confidence=0.9, min_blocks=4)
        local = run_ensemble_reduced(
            scalar_block, 60, seed=42, block_size=BLOCK, until=target.monitor()
        )
        with FabricSession(workers=0, spawn_workers=False) as session:
            with session.activate():
                fabbed = run_ensemble_reduced(
                    scalar_block, 60, seed=42, block_size=BLOCK,
                    until=target.monitor(),
                )
        assert_same_reducer(fabbed, local)

    def test_worker_task_failure_raises_labelled_taskerror(self):
        with FabricSession(workers=1, lease_ttl=5.0) as session:
            with session.activate():
                with pytest.raises(TaskError, match="boom fabric work set") as err:
                    run_ensemble_reduced(
                        failing_block, 6, seed=1, block_size=3, label="boom"
                    )
        text = str(err.value)
        # the worker-side traceback travelled back over the wire, and the
        # block gave up only after the broker's retry cap
        assert "block [0, 3) failed 3 times" in text
        assert "fabric task boom" in text


class TestWorkerDeath:
    def test_kill_half_the_workers_mid_flight(self):
        reference = run_ensemble_reduced(slow_block, 40, seed=7, block_size=2)
        session = FabricSession(workers=4, lease_ttl=3.0)
        killed = []
        try:
            pids = list(session.worker_pids)
            assert len(pids) == 4

            def assassin():
                wait_for_park_file(session.store)
                for pid in pids[:2]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        killed.append(pid)
                    except ProcessLookupError:  # pragma: no cover
                        pass

            thread = threading.Thread(target=assassin)
            thread.start()
            with session.activate():
                fabbed = run_ensemble_reduced(slow_block, 40, seed=7, block_size=2)
            thread.join()
            assert killed, "assassin thread never fired"
            assert_same_reducer(fabbed, reference)
        finally:
            session.close()

    def test_sigstopped_worker_loses_lease_to_the_living(self):
        # A frozen worker never closes its socket — only lease expiry can
        # recover its block.  lease_ttl is short so the test stays fast.
        reference = run_ensemble_reduced(slow_block, 16, seed=11, block_size=2)
        session = FabricSession(workers=2, lease_ttl=1.5)
        stopped = []
        try:
            pids = list(session.worker_pids)

            def freezer():
                wait_for_park_file(session.store)
                try:
                    os.kill(pids[0], signal.SIGSTOP)
                    stopped.append(pids[0])
                except ProcessLookupError:  # pragma: no cover
                    pass

            thread = threading.Thread(target=freezer)
            thread.start()
            with session.activate():
                fabbed = run_ensemble_reduced(slow_block, 16, seed=11, block_size=2)
            thread.join()
            assert stopped, "freezer thread never fired"
            assert_same_reducer(fabbed, reference)
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            session.close()


#: Runs a broker in a disposable process so tests can kill it under a live
#: worker.  Prints the address, then a second line once a worker connects.
_BROKER_HOST_SCRIPT = """\
import time
from repro.runtime.fabric.broker import Broker

broker = Broker(lease_ttl=30.0).start()
host, port = broker.address
print(f"{host}:{port}", flush=True)
while broker.worker_count() == 0:
    time.sleep(0.02)
print("worker-connected", flush=True)
time.sleep(600)
"""


class TestBrokerDeath:
    """The reverse of TestWorkerDeath: the broker dies under a live worker.

    Before PR 10 a worker waiting for a reply sat in a blocking ``recv``
    with no timeout — a broker host that vanished without closing the TCP
    connection (machine crash, SIGSTOP, network partition) left the worker
    hung forever.  These tests put the broker in its own subprocess and
    assert the worker gets itself out in both flavours of broker death.
    """

    def _spawn_broker_and_worker(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p or os.getcwd() for p in sys.path)
        broker = subprocess.Popen(
            [sys.executable, "-c", _BROKER_HOST_SCRIPT],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        address = broker.stdout.readline().strip()
        assert ":" in address, f"broker host failed to start: {address!r}"
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.runtime.fabric.worker",
                "--address", address,
                "--broker-pid", str(broker.pid),
                "--recv-tick", "0.1",
                "--recv-deadline", "2",
            ],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        # The worker's hello has been answered: the kill below lands on a
        # genuinely live request loop, not on a connect in progress.
        assert broker.stdout.readline().strip() == "worker-connected"
        return broker, worker

    def _reap(self, *procs):
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def test_worker_exits_when_broker_is_sigkilled(self):
        broker, worker = self._spawn_broker_and_worker()
        try:
            os.kill(broker.pid, signal.SIGKILL)
            assert worker.wait(timeout=10) == 1
            assert "broker lost" in worker.stderr.read()
        finally:
            self._reap(worker, broker)

    def test_worker_gives_up_on_a_sigstopped_broker(self):
        # The hard case: the broker pid stays alive and its socket stays
        # open, so neither EOF nor the pid probe fires — only the recv
        # deadline can get the worker out.
        broker, worker = self._spawn_broker_and_worker()
        try:
            os.kill(broker.pid, signal.SIGSTOP)
            assert worker.wait(timeout=15) == 1
            assert "no broker reply" in worker.stderr.read()
        finally:
            try:
                os.kill(broker.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            self._reap(worker, broker)


def test_whole_fabric_kill_then_resume(tmp_path):
    """Kill every worker mid-sweep; a fresh fleet over the same store picks
    the parked blocks up by content address and finishes bit-identically."""
    arm_dir = tmp_path / "arm"
    arm_dir.mkdir()
    store = ResultStore(tmp_path / "store")
    kwargs = {"arm_dir": str(arm_dir), "fuse": 9}

    # Reference: serial, computed before arming (same kwargs -> the fabric
    # attempts below address the same work token).
    reference = run_ensemble_reduced(
        suicidal_block, REPS, seed=42, block_size=BLOCK, kwargs=kwargs
    )

    # Attempt 1: armed — every worker that reaches repetition >= 9 dies,
    # so the whole fleet is dead within a few blocks.
    (arm_dir / "armed").touch()
    session = FabricSession(workers=2, store=store, lease_ttl=2.0)
    try:
        with session.activate():
            with pytest.raises(TaskError, match="fabric work set failed"):
                run_ensemble_reduced(
                    suicidal_block, REPS, seed=42, block_size=BLOCK, kwargs=kwargs
                )
    finally:
        session.close()
    parked = list((store.root / "fabric").rglob("block-*.pkl"))
    assert parked, "the doomed fleet parked nothing before dying"

    # Attempt 2: disarmed, fresh fleet, same store — the parked blocks are
    # found under the same content-addressed token and never recomputed.
    (arm_dir / "armed").unlink()
    session = FabricSession(workers=2, store=store, lease_ttl=5.0)
    try:
        with session.activate():
            resumed = run_ensemble_reduced(
                suicidal_block, REPS, seed=42, block_size=BLOCK, kwargs=kwargs
            )
    finally:
        session.close()
    assert_same_reducer(resumed, reference)
    # post-merge cleanup: the work set's scratch namespace is gone
    assert not list((store.root / "fabric").rglob("block-*.pkl"))


class TestCheckpointInterplay:
    def test_fabric_run_checkpoints_and_a_local_rerun_replays(self, tmp_path):
        store = ResultStore(tmp_path)
        reference = reference_reducer()
        with FabricSession(workers=2, store=store) as session:
            with session.activate():
                first = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK,
                    checkpoint=store.checkpointer("f" * 64),
                )
        assert_same_reducer(first, reference)
        # the fabric run saved one checkpoint with every block done, so a
        # local rerun of the same call is a pure checkpoint replay
        resumed = run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
            checkpoint=store.checkpointer("f" * 64),
        )
        assert_same_reducer(resumed, reference)


class TestExperimentIdentity:
    def test_fig02_fabric_vs_serial(self):
        from repro.core.equivalence import check_fabric_serial_identity

        assert check_fabric_serial_identity("fig02", workers=2) == 2

    def test_execute_request_fabric_parameter(self, tmp_path):
        from repro.experiments.request import RunRequest
        from repro.experiments.runner import execute_request

        request = RunRequest(
            experiment_id="fig02", seed=2026, engine="ensemble",
            overrides=(("repetitions", 8),),
        )
        plain = execute_request(request).result
        with FabricSession(workers=2, store=ResultStore(tmp_path)) as session:
            fabbed = execute_request(request, fabric=session).result
        for name in plain.series:
            a, b = plain.series[name], fabbed.series[name]
            both_nan = np.isnan(a) & np.isnan(b)
            assert np.array_equal(a[~both_nan], b[~both_nan]), name


def _hello(broker):
    """A raw protocol client that has completed the handshake."""
    wire = Wire(socket.create_connection(broker.address, timeout=5.0))
    wire.send({"type": "hello", "worker": "raw"})
    assert wire.recv(timeout=5.0)["type"] == "welcome"
    return wire


class TestHeldRequests:
    """A request that finds the queue empty is held, not answered idle:
    new work wakes it at once, draining shuts it down at once, and a long
    hold is released idle before the worker's reply deadline."""

    def test_submit_wakes_a_held_request_well_under_the_tick(self, tmp_path):
        broker = Broker(tick=2.0).start()
        wire = _hello(broker)
        try:
            wire.send({"type": "request", "worker": "raw"})
            with pytest.raises(TimeoutError):  # held: no idle poll reply
                wire.recv(timeout=0.3)
            start = time.monotonic()
            broker.submit("tok", tmp_path, [(0, 3)])
            lease = wire.recv(timeout=5.0)
            elapsed = time.monotonic() - start
            assert lease["type"] == "lease" and (lease["i0"], lease["i1"]) == (0, 3)
            assert elapsed < 0.5, f"lease took {elapsed:.3f}s after submit"
            stats = broker.stats()
            assert stats["requests_held"] == 1 and stats["held_woken"] == 1
            assert stats["leases_granted"] == 1
        finally:
            wire.close()
            broker.stop()

    def test_done_is_answered_with_the_next_lease(self, tmp_path):
        broker = Broker().start()
        wire = _hello(broker)
        try:
            broker.submit("tok", tmp_path, [(0, 3), (3, 6)])
            wire.send({"type": "request", "worker": "raw"})
            first = wire.recv(timeout=5.0)
            wire.send({"type": "done", "worker": "raw", "token": "tok",
                       "i0": first["i0"]})
            second = wire.recv(timeout=5.0)
            assert second["type"] == "lease"
            assert {first["i0"], second["i0"]} == {0, 3}
        finally:
            wire.close()
            broker.stop()

    def test_long_hold_is_released_before_the_recv_deadline(self):
        # lease_ttl 0.6 -> heartbeat interval and longest hold 0.2 s.
        broker = Broker(lease_ttl=0.6).start()
        wire = _hello(broker)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run_worker(
            broker.address, worker_id="held", recv_tick=0.05,
            recv_deadline=0.5)))
        try:
            wire.send({"type": "request", "worker": "raw"})
            start = time.monotonic()
            assert wire.recv(timeout=5.0) == {"type": "idle", "delay": 0}
            assert 0.15 <= time.monotonic() - start < 0.5
            worker.start()
            time.sleep(1.5)  # several hold periods, each under the deadline
            assert worker.is_alive() and broker.worker_count() == 2
            assert broker.stats()["held_released"] >= 4
            broker.drain()
            worker.join(timeout=5.0)
            assert codes == [0]
        finally:
            wire.close()
            broker.drain()
            worker.join(timeout=5.0)
            broker.stop()

    def test_close_with_held_workers_is_prompt(self):
        session = FabricSession(workers=2)
        try:
            assert wait_until(lambda: session.stats()["requests_held"] >= 2)
            procs = list(session._procs)
            start = time.monotonic()
        finally:
            session.close()
        assert time.monotonic() - start < 1.0
        assert [p.returncode for p in procs] == [0, 0]


class TestLeaseCounters:
    def test_one_lease_per_block_and_a_wake_up(self, tmp_path):
        from repro.experiments.request import RunRequest
        from repro.experiments.runner import execute_request

        request = RunRequest(
            experiment_id="fig02", seed=2026, engine="ensemble", block_size=4,
            overrides=(("repetitions", 16),),
        )
        with FabricSession(workers=2, store=ResultStore(tmp_path)) as session:
            submitted = []
            real_submit = session.broker.submit

            def counting_submit(token, directory, blocks):
                submitted.append(len(blocks))
                return real_submit(token, directory, blocks)

            session.broker.submit = counting_submit
            assert wait_until(lambda: session.stats()["requests_held"] >= 2)
            execute_request(request, fabric=session)
            stats = session.stats()
        blocks = sum(submitted)
        assert blocks > len(submitted) > 1  # several runs, several blocks
        assert stats["leases_granted"] == stats["blocks_done"] == blocks
        assert stats["lease_expiries"] == stats["requeues"] == 0
        assert stats["task_failures"] == stats["lease_disconnects"] == 0
        assert stats["held_woken"] >= 1


class TestScratchDurability:
    """Fabric scratch (parks, spec.pkl) is rename-atomic but not fsynced;
    result entries and the driver checkpoint still are."""

    def test_park_skips_fsync_but_store_and_checkpoint_do_not(
            self, tmp_path, monkeypatch):
        from repro.runtime.fabric.worker import _park

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        reducer = scalar_block([np.random.SeedSequence(1)])
        lease = {"token": "tok", "dir": str(tmp_path / "fab"), "i0": 0, "i1": 3}
        _park(lease, reducer)
        assert synced == []
        state = CheckpointSlot(park_path(lease["dir"], 0)).load(
            park_fingerprint("tok", 0, 3))
        assert state is not None and state[0] == reducer

        CheckpointSlot(tmp_path / "slot.pkl").save(reducer, 1, "fp")
        assert len(synced) == 1
        from repro.experiments import run_experiment

        result = run_experiment("fig02", engine="ensemble", seed=1, repetitions=2)
        ResultStore(tmp_path / "store").put("k" * 64, result)
        assert len(synced) == 2

    def test_a_fabric_run_makes_no_driver_fsync(self, monkeypatch):
        synced = []
        real_fsync = os.fsync
        with FabricSession(workers=1) as session:
            monkeypatch.setattr(
                os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
            with session.activate():
                fabbed = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK)
            monkeypatch.undo()
        assert synced == []  # spec.pkl skipped it; no checkpointer
        assert_same_reducer(fabbed, reference_reducer())


class TestOneDriverCheckpoint:
    def _count_saves(self, monkeypatch):
        saves = []
        real_save = CheckpointSlot.save

        def counting_save(self, *args, **kwargs):
            saves.append(self.path)
            return real_save(self, *args, **kwargs)

        monkeypatch.setattr(CheckpointSlot, "save", counting_save)
        return saves

    def test_fabric_saves_once_local_saves_per_block(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        saves = self._count_saves(monkeypatch)
        with FabricSession(workers=2, store=store) as session:
            with session.activate():
                fabbed = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK,
                    checkpoint=store.checkpointer("a" * 64))
        assert len(saves) == 1  # workers' parks are other processes
        local = run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
            checkpoint=store.checkpointer("b" * 64))
        assert len(saves) == 1 + REPS // BLOCK
        assert_same_reducer(fabbed, local)

    def test_crash_before_the_save_keeps_the_parks(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        reference = reference_reducer()

        def failing_save(self, *args, **kwargs):
            raise OSError("disk full")

        with FabricSession(workers=2, store=store) as session:
            monkeypatch.setattr(CheckpointSlot, "save", failing_save)
            with session.activate():
                with pytest.raises(OSError, match="disk full"):
                    run_ensemble_reduced(
                        scalar_block, REPS, seed=42, block_size=BLOCK,
                        checkpoint=store.checkpointer("c" * 64))
            monkeypatch.undo()
            parked = list((store.root / "fabric").rglob("block-*.pkl"))
            assert len(parked) == REPS // BLOCK
            before = session.stats()["leases_granted"]
            with session.activate():
                resumed = run_ensemble_reduced(
                    scalar_block, REPS, seed=42, block_size=BLOCK,
                    checkpoint=store.checkpointer("c" * 64))
            assert session.stats()["leases_granted"] == before
        assert_same_reducer(resumed, reference)
        assert not list((store.root / "fabric").rglob("block-*.pkl"))
