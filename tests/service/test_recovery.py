"""Crash-recovery tests: recover-at-k == uninterrupted, bit for bit."""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service import (
    AllocationService,
    ChurnAction,
    StaleSequenceError,
    TraceSpec,
    WalError,
    WriteAheadLog,
    generate_trace,
)

PEERS = [f"peer-{i}" for i in range(6)]
SEED = 77
TRACE = generate_trace(
    TraceSpec(requests=24, users=200, objects=60, rate=100.0, seed=SEED)
)
KEYS = list(TRACE.keys())

#: The canonical event sequence: allocations with churn interleaved.
EVENTS = []
for _i, _key in enumerate(KEYS):
    if _i == 6:
        EVENTS.append(("churn", "join", None))
    if _i == 12:
        EVENTS.append(("churn", "leave", None))  # churn-stream victim draw
    if _i == 18:
        EVENTS.append(("churn", "leave", "peer-2"))
    EVENTS.append(("alloc", _key, None))


def fresh(wal=None, peers=PEERS, **kw):
    defaults = dict(d=2, refresh_every=8, seed=SEED)
    defaults.update(kw)
    return AllocationService(peers, wal=wal, **defaults)


def apply_events(service, events, seq_start=1, client="c"):
    """Drive events with monotonically increasing sequence ids."""
    seq = seq_start
    for event in events:
        if event[0] == "alloc":
            service.allocate(event[1], client=client, seq=seq)
        else:
            service.apply_churn(
                ChurnAction(time=0.0, kind=event[1], peer_id=event[2]),
                client=client, seq=seq)
        seq += 1
    return seq


def state_of(service):
    stats = service.stats()
    return (
        stats["placement_digest"],
        stats["load"]["per_peer"],
        stats["churn"],
        service.requests,
        tuple(sorted(service.peer_ids)),
    )


UNINTERRUPTED = fresh()
apply_events(UNINTERRUPTED, EVENTS)
REFERENCE = state_of(UNINTERRUPTED)


class TestRecoverAtEveryPrefix:
    @pytest.mark.parametrize("k", range(len(EVENTS) + 1))
    def test_crash_after_k_events_then_finish(self, tmp_path, k):
        """Recover at every prefix length, finish, match the reference.

        This is the crash-recovery clause in miniature: no matter where
        the process dies, replaying the WAL and continuing produces the
        same digest, per-peer counts, churn counters, and membership as
        the run that never died.
        """
        path = tmp_path / "svc.wal"
        before = fresh(wal=path)
        seq = apply_events(before, EVENTS[:k])
        before.close_wal()  # the "crash": abandon the first instance

        after = AllocationService.recover(path)
        assert after.recovered_records == len(EVENTS[:k])
        apply_events(after, EVENTS[k:], seq_start=seq)
        assert state_of(after) == REFERENCE

    def test_recovery_resumes_rng_streams_not_just_counts(self, tmp_path):
        # Same final loads can hide drifted RNG streams; drive extra
        # post-recovery traffic so a stream offset would surface.
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        apply_events(svc, EVENTS)
        svc.close_wal()
        recovered = AllocationService.recover(path)
        control = fresh()
        apply_events(control, EVENTS)
        for extra in range(40):
            assert (recovered.allocate(f"extra-{extra}")
                    == control.allocate(f"extra-{extra}"))
        extra_churn = recovered.apply_churn(ChurnAction(time=0.0, kind="leave"))
        assert extra_churn == control.apply_churn(
            ChurnAction(time=0.0, kind="leave"))


class TestRecoveredDedup:
    def test_dedup_table_survives_recovery(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        last_seq = apply_events(svc, EVENTS) - 1
        digest = svc.placement_digest()
        svc.close_wal()

        recovered = AllocationService.recover(path)
        # Retrying the last applied request must hit the dedup table:
        # same reply, no new placement, no RNG consumption.
        last_alloc_key = EVENTS[-1][1]
        pid = recovered.allocate(last_alloc_key, client="c", seq=last_seq)
        assert pid in recovered.peer_ids
        assert recovered.placement_digest() == digest
        assert recovered.dedup_hits == 1
        with pytest.raises(StaleSequenceError):
            recovered.allocate(last_alloc_key, client="c", seq=last_seq - 1)


class TestTornAndCorrupt:
    def test_torn_tail_recovers_surviving_prefix(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        apply_events(svc, EVENTS)
        svc.close_wal()
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])  # tear the last frame mid-payload

        recovered = AllocationService.recover(path)
        assert recovered.recovered_records == len(EVENTS) - 1
        assert list(tmp_path.glob("svc.wal.corrupt-*"))
        # The client retries the lost final request (the reply never
        # arrived); the result matches the uninterrupted run exactly.
        seq = len(EVENTS)  # seqs started at 1, so the lost one is len(EVENTS)
        assert EVENTS[-1][0] == "alloc"
        recovered.allocate(EVENTS[-1][1], client="c", seq=seq)
        assert state_of(recovered) == REFERENCE

    def test_divergent_log_refused(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        apply_events(svc, EVENTS[:8])
        svc.close_wal()
        scan = WriteAheadLog(path).scan()
        # Rewrite the log with one placement forged to a different peer:
        # recovery must detect that this build would not have made that
        # decision, not silently serve drifted state.
        forged_path = tmp_path / "forged.wal"
        forged = WriteAheadLog(forged_path)
        for rec in scan.records:
            rec = dict(rec)
            if rec["t"] == "alloc" and rec["s"] == 5:
                rec["p"] = "peer-0" if rec["p"] != "peer-0" else "peer-1"
            forged.append(rec)
        forged.close()
        with pytest.raises(WalError, match="does not match"):
            AllocationService.recover(forged_path)


class TestWalAttachment:
    def test_empty_log_has_nothing_to_recover(self, tmp_path):
        with pytest.raises(WalError, match="nothing to recover"):
            AllocationService.recover(tmp_path / "missing.wal")

    def test_fresh_constructor_refuses_populated_log(self, tmp_path):
        path = tmp_path / "svc.wal"
        fresh(wal=path).close_wal()
        with pytest.raises(WalError, match="recover"):
            fresh(wal=path)

    def test_wal_requires_integer_seed(self, tmp_path):
        with pytest.raises(WalError, match="integer seed"):
            fresh(wal=tmp_path / "svc.wal", seed=None)

    def test_log_without_meta_record_refused(self, tmp_path):
        path = tmp_path / "svc.wal"
        wal = WriteAheadLog(path)
        wal.append({"t": "alloc", "k": "obj-1", "p": "peer-0"})
        wal.close()
        with pytest.raises(WalError, match="meta record"):
            AllocationService.recover(path)

    def test_recovered_service_keeps_logging(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        apply_events(svc, EVENTS[:4])
        svc.close_wal()
        recovered = AllocationService.recover(path)
        recovered.allocate("obj-next")
        recovered.close_wal()
        # The new decision is on disk: a second recovery includes it.
        again = AllocationService.recover(path)
        assert again.recovered_records == 5
        assert again.placement_digest() == recovered.placement_digest()

    def test_stats_surface_reports_wal(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        svc.allocate("obj-1")
        info = svc.stats()["wal"]
        assert info["path"] == str(path)
        assert info["appended"] == 2  # meta + the alloc
        assert "sync_every" not in info
        assert info["fsyncs"] == 1  # the meta record's commit only
        svc.flush_wal()
        assert svc.stats()["wal"]["fsyncs"] == 2
        svc.close_wal()
        assert svc.stats()["wal"] is None

    def test_meta_pins_config_not_cli_flags(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path, d=1, refresh_every=3,
                    peers=["a", "b", "c"], virtual_nodes=2)
        svc.allocate("obj-1")
        svc.close_wal()
        recovered = AllocationService.recover(path)
        assert recovered.d == 1
        assert recovered.refresh_every == 3
        assert set(recovered.peer_ids) == {"a", "b", "c"}
        assert recovered._dht.virtual_nodes == 2


class TestChurnFloorRecords:
    def test_skip_events_recover_bit_identically(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = AllocationService(
            ["a", "b"], replication=2, d=2, seed=SEED, wal=path)
        svc.allocate("obj-1")
        resolved = svc.apply_churn(ChurnAction(time=0.0, kind="leave"))
        assert resolved["kind"] == "skip"
        svc.allocate("obj-2")
        svc.close_wal()
        recovered = AllocationService.recover(path)
        assert recovered.skips == 1
        assert recovered.placement_digest() == svc.placement_digest()
        # The skip consumed a churn-stream draw before the floor check;
        # recovery must have consumed it too, or the next victim differs.
        control = AllocationService(["a", "b"], replication=2, d=2, seed=SEED)
        control.allocate("obj-1")
        control.apply_churn(ChurnAction(time=0.0, kind="leave"))
        control.allocate("obj-2")
        recovered.apply_churn(ChurnAction(time=0.0, kind="join"))
        control.apply_churn(ChurnAction(time=0.0, kind="join"))
        assert (recovered.apply_churn(ChurnAction(time=0.0, kind="leave"))
                == control.apply_churn(ChurnAction(time=0.0, kind="leave")))


class TestStopSignals:
    """``repro serve`` treats SIGTERM like SIGINT: the WAL is flushed and
    closed, the exit status is 0, no traceback is printed, and every
    acknowledged placement is recoverable."""

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_acknowledged_allocs_survive_a_stop_signal(self, tmp_path, sig):
        path = tmp_path / "svc.wal"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--peers", str(len(PEERS)), "--seed", str(SEED), "--wal", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        try:
            banner = proc.stdout.readline()
            host, port = banner.split(" on ")[1].split()[0].rsplit(":", 1)
            peers = []
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                stream = sock.makefile("rwb")
                for seq, key in enumerate(KEYS, start=1):
                    stream.write(json.dumps({"op": "alloc", "key": key,
                                             "client": "c", "seq": seq}).encode()
                                 + b"\n")
                    stream.flush()
                    reply = json.loads(stream.readline())
                    assert reply["ok"], reply
                    peers.append(reply["peer"])
                proc.send_signal(sig)
                _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err

        recovered = AllocationService.recover(path)
        recovered.close_wal()
        reference = AllocationService(PEERS, d=2, refresh_every=64, seed=SEED)
        assert [reference.allocate(k, client="c", seq=s)
                for s, k in enumerate(KEYS, start=1)] == peers
        assert recovered.recovered_records == len(KEYS)
        assert recovered.placement_digest() == reference.placement_digest()
        assert (recovered.stats()["load"]["per_peer"]
                == reference.stats()["load"]["per_peer"])
