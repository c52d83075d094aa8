"""Crash-recovery tests: recover at any frame boundary == uninterrupted,
bit for bit."""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.cli import main
from repro.service import (
    AllocationService,
    ChurnAction,
    StaleSequenceError,
    TraceSpec,
    WalError,
    WriteAheadLog,
    generate_trace,
    logged_events,
)
from repro.service.server import WAL_FORMAT
from repro.service.wal import MAX_FRAME_BYTES, WAL_MAGIC

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


#: Events per batch of :func:`apply_batched`; event ``i`` is sent by
#: client ``c{i % BATCH}``, so a batch never names a client twice.
BATCH = 4


def apply_batched(service, events, start=0):
    """Drive *events*, which begin at index *start* of :data:`EVENTS`,
    sending every run of consecutive allocs as ``allocate_many`` batches
    of at most :data:`BATCH`, so a window's frame holds several
    placements."""
    i = 0
    while i < len(events):
        ident = (f"c{(start + i) % BATCH}", (start + i) // BATCH + 1)
        if events[i][0] == "churn":
            service.apply_churn(
                ChurnAction(time=0.0, kind=events[i][1], peer_id=events[i][2]),
                client=ident[0], seq=ident[1])
            i += 1
            continue
        end = i
        while (end < len(events) and end - i < BATCH
               and events[end][0] == "alloc"):
            end += 1
        at = range(start + i, start + end)
        service.allocate_many([e[1] for e in events[i:end]],
                              [f"c{j % BATCH}" for j in at],
                              [j // BATCH + 1 for j in at])
        i = end


def frame_ends(path) -> list[int]:
    """File offset just past each frame (the meta record's first)."""
    blob, at, ends = path.read_bytes(), len(WAL_MAGIC), []
    while at < len(blob):
        at += 8 + int.from_bytes(blob[at:at + 4], "little")
        ends.append(at)
    return ends


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
        """Recover after every event count, finish, match the reference.

        This is the crash-recovery clause in miniature: no matter where
        the process dies, replaying the WAL and continuing produces the
        same digest, per-peer counts, churn counters, and membership as
        the run that never died.  The events are sent in batches, so the
        log's last frame, at event *k*, holds a window of several
        placements.
        """
        path = tmp_path / "svc.wal"
        before = fresh(wal=path)
        apply_batched(before, EVENTS[:k])
        before.close_wal()  # the "crash": abandon the first instance

        after = AllocationService.recover(path)
        assert after.recovered_records == k
        apply_batched(after, EVENTS[k:], start=k)
        assert state_of(after) == REFERENCE

    def test_crash_at_every_frame_boundary_of_one_log(self, tmp_path):
        """Cut one batched run's log at each of its frame boundaries:
        each cut recovers to the uninterrupted run at that point, and
        finishing from there matches the reference."""
        path = tmp_path / "svc.wal"
        whole = fresh(wal=path)
        apply_batched(whole, EVENTS)
        whole.close_wal()
        blob, ends = path.read_bytes(), frame_ends(path)
        events = logged_events(WriteAheadLog(path).scan().records[1:])
        assert len(events) == len(EVENTS)
        assert len(ends) - 1 < len(EVENTS)  # some frame holds a window
        for end in ends:
            cut = tmp_path / f"cut-{end}.wal"
            cut.write_bytes(blob[:end])
            after = AllocationService.recover(cut)
            after.close_wal()
            k = after.recovered_records
            prefix = fresh()
            apply_events(prefix, EVENTS[:k])
            assert state_of(after) == state_of(prefix), end
            apply_batched(after, EVENTS[k:], start=k)
            assert state_of(after) == REFERENCE, end

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

    def test_torn_tail_inside_a_batch_frame(self, tmp_path):
        """A frame torn mid-payload loses its whole window: recovery
        equals the uninterrupted run at the frame boundary before it, and
        the clients' retries of the window finish it to the reference."""
        path = tmp_path / "svc.wal"
        whole = fresh(wal=path)
        apply_batched(whole, EVENTS)
        whole.close_wal()
        blob, ends = path.read_bytes(), frame_ends(path)
        records = WriteAheadLog(path).scan().records
        torn = 0
        for i, rec in enumerate(records):
            if rec["t"] != "allocs" or len(rec["k"]) < 2:
                continue
            cut = tmp_path / f"torn-{i}.wal"
            cut.write_bytes(blob[:ends[i] - (ends[i] - ends[i - 1]) // 2])
            after = AllocationService.recover(cut)
            after.close_wal()
            k = len(logged_events(records[1:i]))
            assert after.recovered_records == k
            prefix = fresh()
            apply_events(prefix, EVENTS[:k])
            assert state_of(after) == state_of(prefix)
            apply_batched(after, EVENTS[k:], start=k)
            assert state_of(after) == REFERENCE
            torn += 1
        assert torn >= 3

    def test_divergent_log_refused(self, tmp_path):
        path = tmp_path / "svc.wal"
        svc = fresh(wal=path)
        apply_batched(svc, EVENTS[:8])
        svc.close_wal()
        scan = WriteAheadLog(path).scan()
        # Rewrite the log with one placement forged to a different peer:
        # recovery must detect that this build would not have made that
        # decision, not silently serve drifted state.  Event 4 is the
        # first placement of the second batch.
        forged_path = tmp_path / "forged.wal"
        forged = WriteAheadLog(forged_path)
        for rec in scan.records:
            rec = dict(rec)
            if rec["t"] == "allocs" and rec["c"][0] == "c0" and rec["s"][0] == 2:
                assert len(rec["p"]) > 1
                rec["p"] = ["peer-0" if rec["p"][0] != "peer-0" else "peer-1",
                            *rec["p"][1:]]
            forged.append(rec)
        forged.close()
        with pytest.raises(WalError, match="placement 4: .* does not match"):
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
        wal.append({"t": "allocs", "k": ["obj-1"], "p": ["peer-0"]})
        wal.close()
        with pytest.raises(WalError, match="meta record"):
            AllocationService.recover(path)

    def test_format_1_log_refused_by_name(self, tmp_path):
        """A log of the per-placement format before ``allocs`` frames has
        no reader: recovery, ``repro recover`` and ``repro serve --wal``
        refuse it, naming the format found and the one expected."""
        path = tmp_path / "old.wal"
        with WriteAheadLog(path) as wal:
            wal.append({"t": "meta", "format": "repro.service.wal/1",
                        "peers": PEERS, "d": 2, "refresh_every": 8,
                        "replication": 1, "virtual_nodes": 1,
                        "resolution": 1000, "seed": SEED})
            wal.append({"t": "alloc", "c": None, "s": None,
                        "k": "obj-1", "p": "peer-0"})
        before = path.read_bytes()
        message = "'repro.service.wal/1'.*'repro.service.wal/2'"
        assert WAL_FORMAT == "repro.service.wal/2"
        with pytest.raises(WalError, match=message):
            AllocationService.recover(path)
        with pytest.raises(SystemExit, match=message):
            main(["recover", str(path)])
        with pytest.raises(SystemExit, match=message):
            main(["serve", "--port", "0", "--wal", str(path)])
        assert path.read_bytes() == before  # refused, not repaired

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


class TestLargeWindows:
    def test_window_of_large_keys_splits_into_bounded_frames(self, tmp_path):
        """64 keys of 60 KiB — each within the wire's line bound — make a
        window record of ~3.8 MiB: it is split into frames within the
        frame bound, written in one ``os.write``, and recovers."""
        path = tmp_path / "svc.wal"
        keys = [f"{i:04d}" + "K" * (60 * 1024) for i in range(64)]
        logged = fresh(wal=path, refresh_every=64)
        reference = fresh(refresh_every=64)
        with mock.patch("os.write", wraps=os.write) as write:
            logged.allocate_many(keys, [f"c{i}" for i in range(64)], [1] * 64)
        assert write.call_count == 1
        reference.allocate_many(keys)
        for service in (logged, reference):
            service.allocate("after")
        logged.close_wal()
        blob, ends = path.read_bytes(), frame_ends(path)
        sizes = [b - a - 8 for a, b in zip([len(WAL_MAGIC)] + ends, ends)]
        assert len(ends) > 3 and max(sizes) <= MAX_FRAME_BYTES
        assert ends[-1] == len(blob)

        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert recovered.recovered_records == 65
        assert recovered.placement_digest() == reference.placement_digest()
        assert state_of(recovered) == state_of(reference)
        assert recovered._dedup["c63"][0] == 1


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
