"""Window batching: ``allocate_many`` / ``replay()`` / ``recover()`` against
the per-key ``allocate`` loop, bit for bit.

Every configuration is decided twice — once a key at a time, once through
the batched pipeline (vectorised hashing, one ring lookup per chunk, one
decision step per staleness window) — and must agree on the placement
digest, per-peer counts, staleness and latency bookkeeping, the dedup
table and the events in the write-ahead log (its frames follow the
windows, so their number differs).
"""

import errno
from unittest import mock

import pytest

from repro import native
from repro.core.equivalence import forced_native
from repro.service import (
    AllocationService,
    ChurnAction,
    StaleSequenceError,
    TraceSpec,
    WalError,
    WriteAheadLog,
    generate_churn_schedule,
    generate_trace,
    logged_events,
)
from repro.service.metrics import LatencyRecorder
from repro.service.server import HASH_CHUNK
from repro.service.views import BATCH_CROSSOVER

PEERS = [f"peer-{i}" for i in range(10)]
SEED = 5
TRACE = generate_trace(
    TraceSpec(requests=1500, users=500, objects=300, rate=200.0, seed=SEED)
)
SCHEDULE = generate_churn_schedule(6, TRACE.duration, seed=SEED)

#: ``replay`` digests of the per-key implementation this pipeline replaced.
#: Regenerate (only for an intentional decision change) with
#: ``make(d, T).replay(TRACE, SCHEDULE).placement_digest``.
GOLDEN_DIGESTS = {
    (2, 7): "032caca7177052bd2c33e06a4857a4b4e90fbba67d401d35e64a278b0c9231b4",
    (3, 64): "d0ed0c657b21b24eda5d3cfb2c2c9feb04234e6323701b548afb78d2c3b77e76",
}


def make(d=2, T=64, **kw):
    return AllocationService(PEERS, d=d, refresh_every=T, virtual_nodes=2,
                             seed=SEED, **kw)


def per_key_replay(service, trace, schedule):
    """The per-key reference: ``allocate`` in trace order, each churn
    action fired before the first arrival at or after its time."""
    schedule = sorted(schedule, key=lambda a: a.time)
    c = 0
    for t, key in zip(trace.times.tolist(), trace.keys()):
        while c < len(schedule) and schedule[c].time <= t:
            service.apply_churn(schedule[c])
            c += 1
        service.allocate(key)
    for action in schedule[c:]:
        service.apply_churn(action)


def state_of(service):
    stats = service.stats()
    return (
        stats["placement_digest"],
        stats["load"]["per_peer"],
        stats["requests"],
        stats["latency"]["samples"],
        stats["staleness"],
        stats["churn"],
        stats["dedup_hits"],
        dict(service._dedup),
    )


class TestReplayIdentity:
    @pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
    @pytest.mark.parametrize("T", [1, 7, 64])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_replay_equals_per_key_loop(self, d, T, churn):
        schedule = SCHEDULE if churn else ()
        batched = make(d, T)
        report = batched.replay(TRACE, schedule, keep_placements=True)
        reference = make(d, T)
        per_key_replay(reference, TRACE, schedule)
        assert state_of(batched) == state_of(reference)
        assert batched.stats()["latency"]["samples"] == TRACE.count
        assert report.final_loads == reference.stats()["load"]["per_peer"]
        assert len(report.placements) == TRACE.count

    @pytest.mark.parametrize("d, T", list(GOLDEN_DIGESTS))
    def test_replay_matches_the_pre_batching_digest(self, d, T):
        assert make(d, T).replay(TRACE, SCHEDULE).placement_digest == GOLDEN_DIGESTS[d, T]

    def test_paced_replay_places_one_key_per_call(self):
        fast = make(2, 7).replay(TRACE, SCHEDULE)
        paced = make(2, 7).replay(TRACE, SCHEDULE, pace=1e6)
        assert paced.placement_digest == fast.placement_digest
        assert paced.final_loads == fast.final_loads


class TestAllocateMany:
    @pytest.mark.parametrize("batch", sorted({
        1, BATCH_CROSSOVER - 1, BATCH_CROSSOVER, 63, 64, 65, 500, HASH_CHUNK + 3}))
    @pytest.mark.parametrize("T", [7, 64, 200])
    def test_any_batching_equals_per_key(self, batch, T):
        keys = list(TRACE.keys()) * 3
        batched, reference = make(3, T), make(3, T)
        out = []
        for lo in range(0, len(keys), batch):
            out += batched.allocate_many(keys[lo:lo + batch])
        assert out == [reference.allocate(k) for k in keys]
        assert state_of(batched) == state_of(reference)

    def test_non_string_keys_fall_back_to_the_scalar_hash(self):
        keys = [7, -3, 2**70, True, b"raw", "obj-1", "é漢"] * 3
        batched, reference = make(2, 5), make(2, 5)
        assert batched.allocate_many(keys) == [reference.allocate(k) for k in keys]
        with pytest.raises(TypeError, match="key must be"):
            make().allocate_many(["a"] * 10 + [1.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            make().allocate_many(["a", "b"], clients=["c"], seqs=[1, 2])

    def test_empty_batch(self):
        service = make()
        assert service.allocate_many([]) == []
        assert service.requests == 0


def full_state(service):
    """``state_of`` plus both RNG stream positions and the WAL's bytes."""
    wal = service._wal
    return (state_of(service), service.errors,
            service._tie_rng.bit_generator.state,
            service._churn_rng.bit_generator.state,
            None if wal is None else wal.path.read_bytes())


class TestRefusedBatchChangesNothing:
    """A batch ``allocate_many`` refuses leaves the service as it was.

    Before the fix, a bad key below :data:`BATCH_CROSSOVER` raised only
    after the keys before it were placed, logged and drawn for (and a
    single bad key had already advanced the tie stream), and the dedup
    hits of earlier pairs were counted before a later pair raised.
    """

    @pytest.mark.parametrize("keys", [
        ["a", ["x"], "b"],
        [["x"]],
        ["a"] * 20 + [1.5],
        [f"k{i}" for i in range(HASH_CHUNK + 10)] + [{"x": 1}],
    ], ids=["scalar-path", "single", "window", "second-chunk"])
    def test_bad_key_type(self, tmp_path, keys):
        service = make(wal=tmp_path / "svc.wal")
        service.allocate("warm-up")
        before = full_state(service)
        with pytest.raises(TypeError, match="key must be int or str, got"):
            service.allocate_many(keys)
        assert full_state(service) == before
        with pytest.raises(TypeError, match="got list"):
            service.allocate(["x"], client="c", seq=1)
        assert full_state(service) == before

    @pytest.mark.parametrize("keys", [
        ["a", "\ud800"],
        ["a"] * 20 + ["ok\udfff"],
        [f"k{i}" for i in range(HASH_CHUNK + 10)] + ["\ud800"],
    ], ids=["scalar-path", "window", "second-chunk"])
    def test_key_that_does_not_encode(self, tmp_path, keys):
        # A lone surrogate is a valid JSON string but not UTF-8: the hash
        # would raise only once the keys before it were placed.
        service = make(wal=tmp_path / "svc.wal")
        service.allocate("warm-up")
        before = full_state(service)
        with pytest.raises(UnicodeEncodeError):
            service.allocate_many(keys)
        assert full_state(service) == before
        with pytest.raises(UnicodeEncodeError):
            service.allocate("\ud800", client="c", seq=1)
        assert full_state(service) == before

    def test_bytes_key_needs_no_wal(self, tmp_path):
        # The hash takes bytes, a JSON log record cannot.
        service = make(wal=tmp_path / "svc.wal")
        service.allocate("warm-up")
        before = full_state(service)
        with pytest.raises(TypeError, match="key must be int or str, got bytes"):
            service.allocate_many(["a", b"b"])
        assert full_state(service) == before
        assert len(make().allocate_many(["a", b"b"])) == 2

    def test_stale_pair_counts_no_dedup_hit(self, tmp_path):
        service = make(wal=tmp_path / "svc.wal")
        service.allocate("k0", client="a", seq=1)
        service.allocate("k1", client="b", seq=5)
        before = full_state(service)
        # a's pair is a duplicate, b's is stale: the batch is refused.
        with pytest.raises(StaleSequenceError):
            service.allocate_many(["k0", "k2", "k3"], ["a", None, "b"], [1, None, 4])
        assert full_state(service) == before
        assert service.allocate_many(["k0"], ["a"], [1]) == [service._dedup["a"][1]["peer"]]
        assert service.dedup_hits == 1

    def test_refused_key_keeps_the_log_recoverable(self, tmp_path):
        path = tmp_path / "svc.wal"
        service, reference = make(wal=path), make()
        keys = list(TRACE.keys())[:200]
        for lo in range(0, len(keys), 50):
            with pytest.raises(TypeError):
                service.allocate_many(keys[lo:lo + 3] + [None])
            service.allocate_many(keys[lo:lo + 50])
            reference.allocate_many(keys[lo:lo + 50])
        service.close_wal()
        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert state_of(recovered) == state_of(service) == state_of(reference)


def _client_batches(size):
    """Batches of trace keys in which clients ``a``, ``b`` and ``c`` each
    send one request (the first three slots) and the rest are anonymous.
    Every third batch a client resends its previous request, as after a
    lost reply, instead of a new sequence id."""
    keys = list(TRACE.keys())
    last = {}  # client -> (seq, key) of its latest request
    batches = []
    for b in range(min(len(keys) // size, 60)):
        chunk = keys[b * size:(b + 1) * size]
        clients, seqs = [None] * size, [None] * size
        for slot, client in enumerate("abc"):
            if client in last and (b + slot) % 3 == 0:
                seq, chunk[slot] = last[client]
            else:
                seq = last.get(client, (0, None))[0] + 1
            last[client] = (seq, chunk[slot])
            clients[slot], seqs[slot] = client, seq
        batches.append((chunk, clients, seqs))
    return batches


class TestIdempotentBatches:
    @pytest.mark.parametrize("size", [3, 16, 200])
    @pytest.mark.parametrize("T", [1, 7, 64])
    def test_wal_and_dedup_equal_per_key(self, tmp_path, size, T):
        batched = make(2, T, wal=WriteAheadLog(tmp_path / "batched.wal"))
        reference = make(2, T, wal=WriteAheadLog(tmp_path / "reference.wal"))
        out, expected = [], []
        for keys, clients, seqs in _client_batches(size):
            out += batched.allocate_many(keys, clients, seqs)
            expected += [reference.allocate(k, client=c, seq=s)
                         for k, c, s in zip(keys, clients, seqs)]
        assert out == expected
        assert state_of(batched) == state_of(reference)
        assert batched.dedup_hits > 0
        stats = batched.stats()
        assert stats["latency"]["samples"] == stats["requests"]
        batched.close_wal()
        reference.close_wal()
        frames = WriteAheadLog(tmp_path / "batched.wal").scan().records
        ref_frames = WriteAheadLog(tmp_path / "reference.wal").scan().records
        assert logged_events(frames) == logged_events(ref_frames)
        if T > 1:  # windows of several keys: fewer frames than placements
            assert len(frames) < len(ref_frames)

    def test_stale_sequence_raises_with_nothing_placed(self):
        service, reference = make(), make()
        for svc in (service, reference):
            svc.allocate("k0", client="c", seq=2)
        with pytest.raises(StaleSequenceError):
            service.allocate_many(["k1", "k2", "k3"], ["d", None, "c"], [1, None, 1])
        assert state_of(service) == state_of(reference)

    def test_repeated_client_in_one_batch_is_rejected(self):
        service, reference = make(), make()
        with pytest.raises(ValueError, match="at most once"):
            service.allocate_many(["k1", "k2", "k3"], ["c", None, "c"], [1, None, 2])
        assert state_of(service) == state_of(reference)


class TestBatchedRecovery:
    @pytest.mark.parametrize("d, T", [(1, 1), (2, 7), (3, 64), (4, 200)])
    def test_recover_replays_runs_in_batches(self, tmp_path, d, T):
        path = tmp_path / "svc.wal"
        logged = make(d, T, wal=WriteAheadLog(path))
        logged.replay(TRACE, SCHEDULE)
        logged.close_wal()
        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert recovered.recovered_records == TRACE.count + len(SCHEDULE)
        assert state_of(recovered) == state_of(logged)

    def test_long_key_inside_a_run_recovers(self, tmp_path):
        """A 64 KiB key (the wire's line limit) in the middle of a long
        run of logged placements recovers to the same state."""
        keys = list(TRACE.keys())[:1200]
        keys[700] = "K" * 65536
        path = tmp_path / "svc.wal"
        logged = make(2, 64, wal=WriteAheadLog(path))
        for key in keys:
            logged.allocate(key)
        logged.close_wal()
        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert recovered.recovered_records == len(keys)
        assert state_of(recovered) == state_of(logged)

    def test_divergent_record_is_named(self, tmp_path):
        """One peer id forged inside a window's frame: recovery names the
        placement's index in the log."""
        path = tmp_path / "svc.wal"
        logged = make(2, 64, wal=path)
        logged.allocate_many(list(TRACE.keys())[:300])
        logged.close_wal()
        records = list(WriteAheadLog(path).scan().records)
        assert len(records) == 1 + 5  # the meta, then windows of 64
        for index in (0, 63, 64, 200, 299):
            forged_path = tmp_path / f"forged-{index}.wal"
            forged = WriteAheadLog(forged_path)
            placed = 0
            for rec in records:
                if rec["t"] == "allocs":
                    pids = list(rec["p"])
                    if placed <= index < placed + len(pids):
                        j = index - placed
                        pids[j] = "peer-0" if pids[j] != "peer-0" else "peer-1"
                    placed += len(pids)
                    rec = dict(rec, p=pids)
                forged.append(rec)
            forged.close()
            with pytest.raises(WalError, match=f"placement {index}: replayed"):
                AllocationService.recover(forged_path)


class TestBatchBookkeeping:
    def test_record_many_wraps_the_reservoir(self):
        rec = LatencyRecorder(capacity=8)
        rec.record(1.0)
        rec.record_many(2.0, 10)
        assert rec.count == 11
        assert rec.percentile(0) == 2.0  # the 1.0 sample was overwritten
        rec.record_many(3.0, 0)
        assert rec.count == 11

    def test_trace_key_ranges_and_shared_strings(self):
        keys = list(TRACE.keys())
        assert keys == [f"obj-{int(o)}" for o in TRACE.objects]
        assert list(TRACE.keys(100, 250)) == keys[100:250]
        assert list(TRACE.keys(1400)) == keys[1400:]
        first = {}
        for key in keys:
            assert first.setdefault(key, key) is key  # repeats share one str


def _append_failing_at(call: int):
    """Patch :meth:`WriteAheadLog.append` to raise ENOSPC on its *call*-th
    call from now on (that call only), as a full disk would."""
    real, calls = WriteAheadLog.append, []

    def append(wal, *records):
        calls.append(len(records))
        if len(calls) == call:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(wal, *records)

    return mock.patch.object(WriteAheadLog, "append", append)


def streams(service):
    return (service._tie_rng.bit_generator.state,
            service._churn_rng.bit_generator.state, service._join_counter)


class TestFailedAppendRewindsStreams:
    """A log append that fails leaves the tie and churn streams (and the
    join counter) where the log ends, so the service keeps serving from a
    state that recovery of its log reaches.  Before the fix the draws of
    the failed window or churn event stayed consumed (and a failed join
    kept its minted id), and ``recover()`` refused the log with a
    :class:`WalError` naming the first diverging placement or churn."""

    @staticmethod
    def make_small(path):
        return AllocationService([f"peer-{i}" for i in range(8)], d=2,
                                 refresh_every=16, resolution=8, seed=7, wal=path)

    @staticmethod
    def recovers_to(service, path):
        service.close_wal()
        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert full_state(recovered)[:3] == full_state(service)[:3]
        assert streams(recovered) == streams(service)

    @pytest.mark.parametrize("keys, fail_at", [
        (40, 2),                # the batch path, its second window
        (5, 1),                 # the per-key path, its first window
        (HASH_CHUNK + 40, 258),  # a window of the second hash chunk
    ], ids=["window", "per-key", "second-chunk"])
    def test_failed_window_recovers(self, tmp_path, keys, fail_at):
        path = tmp_path / "svc.wal"
        service = self.make_small(path)
        ties = service._tie_rng.bit_generator.state
        with _append_failing_at(fail_at), pytest.raises(OSError, match="No space"):
            service.allocate_many([f"k{i}" for i in range(keys)])
        committed = 16 * (fail_at - 1)
        assert service.requests == committed
        # The tie stream sits exactly after the committed windows' draws.
        reference = self.make_small(tmp_path / "reference.wal")
        reference._tie_rng.bit_generator.state = ties
        reference._tie_rng.random(committed)
        assert service._tie_rng.bit_generator.state == reference._tie_rng.bit_generator.state
        for i in range(200):
            service.allocate(f"after-{i}")
        self.recovers_to(service, path)

    @pytest.mark.parametrize("kind", ["leave", "join"])
    def test_failed_churn_recovers(self, tmp_path, kind):
        path = tmp_path / "svc.wal"
        service = self.make_small(path)
        service.allocate_many([f"k{i}" for i in range(30)])
        before = streams(service)
        with _append_failing_at(1), pytest.raises(OSError, match="No space"):
            service.apply_churn(ChurnAction(time=0.0, kind=kind))
        assert streams(service) == before
        assert service.joins == service.leaves == 0
        for action in ("join", "leave", "leave", "join"):
            service.apply_churn(ChurnAction(time=0.0, kind=action))
            service.allocate_many([f"{action}-{i}" for i in range(20)])
        self.recovers_to(service, path)


def _pipelined(path, depth):
    """The trace's keys sent in batches of *depth* (what the front end
    places per drained batch at that pipelining depth), three churn
    events between batches, every 50th key an idempotent request."""
    service = make(3, 7, wal=WriteAheadLog(path))
    keys = list(TRACE.keys())
    for lo in range(0, len(keys), depth):
        if lo and lo % 384 == 0:
            service.apply_churn(ChurnAction(time=0.0, kind=("join", "leave")[lo % 2]))
        batch = keys[lo:lo + depth]
        clients = [f"c{(lo + i) // 50}" if (lo + i) % 50 == 0 else None
                   for i in range(len(batch))]
        seqs = [1 if c else None for c in clients]
        service.allocate_many(batch, clients, seqs)
    service.close_wal()
    return service


class TestNativeOnOff:
    """The C window kernel and its Python twin leave the service in the
    same state: digest, loads, dedup table, WAL bytes, logged events and
    both RNG streams, live and after recovery."""

    @pytest.mark.parametrize("depth", [1, 128])
    def test_same_service_either_way(self, tmp_path, depth, monkeypatch):
        calls = []
        real = native.WindowKernel.__call__
        monkeypatch.setattr(native.WindowKernel, "__call__",
                            lambda *a: calls.append(len(a[1])) or real(*a))
        runs = {}
        for enabled in (True, False):
            path = tmp_path / f"native-{enabled}.wal"
            with forced_native(enabled):
                live = _pipelined(path, depth)
                live_calls = len(calls)
                recovered = AllocationService.recover(path)
                recovered.close_wal()
            events = logged_events(WriteAheadLog(path).scan().records)
            runs[enabled] = (full_state(live), full_state(recovered), events,
                             live_calls, len(calls) - live_calls)
            calls.clear()
        on, off = runs[True], runs[False]
        assert on[:3] == off[:3]
        assert on[1][:3] == on[0][:3]  # recovered == live, streams included
        assert off[3:] == (0, 0)
        if native.available():
            assert on[3] > 0 if depth == 128 else on[3] == 0
            assert on[4] > 0  # recovery places each run of frames in chunks

    def test_no_compiler_follows_todays_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "ENABLED", True)
        monkeypatch.setattr(native, "_compiler", lambda: None)
        monkeypatch.setattr(native, "WindowKernel",
                            mock.Mock(side_effect=AssertionError("C kernel called")))
        for (d, T), digest in GOLDEN_DIGESTS.items():
            assert make(d, T).replay(TRACE, SCHEDULE).placement_digest == digest
        assert native.status() == "no compiler"
