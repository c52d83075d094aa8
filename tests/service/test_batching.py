"""Window batching: ``allocate_many`` / ``replay()`` / ``recover()`` against
the per-key ``allocate`` loop, bit for bit.

Every configuration is decided twice — once a key at a time, once through
the batched pipeline (vectorised hashing, one ring lookup per chunk, one
decision step per staleness window) — and must agree on the placement
digest, per-peer counts, staleness and latency bookkeeping, the dedup
table and the write-ahead log.
"""

import pytest

from repro.service import (
    AllocationService,
    StaleSequenceError,
    TraceSpec,
    WalError,
    WriteAheadLog,
    generate_churn_schedule,
    generate_trace,
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
        batched = make(2, T, wal=WriteAheadLog(tmp_path / "batched.wal",
                                               sync_every=4096))
        reference = make(2, T, wal=WriteAheadLog(tmp_path / "reference.wal",
                                                 sync_every=4096))
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
        assert (WriteAheadLog(tmp_path / "batched.wal").scan().records
                == WriteAheadLog(tmp_path / "reference.wal").scan().records)

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
        logged = make(d, T, wal=WriteAheadLog(path, sync_every=4096))
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
        logged = make(2, 64, wal=WriteAheadLog(path, sync_every=4096))
        for key in keys:
            logged.allocate(key)
        logged.close_wal()
        recovered = AllocationService.recover(path)
        recovered.close_wal()
        assert recovered.recovered_records == len(keys)
        assert state_of(recovered) == state_of(logged)

    def test_divergent_record_is_named(self, tmp_path):
        path = tmp_path / "svc.wal"
        logged = make(2, 64, wal=path)
        logged.allocate_many(list(TRACE.keys())[:300])
        logged.close_wal()
        records = list(WriteAheadLog(path).scan().records)
        forged = WriteAheadLog(tmp_path / "forged.wal")
        for i, rec in enumerate(records):
            if i == 200:
                rec = dict(rec, p="peer-0" if rec["p"] != "peer-0" else "peer-1")
            forged.append(rec)
        forged.close()
        with pytest.raises(WalError, match="record 200: replayed placement"):
            AllocationService.recover(tmp_path / "forged.wal")


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
