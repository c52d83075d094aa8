"""Tests for the allocation service core and the asyncio front end."""

import asyncio
import json

import pytest

from repro.service import (
    AllocationService,
    ChurnAction,
    TraceSpec,
    generate_churn_schedule,
    generate_trace,
    run_server,
)

PEERS = [f"peer-{i}" for i in range(8)]
TRACE = generate_trace(
    TraceSpec(requests=3000, users=2000, objects=800, rate=500.0, seed=21)
)
SCHEDULE = generate_churn_schedule(6, TRACE.duration, seed=13)


def fresh_service(**kw):
    defaults = dict(d=2, refresh_every=32, seed=0)
    defaults.update(kw)
    return AllocationService(PEERS, **defaults)


class TestAllocate:
    def test_counts_and_digest_advance(self):
        svc = fresh_service()
        before = svc.placement_digest()
        pid = svc.allocate("obj-1")
        assert pid in svc.peer_ids
        assert svc.requests == 1
        assert svc.placement_digest() != before

    def test_loads_sum_to_requests_without_churn(self):
        svc = fresh_service()
        for i in range(200):
            svc.allocate(f"obj-{i}")
        assert sum(svc.stats()["load"]["per_peer"].values()) == 200


class TestDeterministicReplay:
    def test_bit_identical_across_runs(self):
        a = fresh_service().replay(TRACE, SCHEDULE, keep_placements=True)
        b = fresh_service().replay(TRACE, SCHEDULE, keep_placements=True)
        assert a.placement_digest == b.placement_digest
        assert a.placements == b.placements
        assert a.final_loads == b.final_loads
        assert a.trace_digest == TRACE.digest()

    def test_pace_does_not_change_decisions(self):
        fast = fresh_service().replay(TRACE, SCHEDULE)
        # Pace far above real time: finishes quickly but exercises the
        # throttled code path.
        paced = fresh_service().replay(TRACE, SCHEDULE, pace=1e6)
        assert paced.placement_digest == fast.placement_digest
        assert paced.final_loads == fast.final_loads

    def test_seed_changes_decisions(self):
        a = fresh_service(seed=0).replay(TRACE, SCHEDULE)
        b = fresh_service(seed=1).replay(TRACE, SCHEDULE)
        # Different tie/churn streams: the decision sequence must differ.
        assert a.placement_digest != b.placement_digest

    def test_staleness_bound_matters(self):
        fresh = fresh_service(refresh_every=1).replay(TRACE)
        stale = fresh_service(refresh_every=TRACE.count).replay(TRACE)
        assert fresh.placement_digest != stale.placement_digest
        # A fully stale view degenerates towards one-choice behaviour, so
        # the fresh view cannot be worse on this pinned trace.
        assert fresh.max_over_mean <= stale.max_over_mean

    def test_d2_beats_d1_on_pinned_trace(self):
        one = fresh_service(d=1).replay(TRACE)
        two = fresh_service(d=2).replay(TRACE)
        assert two.max_over_mean < one.max_over_mean

    def test_trailing_churn_applies(self):
        late = (ChurnAction(time=TRACE.duration + 100.0, kind="join"),)
        rep = fresh_service().replay(TRACE, late)
        assert rep.joins == 1

    def test_empty_trace_replay(self):
        rep = fresh_service().replay(
            generate_trace(TraceSpec(requests=0)), ()
        )
        assert rep.requests == 0
        assert rep.max_load == 0
        assert rep.placements == ()

    def test_rejects_negative_pace(self):
        with pytest.raises(ValueError, match="pace"):
            fresh_service().replay(TRACE, pace=-1.0)


class TestChurn:
    def test_join_starts_at_zero_load(self):
        svc = fresh_service()
        resolved = svc.apply_churn(ChurnAction(time=0.0, kind="join"))
        assert resolved["kind"] == "join"
        pid = resolved["peer_id"]
        assert pid in svc.peer_ids
        assert svc.stats()["load"]["per_peer"][pid] == 0

    def test_leave_drops_peer_and_counts(self):
        svc = fresh_service()
        for i in range(50):
            svc.allocate(f"obj-{i}")
        victim = svc.peer_ids[0]
        resolved = svc.apply_churn(
            ChurnAction(time=0.0, kind="leave", peer_id=victim)
        )
        assert resolved == {
            "kind": "leave",
            "peer_id": victim,
            "copies_moved": resolved["copies_moved"],
        }
        assert victim not in svc.peer_ids
        assert victim not in svc.stats()["load"]["per_peer"]

    def test_leave_at_floor_is_skip(self):
        svc = AllocationService(["a", "b"], replication=2, d=2, seed=0)
        resolved = svc.apply_churn(ChurnAction(time=0.0, kind="leave"))
        assert resolved["kind"] == "skip"
        assert resolved["copies_moved"] == 0
        assert set(svc.peer_ids) == {"a", "b"}
        assert svc.skips == 1

    def test_leave_unknown_peer_raises(self):
        with pytest.raises(KeyError):
            fresh_service().apply_churn(
                ChurnAction(time=0.0, kind="leave", peer_id="ghost")
            )

    def test_churn_forces_view_refresh(self):
        svc = fresh_service(refresh_every=1000)
        for i in range(10):
            svc.allocate(f"obj-{i}")
        assert svc.stats()["staleness"]["age"] == 10
        svc.apply_churn(ChurnAction(time=0.0, kind="join"))
        assert svc.stats()["staleness"]["age"] == 0


class TestStats:
    def test_shape(self):
        svc = fresh_service()
        for i in range(100):
            svc.allocate(f"obj-{i}")
        stats = svc.stats()
        assert stats["requests"] == 100
        assert stats["peers"] == len(PEERS)
        assert stats["d"] == 2
        assert stats["latency"]["samples"] == 100
        assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"] >= 0.0
        assert stats["load"]["max"] >= stats["load"]["mean"] > 0
        assert stats["load"]["max_over_mean"] >= 1.0
        assert len(stats["load"]["per_peer"]) == len(PEERS)
        assert stats["staleness"]["refresh_every"] == 32
        assert stats["churn"] == {"joins": 0, "leaves": 0, "skips": 0}
        assert stats["placement_digest"] == svc.placement_digest()

    def test_imbalance_is_over_capacity(self):
        """``max_over_mean`` is the paper's: placements / capacity, over
        the current ring's quantised capacities; the raw-count ratio is
        ``max_over_mean_raw``.  The replay report agrees with stats()."""
        svc = fresh_service()
        report = svc.replay(TRACE, SCHEDULE)
        load = svc.stats()["load"]
        counts = load["per_peer"]
        caps = {pid: svc._placer.capacity_of(pid) for pid in counts}
        average = sum(counts.values()) / sum(caps.values())
        paper = max(counts[pid] / caps[pid] for pid in counts) / average
        raw = max(counts.values()) / (sum(counts.values()) / len(counts))
        assert load["max_over_mean"] == pytest.approx(paper, rel=1e-12)
        assert load["max_over_mean_raw"] == pytest.approx(raw, rel=1e-12)
        assert paper != pytest.approx(raw)
        assert report.capacities == caps
        assert report.max_over_mean == load["max_over_mean"]
        assert report.max_over_mean_raw == pytest.approx(raw, rel=1e-12)

    def test_json_serialisable(self):
        svc = fresh_service()
        svc.allocate("obj-0")
        json.dumps(svc.stats())

    def test_empty_service(self):
        stats = fresh_service().stats()
        assert stats["requests"] == 0
        assert stats["load"]["max_over_mean"] == 0.0
        assert stats["load"]["max_over_mean_raw"] == 0.0
        # An idle server has no latency distribution — None (JSON null),
        # not a fake 0 ms.
        assert stats["latency"]["p50_ms"] is None
        assert stats["latency"]["p99_ms"] is None
        assert stats["latency"]["samples"] == 0
        json.dumps(stats)  # null must serialise

    def test_error_and_dedup_counters_present(self):
        stats = fresh_service().stats()
        assert stats["errors"] == {
            "oversized": 0, "bad_json": 0, "handler": 0, "stale_seq": 0,
        }
        assert stats["dedup_hits"] == 0
        assert stats["wal"] is None


class TestAsyncServer:
    def _roundtrip(self, messages, svc=None, **server_kw):
        """Start a server, send each message, return the decoded replies.

        A message may be raw ``bytes`` (sent verbatim, newline included)
        instead of a dict — used to exercise the framing error paths.
        Pass ``svc`` to inspect service state after the exchange.
        """

        async def run():
            service = fresh_service() if svc is None else svc
            bound = {}
            server_task = asyncio.ensure_future(
                run_server(service, port=0,
                           ready=lambda addr: bound.update(addr=addr),
                           **server_kw)
            )
            try:
                for _ in range(100):
                    if bound:
                        break
                    await asyncio.sleep(0.01)
                assert bound, "server never published its address"
                host, port = bound["addr"]
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for msg in messages:
                    if isinstance(msg, (bytes, bytearray)):
                        writer.write(bytes(msg))
                    else:
                        writer.write((json.dumps(msg) + "\n").encode())
                    await writer.drain()
                    replies.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass

        return asyncio.run(run())

    def test_ping_alloc_stats_churn(self):
        replies = self._roundtrip(
            [
                {"op": "ping"},
                {"op": "alloc", "key": "obj-1"},
                {"op": "churn", "kind": "join"},
                {"op": "stats"},
            ]
        )
        ping, alloc, churn, stats = replies
        assert ping == {"ok": True, "pong": True}
        assert alloc["ok"] and alloc["peer"] in PEERS
        assert churn["ok"] and churn["kind"] == "join"
        assert stats["ok"]
        assert stats["stats"]["requests"] == 1
        assert stats["stats"]["churn"]["joins"] == 1

    def test_error_paths(self):
        replies = self._roundtrip(
            [
                {"op": "alloc"},
                {"op": "churn", "kind": "explode"},
                {"op": "churn", "kind": "leave", "peer_id": "ghost"},
                {"op": "warp"},
            ]
        )
        assert all(not r["ok"] for r in replies)
        assert "key" in replies[0]["error"]
        assert "join" in replies[1]["error"]
        assert "ghost" in replies[2]["error"]
        assert "unknown op" in replies[3]["error"]

    def test_malformed_json_reports_error(self):
        async def run():
            svc = fresh_service()
            bound = {}
            task = asyncio.ensure_future(
                run_server(svc, port=0, ready=lambda a: bound.update(addr=a))
            )
            try:
                while not bound:
                    await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_connection(*bound["addr"])
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return reply
            finally:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

        reply = asyncio.run(run())
        assert not reply["ok"]
        assert "bad json" in reply["error"]


class TestGracefulDegradation:
    """The connection must survive every malformed or failing request.

    These pin the PR-10 fixes: pre-fix, an oversized line tripped
    asyncio's 64 KiB readline limit and any ``_handle_request`` exception
    propagated — both killed the connection with no reply, so each of
    these tests would hang or fail on the old ``_serve_connection``.
    """

    _roundtrip = TestAsyncServer._roundtrip

    def test_oversized_line_gets_error_and_connection_survives(self):
        svc = fresh_service()
        big = b'{"op": "alloc", "key": "' + b"x" * 200_000 + b'"}\n'
        replies = self._roundtrip([big, {"op": "ping"}], svc=svc)
        assert not replies[0]["ok"]
        assert "exceeds" in replies[0]["error"]
        # The follow-up request on the same connection still works.
        assert replies[1] == {"ok": True, "pong": True}
        assert svc.errors["oversized"] == 1
        assert svc.requests == 0  # the oversized alloc never ran

    def test_oversized_bound_is_configurable(self):
        svc = fresh_service()
        line = b'{"op": "ping", "pad": "' + b"y" * 300 + b'"}\n'
        replies = self._roundtrip(
            [line, {"op": "ping"}], svc=svc, max_line_bytes=256)
        assert not replies[0]["ok"] and "256" in replies[0]["error"]
        assert replies[1]["ok"]

    def test_handler_exception_gets_error_and_connection_survives(self):
        svc = fresh_service()

        def explode(key, view, tie_u):
            raise RuntimeError("placer blew up")

        svc._placer.place = explode
        replies = self._roundtrip(
            [{"op": "alloc", "key": "obj-1"}, {"op": "ping"}], svc=svc)
        assert not replies[0]["ok"]
        assert "internal error" in replies[0]["error"]
        assert "placer blew up" in replies[0]["error"]
        assert replies[1] == {"ok": True, "pong": True}
        assert svc.errors["handler"] == 1

    def test_non_object_json_reports_error(self):
        replies = self._roundtrip([b"[1, 2, 3]\n", {"op": "ping"}])
        assert not replies[0]["ok"]
        assert "JSON object" in replies[0]["error"]
        assert replies[1]["ok"]

    def test_bad_json_counts_in_stats(self):
        svc = fresh_service()
        self._roundtrip([b"not json\n", b"[]\n"], svc=svc)
        assert svc.errors["bad_json"] == 2
        assert svc.stats()["errors"]["bad_json"] == 2


class TestIdempotentRequests:
    _roundtrip = TestAsyncServer._roundtrip

    def test_duplicate_seq_replays_reply_without_replacing(self):
        svc = fresh_service()
        replies = self._roundtrip(
            [
                {"op": "alloc", "key": "obj-1", "client": "c", "seq": 1},
                {"op": "alloc", "key": "obj-1", "client": "c", "seq": 1},
                {"op": "alloc", "key": "obj-2", "client": "c", "seq": 2},
            ],
            svc=svc,
        )
        first, dup, nxt = replies
        assert first["ok"] and first["dup"] is False
        assert dup["ok"] and dup["dup"] is True
        assert dup["peer"] == first["peer"]
        assert nxt["ok"] and nxt["dup"] is False
        # The duplicate placed nothing and consumed no tie draw.
        assert svc.requests == 2
        assert svc.dedup_hits == 1
        ref = fresh_service()
        ref.allocate("obj-1")
        ref.allocate("obj-2")
        assert svc.placement_digest() == ref.placement_digest()

    def test_stale_seq_is_structured_error(self):
        svc = fresh_service()
        replies = self._roundtrip(
            [
                {"op": "alloc", "key": "obj-1", "client": "c", "seq": 5},
                {"op": "alloc", "key": "obj-1", "client": "c", "seq": 3},
                {"op": "ping"},
            ],
            svc=svc,
        )
        assert replies[0]["ok"]
        assert not replies[1]["ok"]
        assert "below the last applied" in replies[1]["error"]
        assert replies[2]["ok"]
        assert svc.errors["stale_seq"] == 1

    def test_duplicate_churn_seq_replays_resolution(self):
        svc = fresh_service()
        replies = self._roundtrip(
            [
                {"op": "churn", "kind": "join", "client": "c", "seq": 1},
                {"op": "churn", "kind": "join", "client": "c", "seq": 1},
            ],
            svc=svc,
        )
        assert replies[0]["ok"] and replies[0]["dup"] is False
        assert replies[1]["ok"] and replies[1]["dup"] is True
        assert replies[1]["peer_id"] == replies[0]["peer_id"]
        assert svc.joins == 1

    def test_client_without_seq_rejected(self):
        replies = self._roundtrip(
            [
                {"op": "alloc", "key": "k", "client": "c"},
                {"op": "alloc", "key": "k", "client": "c", "seq": "seven"},
            ]
        )
        assert not replies[0]["ok"] and "both" in replies[0]["error"]
        assert not replies[1]["ok"] and "integer" in replies[1]["error"]
