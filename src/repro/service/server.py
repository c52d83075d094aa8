"""The live allocation service: d-choice placement behind an asyncio front.

:class:`AllocationService` is the synchronous core — membership via a
:class:`~repro.p2p.dht.DHT`, placement via :class:`~.views.DChoicePlacer`
over a :class:`~.views.StaleLoadView`, stats via :mod:`~.metrics` — and is
deliberately event-loop-free so deterministic replay and tests need no
asyncio at all.  :func:`run_server` wraps it in a line-delimited-JSON TCP
endpoint (the fabric's wire idiom) with ``alloc`` / ``stats`` / ``churn``
/ ``ping`` operations; ``stats`` is the `/metrics`-style scrape.

Determinism contract (see ROADMAP conventions): given the same seed, the
same trace, and the same churn schedule, :meth:`AllocationService.replay`
produces a bit-identical placement sequence — pinned by the running
sha256 ``placement_digest`` — and identical final per-peer counts,
regardless of replay pacing or how many times the stats endpoint is
scraped.  Wall-clock latencies are observability only and are excluded.

Window batching: :meth:`AllocationService.allocate_many` is the one
placement pipeline — :meth:`~AllocationService.allocate` is a batch of
one.  It splits its keys at view refreshes and decides each staleness
window in one step (see :mod:`~.views`): vectorised hashing and one ring
lookup per :data:`HASH_CHUNK` keys, one tie-stream draw of the window's
length, then the window's WAL records, counter increments, digest update
and latency samples.  Below :data:`~.views.BATCH_CROSSOVER` keys the same
pipeline runs the scalar path, so a single ``alloc`` from the TCP front
end costs no NumPy call.  The virtual-clock :meth:`replay` and
:meth:`recover` feed it whole stretches between churn events; a paced
replay (``pace > 0``) is the wall-clock mode and places one key per call.
A batched window records one latency sample per placement, all equal to
the window's wall time (its share of the chunk's hashing included)
divided by its length: after a virtual-clock replay or a recovery the
``stats()`` p50/p99 are percentiles of these per-window averages, not of
latencies any single request saw.

Crash-recovery clause: with a :class:`~.wal.WriteAheadLog` attached, every
placement and resolved churn event is logged *before* the state mutates,
and :meth:`AllocationService.recover` rebuilds the exact service — per-peer
counters, ring/placer, both RNG stream positions, the placement digest,
and the per-client dedup table — by replaying the log through this same
code path (divergence is a :class:`~.wal.WalError`, not silent drift).
Mutating requests may carry a ``(client, seq)`` pair; the service answers
a replayed ``seq`` from its dedup table without consuming any RNG, so a
client retry after a lost reply never double-places and never shifts the
tie stream.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from ..p2p.dht import DHT
from ..sampling.rngutils import make_rng, spawn_seed_sequences
from .faults import FaultController, FaultPlan
from .metrics import LatencyRecorder, service_stats
from .traces import ChurnAction, Trace
from .views import BATCH_CROSSOVER, DChoicePlacer, StaleLoadView
from .wal import WalError, WriteAheadLog

__all__ = [
    "AllocationService",
    "ReplayReport",
    "ServiceError",
    "StaleSequenceError",
    "run_server",
]

#: Format tag of the WAL meta record; bump on incompatible record changes.
WAL_FORMAT = "repro.service.wal/1"

#: Default bound on one request line at the server (bytes, sans newline).
MAX_LINE_BYTES = 65536

#: Keys hashed per vectorised step of :meth:`AllocationService.allocate_many`;
#: bounds its scratch memory whatever the batch size.
HASH_CHUNK = 4096


class ServiceError(Exception):
    """A request the service cannot serve (reported, not fatal)."""


class StaleSequenceError(ServiceError):
    """A (client, seq) pair below the client's last applied sequence —
    the cached reply for it is gone, so the request cannot be answered
    idempotently."""


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one deterministic trace replay."""

    requests: int
    placement_digest: str
    trace_digest: str
    final_loads: dict[str, int]
    max_load: int
    mean_load: float
    joins: int
    leaves: int
    skips: int
    view_refreshes: int
    wall_seconds: float
    placements: tuple[str, ...] = field(default=(), repr=False)

    @property
    def max_over_mean(self) -> float:
        """The paper's imbalance measure over the final counts."""
        return self.max_load / self.mean_load if self.mean_load > 0 else 0.0


class AllocationService:
    """Capacity-aware d-choice allocator with bounded-staleness views.

    Parameters
    ----------
    peers:
        Initial peer ids.
    d:
        Choices per request (``1`` = plain consistent hashing baseline).
    refresh_every:
        Staleness bound ``T``: placements served per load snapshot.
    replication, virtual_nodes:
        Forwarded to the underlying :class:`~repro.p2p.dht.DHT`.
    resolution:
        Arc-quantisation resolution for capacities.
    seed:
        Root seed; tie-breaking and churn-victim streams are spawned from
        it, so the whole decision sequence is a function of (seed, trace,
        churn schedule).
    wal:
        Optional write-ahead log (a :class:`~.wal.WriteAheadLog` or a
        path) to make the service crash-safe.  The log must be fresh or
        empty — restarting over an existing log goes through
        :meth:`recover` instead, which rebuilds state from it.  Requires
        an integer ``seed`` (recovery re-derives the RNG streams from it).
    """

    def __init__(
        self,
        peers,
        *,
        d: int = 2,
        refresh_every: int = 64,
        replication: int = 1,
        virtual_nodes: int = 1,
        resolution: int = 1000,
        seed=0,
        wal=None,
    ):
        self.d = d
        self.refresh_every = refresh_every
        self.resolution = resolution
        self._dht = DHT(peers, replication=replication, virtual_nodes=virtual_nodes)
        if wal is not None:
            seed = self._require_int_seed(seed)
        self.seed = seed
        tie_seed, churn_seed = spawn_seed_sequences(seed, 2)
        self._tie_rng = make_rng(tie_seed)
        self._churn_rng = make_rng(churn_seed)
        self._loads: dict[str, int] = {pid: 0 for pid in self._dht.peer_ids}
        self._view = StaleLoadView(lambda: self._loads, refresh_every)
        self._placer = DChoicePlacer(self._dht.ring, d=d, resolution=resolution)
        self._latency = LatencyRecorder()
        self._digest = hashlib.sha256()
        self.requests = 0
        self.joins = 0
        self.leaves = 0
        self.skips = 0
        self.dedup_hits = 0
        self.recovered_records = 0
        self.errors = {"oversized": 0, "bad_json": 0, "handler": 0, "stale_seq": 0}
        self._join_counter = 0
        self._dedup: dict[str, tuple[int, dict]] = {}
        self._initial_peers = [str(p) for p in peers]
        self._wal: WriteAheadLog | None = None
        if wal is not None:
            self._attach_fresh_wal(wal)

    # -- write-ahead log -------------------------------------------------------

    @staticmethod
    def _require_int_seed(seed) -> int:
        try:
            out = int(seed)
        except (TypeError, ValueError):
            out = None
        if out is None or out != seed:
            raise WalError(
                f"a WAL-backed service needs an integer seed (got {seed!r}) — "
                "recovery re-derives the RNG streams from it"
            )
        return out

    def _meta_record(self) -> dict:
        return {
            "t": "meta",
            "format": WAL_FORMAT,
            "peers": self._initial_peers,
            "d": self.d,
            "refresh_every": self.refresh_every,
            "replication": self._dht.replication,
            "virtual_nodes": self._dht.virtual_nodes,
            "resolution": self.resolution,
            "seed": self.seed,
        }

    def _attach_fresh_wal(self, wal) -> None:
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        scan = wal.scan()
        if scan.records:
            raise WalError(
                f"{wal.path} already holds {len(scan.records)} record(s); "
                "use AllocationService.recover() to restart from it"
            )
        if not scan.clean:
            wal.repair(scan)
        self._wal = wal
        wal.append(self._meta_record())
        wal.flush()

    def _wal_append(self, record: dict) -> None:
        if self._wal is not None:
            self._wal.append(record)

    def flush_wal(self) -> None:
        """Force the WAL's group commit (no-op without a WAL)."""
        if self._wal is not None:
            self._wal.flush()

    def close_wal(self) -> None:
        """Flush and detach the WAL; the service keeps serving unlogged."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @classmethod
    def recover(cls, wal, *, sync_every: int | None = None) -> "AllocationService":
        """Rebuild a service bit-identically from its write-ahead log.

        Scans the log, quarantines any torn tail (truncate-and-continue),
        reconstructs the service from the meta record, and replays every
        logged placement and churn event through the normal
        placement pipeline / :meth:`apply_churn` paths (each run of
        consecutive placements as one batch) — advancing the RNG
        streams, counters, digest, and dedup table exactly as the original
        process did.  Each replayed decision is checked against the logged
        outcome; a mismatch means the log and this build disagree and
        raises :class:`~.wal.WalError` rather than serving drifted state.
        The repaired log is then re-attached for appending.
        """
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal, sync_every=sync_every or 1)
        elif sync_every is not None:
            wal.sync_every = int(sync_every)
        scan = wal.scan()
        if not scan.records:
            raise WalError(f"{wal.path}: empty write-ahead log, nothing to recover")
        meta = scan.records[0]
        if meta.get("t") != "meta" or meta.get("format") != WAL_FORMAT:
            raise WalError(
                f"{wal.path}: first record is not a {WAL_FORMAT} meta record"
            )
        scan = wal.repair(scan)
        service = cls(
            meta["peers"],
            d=meta["d"],
            refresh_every=meta["refresh_every"],
            replication=meta["replication"],
            virtual_nodes=meta["virtual_nodes"],
            resolution=meta["resolution"],
            seed=meta["seed"],
        )
        service._replay_wal_records(scan.records[1:])
        service.recovered_records = len(scan.records) - 1
        service._wal = wal
        return service

    def _replay_wal_records(self, records) -> None:
        """Re-run logged events through the live code paths (WAL detached);
        each run of consecutive placements is placed as one batch."""
        assert self._wal is None
        i = 0
        while i < len(records):
            rec = records[i]
            kind = rec.get("t")
            if kind == "alloc":
                # A log holds no dedup hits or stale seqs (neither is
                # logged), so a run goes straight to placement; _commit
                # rebuilds the dedup table from it.
                end = i
                while end < len(records) and records[end].get("t") == "alloc":
                    end += 1
                run = records[i:end]
                pids = self._place_run([r["k"] for r in run],
                                       [r.get("c") for r in run],
                                       [r.get("s") for r in run])
                for j, (r, pid) in enumerate(zip(run, pids), start=i + 1):
                    if pid != r.get("p"):
                        raise WalError(
                            f"record {j}: replayed placement {pid!r} != logged "
                            f"{r.get('p')!r} — the log does not match this "
                            "build's decision pipeline"
                        )
                i = end
                continue
            if kind == "churn":
                action = ChurnAction(time=0.0, kind=rec["kind"], peer_id=rec.get("sched"))
                resolved = self.apply_churn(
                    action, client=rec.get("c"), seq=rec.get("s")
                )
                if (resolved["kind"], resolved["peer_id"]) != (rec.get("res"), rec.get("peer")):
                    raise WalError(
                        f"record {i + 1}: replayed churn "
                        f"{(resolved['kind'], resolved['peer_id'])!r} != logged "
                        f"{(rec.get('res'), rec.get('peer'))!r}"
                    )
            else:
                raise WalError(f"record {i + 1}: unknown record type {kind!r}")
            i += 1

    # -- idempotency -----------------------------------------------------------

    def _dedup_lookup(self, client, seq):
        """The cached reply for an already-applied (client, seq), if any.

        Runs *before* any RNG consumption so a duplicate request leaves
        the tie/churn streams untouched.  A sequence id below the client's
        last applied one raises :class:`StaleSequenceError` — its cached
        reply is gone (only the latest is kept), so idempotency cannot be
        honoured.
        """
        if client is None or seq is None:
            return None
        entry = self._dedup.get(str(client))
        seq = int(seq)
        if entry is None or seq > entry[0]:
            return None
        if seq == entry[0]:
            self.dedup_hits += 1
            return entry[1]
        raise StaleSequenceError(
            f"client {client!r} seq {seq} is below the last applied seq "
            f"{entry[0]} (out-of-order or reused sequence id)"
        )

    def _remember(self, client, seq, payload: dict) -> None:
        if client is not None and seq is not None:
            self._dedup[str(client)] = (int(seq), payload)

    # -- placement -------------------------------------------------------------

    @property
    def peer_ids(self) -> tuple[str, ...]:
        """Current membership."""
        return self._dht.peer_ids

    def allocate(self, key, *, client=None, seq=None) -> str:
        """Place one request; returns the chosen peer id.

        Decisions read the stale view; the live counter advances
        immediately (so the *next* snapshot sees it), exactly the
        ``simulate_batched`` regime with ``batch_size = refresh_every``.
        With a ``(client, seq)`` pair the placement is idempotent: a
        duplicate sequence id returns the originally chosen peer without
        placing again (or consuming the tie stream), and the decision is
        WAL-logged before any state mutates.  The placement itself is
        :meth:`allocate_many`'s pipeline with a batch of one.
        """
        cached = self._dedup_lookup(client, seq)
        if cached is not None:
            return cached["peer"]
        return self._place_run([key], (client,), (seq,))[0]

    def allocate_many(self, keys, clients=None, seqs=None) -> list[str]:
        """Place *keys* in order; returns the chosen peer ids.

        The same as calling :meth:`allocate` per key — same decisions, tie
        and dedup semantics, WAL records, digest, counters and one latency
        sample per placement — but each staleness window is decided in
        one step (see :mod:`~.views`).  ``clients`` and ``seqs``, when
        given, are per-key ``(client, seq)`` pairs (``None`` entries place
        without idempotency).  A batch carries each client at most once,
        so every pair is checked against the dedup table before anything
        is placed: a duplicate is answered from the table without
        consuming the tie stream, and a stale sequence id raises
        :class:`StaleSequenceError` with nothing placed.  A key the hash
        rejects (``TypeError``) fails the whole :data:`HASH_CHUNK` it is
        hashed with, before any key of that chunk is placed.
        """
        keys = list(keys)
        if clients is None and seqs is None:
            return self._place_run(keys, None, None)
        n = len(keys)
        clients = [None] * n if clients is None else list(clients)
        seqs = [None] * n if seqs is None else list(seqs)
        if not len(clients) == len(seqs) == n:
            raise ValueError("keys, clients and seqs must have equal lengths")
        named = [str(c) for c, s in zip(clients, seqs) if c is not None and s is not None]
        if len(set(named)) < len(named):
            raise ValueError("a batch carries each client at most once; "
                             "send a client's later requests in a later batch")
        cached = [self._dedup_lookup(c, s) for c, s in zip(clients, seqs)]
        fresh = [i for i, hit in enumerate(cached) if hit is None]
        placed = iter(self._place_run([keys[i] for i in fresh],
                                      [clients[i] for i in fresh],
                                      [seqs[i] for i in fresh]))
        return [next(placed) if hit is None else hit["peer"] for hit in cached]

    def _place_run(self, keys, clients, seqs) -> list[str]:
        """Place keys none of which is a dedup hit, window by window."""
        if not keys:
            return []
        if self._dht.n_peers < 1:
            raise ServiceError("no peers available to place on")
        if len(keys) < BATCH_CROSSOVER:
            out = []
            for j, key in enumerate(keys):
                t0 = time.perf_counter()
                tie_u = float(self._tie_rng.random())
                pid = self._placer.place(key, self._view, tie_u)
                self._commit([key], clients and clients[j:j + 1],
                             seqs and seqs[j:j + 1], [pid])
                self._latency.record(time.perf_counter() - t0)
                out.append(pid)
            return out
        out = []
        for lo in range(0, len(keys), HASH_CHUNK):
            hi = min(lo + HASH_CHUNK, len(keys))
            t0 = time.perf_counter()
            owners = self._placer.owners(keys[lo:hi])
            hash_share = (time.perf_counter() - t0) / (hi - lo)
            j = lo
            while j < hi:
                t0 = time.perf_counter()
                end = min(hi, j + self._view.remaining)
                tie_u = self._tie_rng.random(end - j)
                pids = self._placer.decide(owners[j - lo:end - lo], self._view, tie_u)
                self._commit(keys[j:end], clients and clients[j:end],
                             seqs and seqs[j:end], pids)
                self._latency.record_many(
                    (time.perf_counter() - t0) / (end - j) + hash_share, end - j)
                out += pids
                j = end
        return out

    def _commit(self, keys, clients, seqs, pids) -> None:
        """Log, then apply, the placements of one window (``clients`` /
        ``seqs`` are ``None`` or per-key lists)."""
        if self._wal is not None:
            for j, (key, pid) in enumerate(zip(keys, pids)):
                client = clients[j] if clients else None
                seq = seqs[j] if seqs else None
                self._wal.append({
                    "t": "alloc",
                    "c": None if client is None else str(client),
                    "s": None if seq is None else int(seq),
                    "k": key,
                    "p": pid,
                })
        loads = self._loads
        for pid in pids:
            loads[pid] += 1
        self._view.advance(len(pids))
        self._digest.update(("\n".join(pids) + "\n").encode("utf-8"))
        self.requests += len(pids)
        if clients:
            for client, seq, pid in zip(clients, seqs, pids):
                self._remember(client, seq, {"peer": pid})

    def placement_digest(self) -> str:
        """Running sha256 over the chosen-peer sequence so far."""
        return self._digest.hexdigest()

    # -- churn -----------------------------------------------------------------

    def apply_churn(self, action: ChurnAction, *, client=None, seq=None) -> dict:
        """Resolve one membership change; returns the resolved event.

        Joins mint a fresh ``churn-N`` peer starting at load 0.  Leaves
        evict a uniformly drawn victim (from the churn stream) unless an
        explicit ``peer_id`` was scheduled; a leave that would drop the
        membership below the replication floor is recorded as a ``skip``
        and changes nothing — the same explicit semantics as
        :func:`repro.p2p.churn.run_churn` (note the victim draw *is*
        consumed before the floor check, so the churn stream position is a
        function of the event sequence alone).  Any membership change
        rebuilds the placer and forces a view refresh (the ring changed,
        so serving decisions against the old snapshot would mix
        topologies).  The fully resolved event is WAL-logged before any
        mutation, and a ``(client, seq)`` duplicate returns the original
        resolution without re-drawing.
        """
        cached = self._dedup_lookup(client, seq)
        if cached is not None:
            return dict(cached)
        if action.kind == "join":
            pid = self._next_join_id()
            outcome = "join"
        else:
            if action.peer_id is not None:
                if action.peer_id not in self._dht.peer_ids:
                    raise KeyError(f"peer {action.peer_id!r} not present")
                pid = action.peer_id
            else:
                idx = int(self._churn_rng.integers(0, self._dht.n_peers))
                pid = self._dht.peer_ids[idx]
            if self._dht.n_peers <= self._dht.replication:
                outcome = "skip"
            else:
                outcome = "leave"
        self._wal_append({
            "t": "churn",
            "c": None if client is None else str(client),
            "s": None if seq is None else int(seq),
            "kind": action.kind,
            "sched": action.peer_id,
            "peer": pid,
            "res": outcome,
        })
        if outcome == "join":
            moved = self._dht.join(pid)
            self._loads[pid] = 0
            self.joins += 1
            resolved = {"kind": "join", "peer_id": pid, "copies_moved": moved}
        elif outcome == "leave":
            moved = self._dht.leave(pid)
            self._loads.pop(pid, None)
            self.leaves += 1
            resolved = {"kind": "leave", "peer_id": pid, "copies_moved": moved}
        else:
            self.skips += 1
            resolved = {"kind": "skip", "peer_id": pid, "copies_moved": 0}
            self._remember(client, seq, resolved)
            return dict(resolved)
        self._placer = DChoicePlacer(
            self._dht.ring, d=self.d, resolution=self.resolution
        )
        self._view.refresh()
        self._remember(client, seq, resolved)
        return dict(resolved)

    def _next_join_id(self) -> str:
        while True:
            pid = f"churn-{self._join_counter}"
            self._join_counter += 1
            if pid not in self._dht.peer_ids:
                return pid

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """The `/metrics`-style stats dict (JSON-ready).

        ``latency`` holds one sample per placement; placements decided in
        a batched window share that window's amortised per-key time (see
        the module docstring), so its percentiles are per-request only
        for keys placed one at a time.
        """
        wal_info = None
        if self._wal is not None:
            wal_info = {
                "path": str(self._wal.path),
                "sync_every": self._wal.sync_every,
                "appended": self._wal.appended,
                "fsyncs": self._wal.fsyncs,
                "recovered": self.recovered_records,
            }
        return service_stats(
            requests=self.requests,
            loads=self._loads,
            latency=self._latency,
            staleness_age=self._view.age,
            refresh_every=self.refresh_every,
            view_refreshes=self._view.refreshes,
            joins=self.joins,
            leaves=self.leaves,
            skips=self.skips,
            d=self.d,
            placement_digest=self.placement_digest(),
            errors=self.errors,
            dedup_hits=self.dedup_hits,
            wal=wal_info,
        )

    # -- deterministic replay --------------------------------------------------

    def replay(
        self,
        trace: Trace,
        churn_schedule=(),
        *,
        pace: float = 0.0,
        keep_placements: bool = False,
    ) -> ReplayReport:
        """Replay *trace* against the service, interleaving churn by time.

        A churn action fires before the first request whose arrival time
        is ``>=`` its own; actions past the last arrival fire at the end.
        ``pace`` throttles wall-clock replay to ``pace`` times real time
        (``0`` = as fast as possible, the virtual-clock deterministic
        mode).  The placement sequence and final counts are invariant to
        ``pace`` — only the latency telemetry differs.  The virtual clock
        feeds each stretch between churn events to :meth:`allocate_many`
        a few thousand keys at a time; a paced replay is wall-clock
        driven, so it places one key per call, as a live client would.
        """
        if pace < 0:
            raise ValueError(f"pace must be non-negative, got {pace}")
        schedule = sorted(churn_schedule, key=lambda a: a.time)
        placements: list[str] = [] if keep_placements else None
        t_start = time.perf_counter()
        if pace > 0:
            keys = trace.keys()
            c = 0
            for j in range(trace.count):
                t_arrival = float(trace.times[j])
                while c < len(schedule) and schedule[c].time <= t_arrival:
                    self.apply_churn(schedule[c])
                    c += 1
                lag = t_arrival / pace - (time.perf_counter() - t_start)
                if lag > 0:
                    time.sleep(lag)
                pid = self.allocate(next(keys))
                if placements is not None:
                    placements.append(pid)
            for action in schedule[c:]:
                self.apply_churn(action)
        else:
            # Arrival times are non-decreasing, so the request each action
            # fires before is a binary search.
            fire_at = np.searchsorted(trace.times, [a.time for a in schedule],
                                      side="left").tolist()
            done = 0
            for action, at in zip([*schedule, None], fire_at + [trace.count]):
                for lo in range(done, at, HASH_CHUNK):
                    pids = self.allocate_many(trace.keys(lo, min(at, lo + HASH_CHUNK)))
                    if placements is not None:
                        placements.extend(pids)
                done = at
                if action is not None:
                    self.apply_churn(action)
        wall = time.perf_counter() - t_start

        loads = dict(self._loads)
        values = list(loads.values())
        mean = sum(values) / len(values) if values else 0.0
        return ReplayReport(
            requests=trace.count,
            placement_digest=self.placement_digest(),
            trace_digest=trace.digest(),
            final_loads=loads,
            max_load=max(values) if values else 0,
            mean_load=mean,
            joins=self.joins,
            leaves=self.leaves,
            skips=self.skips,
            view_refreshes=self._view.refreshes,
            wall_seconds=wall,
            placements=tuple(placements) if placements is not None else (),
        )


# -- asyncio front end ----------------------------------------------------------


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


class _LineStream:
    """Bounded line framing over a StreamReader.

    asyncio's own ``readline`` raises once a line exceeds the stream
    limit, which would kill the connection on the first oversized request.
    This reader instead *consumes and discards* the oversized line in
    O(limit) memory and reports it, so the server can answer a structured
    error and keep serving the connection.

    ``readline()`` returns ``(line, overflowed)``: a complete line within
    the bound as ``(bytes, False)``, an oversized line as ``(b"",
    True)`` once its terminating newline (or EOF) arrives, and EOF as
    ``(None, False)``.
    """

    _CHUNK = 65536

    def __init__(self, reader, limit: int):
        self._reader = reader
        self._limit = int(limit)
        self._buf = bytearray()
        self._eof = False

    async def readline(self):
        discarding = False
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line = bytes(self._buf[:i])
                del self._buf[:i + 1]
                if discarding or len(line) > self._limit:
                    return b"", True
                return line, False
            if len(self._buf) > self._limit:
                # No newline yet and already over the bound: drop what we
                # have and keep draining until the line ends.
                discarding = True
                self._buf.clear()
            if self._eof:
                if discarding or not self._buf:
                    return None, False
                line = bytes(self._buf)
                self._buf.clear()
                return line, False
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
                continue
            self._buf.extend(chunk)


def _handle_request(service: AllocationService, msg: dict) -> dict:
    op = msg.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    client, seq = msg.get("client"), msg.get("seq")
    if (client is None) != (seq is None):
        return {"ok": False,
                "error": "idempotent requests need both 'client' and 'seq'"}
    if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
        return {"ok": False, "error": "'seq' must be an integer"}
    if op == "alloc":
        key = msg.get("key")
        if key is None:
            return {"ok": False, "error": "alloc requires a 'key'"}
        before = service.requests
        try:
            peer = service.allocate(key, client=client, seq=seq)
        except StaleSequenceError as exc:
            service.errors["stale_seq"] += 1
            return {"ok": False, "error": str(exc)}
        reply = {"ok": True, "peer": peer}
        if seq is not None:
            reply["seq"] = seq
            reply["dup"] = service.requests == before
        return reply
    if op == "churn":
        kind = msg.get("kind")
        if kind not in ("join", "leave"):
            return {"ok": False, "error": "churn requires kind 'join' or 'leave'"}
        before = service.dedup_hits
        try:
            action = ChurnAction(time=0.0, kind=kind, peer_id=msg.get("peer_id"))
            resolved = service.apply_churn(action, client=client, seq=seq)
        except StaleSequenceError as exc:
            service.errors["stale_seq"] += 1
            return {"ok": False, "error": str(exc)}
        except (KeyError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}
        reply = {"ok": True, **resolved}
        if seq is not None:
            reply["seq"] = seq
            reply["dup"] = service.dedup_hits > before
        return reply
    return {"ok": False, "error": f"unknown op {op!r}"}


async def _serve_connection(
    service: AllocationService,
    reader,
    writer,
    *,
    faults: FaultController | None = None,
    max_line_bytes: int = MAX_LINE_BYTES,
) -> None:
    stream = _LineStream(reader, max_line_bytes)
    try:
        while True:
            line, overflowed = await stream.readline()
            if line is None:
                break
            if overflowed:
                service.errors["oversized"] += 1
                writer.write(_encode({
                    "ok": False,
                    "error": f"request line exceeds {max_line_bytes} bytes",
                }))
                await writer.drain()
                continue
            if not line.strip():
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError as exc:
                service.errors["bad_json"] += 1
                writer.write(_encode({"ok": False, "error": f"bad json: {exc}"}))
                await writer.drain()
                continue
            if not isinstance(msg, dict):
                service.errors["bad_json"] += 1
                writer.write(_encode({
                    "ok": False, "error": "request must be a JSON object",
                }))
                await writer.drain()
                continue
            decision = faults.next_decision() if faults is not None else None
            if decision is not None and decision.any:
                for j in range(decision.storm):
                    service.apply_churn(ChurnAction(
                        time=0.0, kind="join" if j % 2 == 0 else "leave"))
                if decision.delay > 0.0:
                    await asyncio.sleep(decision.delay)
                if decision.kill:
                    # Durable state first, then die like a real crash —
                    # no cleanup, no replies, connections torn mid-flight.
                    service.flush_wal()
                    os.kill(os.getpid(), signal.SIGKILL)
                if decision.drop_before:
                    return
            try:
                reply = _handle_request(service, msg)
            except Exception as exc:  # noqa: BLE001 — one request never kills the connection
                service.errors["handler"] += 1
                reply = {"ok": False, "error": f"internal error: {exc!r}"}
            if decision is not None and decision.drop_after:
                return
            writer.write(_encode(reply))
            await writer.drain()
    except asyncio.CancelledError:
        # Server shutdown: end the handler quietly.  A handler task that
        # ends cancelled makes asyncio's stream callback log a spurious
        # CancelledError traceback (Python 3.11).
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_server(
    service: AllocationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready=None,
    faults=None,
    max_line_bytes: int = MAX_LINE_BYTES,
):
    """Serve *service* over line-delimited JSON TCP until cancelled.

    ``port = 0`` binds an ephemeral port; the bound ``(host, port)`` is
    published through the optional *ready* callback (used by the smoke
    test and the CLI banner).  All operations run on the event loop
    thread, so the synchronous core needs no locking.  ``faults`` is an
    optional :class:`~.faults.FaultPlan` (or a live
    :class:`~.faults.FaultController`, when the caller wants to read the
    trigger counts afterwards) injected per decoded request.
    """
    controller = None
    if faults is not None:
        controller = (faults if isinstance(faults, FaultController)
                      else FaultController(FaultPlan.from_json(faults)
                                           if not isinstance(faults, FaultPlan)
                                           else faults))
    server = await asyncio.start_server(
        lambda r, w: _serve_connection(
            service, r, w, faults=controller, max_line_bytes=max_line_bytes),
        host, port,
    )
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        await server.serve_forever()
