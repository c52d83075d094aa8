"""Allocation-service replay benchmark (``BENCH_service.json``).

Replays one fixed open-loop trace (heavy-tailed popularity, diurnal rate,
pinned seed) through the live service at each choice count ``d`` and
records the balls-into-bins outcome — max load, the paper's max/mean of
placements / capacity and the raw-count max/mean — plus the
placement-latency percentiles into a schema-validated document at the
repository root, next to ``BENCH_ensemble.json``.  The committed numbers
are the *ratios* against the ``d = 1`` consistent-hashing baseline: the
paper's claim, measured on the service rather than the kernels, is that
``d = 2`` collapses the max-load gap, and the floor asserted here is
simply that the ratio stays below 1 on the pinned trace.

The rows' ``max_over_mean`` (placements / capacity) includes the
imbalance churn leaves behind: a join splits an arc without moving the
placements already counted on it, so the halves start unequal whatever
``d`` is.  On the pinned 4000-request trace the four churn events put
d = 2 (2.372) above d = 1 (2.136); without them d = 2 reads 1.028
against d = 1's 1.808.  The paper's claim is therefore asserted in its
own quantity on a churn-free replay of the same trace.

The rows' ``p50_ms`` / ``p99_ms`` come from ``stats()`` after a
virtual-clock ``replay()``, which decides a staleness window at a time
and records its amortised per-key time once per placement.  They are
percentiles of per-window averages (about 10x below the per-request
latencies of a one-key-per-call replay), not latencies a single request
saw; ``seconds`` is the replay's wall time.

Determinism is asserted in the same run: replaying the identical trace
and seed twice must produce the same placement digest (the service's
determinism contract, checked at bench scale rather than toy scale).

A second test is the window-batching floor: ``replay()`` (vectorised
hashing and one window-kernel call per hash chunk) must be at least
:data:`BATCHED_REPLAY_FLOOR` times faster than a per-key ``allocate``
loop over the same trace and churn (:data:`PYTHON_REPLAY_FLOOR` where the
native library does not load), with an equal digest.  It asserts
and prints; ``BENCH_service.json`` keeps its schema.

Unlike the figure benches this module writes its document directly — the
session-level ``conftest`` flush belongs to the ensemble-engine floors —
so running ``pytest benchmarks/bench_service.py`` alone refreshes it.
``REPRO_BENCH_QUICK=1`` trims the trace for the CI budget.
"""

import dataclasses
import os
import time
from pathlib import Path

from conftest import BENCH_SEED

from repro import native
from repro.io.benchjson import write_service_bench_json
from repro.service import (
    AllocationService,
    TraceSpec,
    WriteAheadLog,
    generate_churn_schedule,
    generate_trace,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Trace size and the ``d`` sweep; quick mode keeps the d=1/d=2 pair that
#: feeds the committed baseline ratio.
REQUESTS = 4_000 if QUICK else 20_000
D_SWEEP = (1, 2) if QUICK else (1, 2, 4)
PEERS = 16
REFRESH_EVERY = 64
CHURN_EVENTS = 4

#: ``replay()`` over the per-key ``allocate`` loop on the full-size pinned
#: trace (quick mode too: a shorter one is dominated by per-call set-up),
#: best of :data:`FLOOR_REPEATS` timings each, with the C window kernel:
#: 23 quick sessions on a 2-vCPU Xeon read 8.0-14.7x (all but one >= 10x),
#: so every one clears the floor by 1.3x.
BATCHED_REPLAY_FLOOR = 6.0
#: The same where the native library does not load (the Python window
#: loop, which read 5.7-6.6x there).
PYTHON_REPLAY_FLOOR = 4.0
FLOOR_REPEATS = 5

SPEC = TraceSpec(
    requests=REQUESTS,
    users=100_000,
    objects=10_000,
    zipf_s=1.1,
    rate=2_000.0,
    diurnal_amplitude=0.5,
    diurnal_period=60.0,
    seed=BENCH_SEED,
)
FLOOR_SPEC = dataclasses.replace(SPEC, requests=20_000)


def _service(d):
    return AllocationService(
        [f"peer-{i}" for i in range(PEERS)],
        d=d,
        refresh_every=REFRESH_EVERY,
        seed=BENCH_SEED,
    )


def _replay(trace, schedule, d):
    service = _service(d)
    start = time.perf_counter()
    report = service.replay(trace, schedule)
    seconds = time.perf_counter() - start
    return service, report, seconds


def test_service_replay_records_bench(tmp_path):
    trace = generate_trace(SPEC)
    schedule = generate_churn_schedule(
        CHURN_EVENTS, trace.duration, seed=BENCH_SEED
    )

    rows = []
    reports = {}
    for d in D_SWEEP:
        service, report, seconds = _replay(trace, schedule, d)
        stats = service.stats()
        reports[d] = report
        rows.append({
            "d": d,
            "refresh_every": REFRESH_EVERY,
            "peers": PEERS,
            "max_load": int(report.max_load),
            "mean_load": float(report.mean_load),
            "max_over_mean": float(report.max_over_mean),
            "max_over_mean_raw": float(report.max_over_mean_raw),
            "p50_ms": float(stats["latency"]["p50_ms"]),
            "p99_ms": float(stats["latency"]["p99_ms"]),
            "seconds": float(seconds),
            "placement_digest": report.placement_digest,
        })

    # Determinism contract at bench scale: an identical replay must land
    # on the identical placement digest and final counts.
    _, again, _ = _replay(trace, schedule, 2)
    assert again.placement_digest == reports[2].placement_digest
    assert again.final_loads == reports[2].final_loads

    # Crash-recovery clause at bench scale: the same replay through an
    # attached write-ahead log, recovered offline, is bit-identical to
    # the unlogged runs.  Appends never fsync (close() commits once), so
    # the fsync cost stays out of the bench budget — durability never
    # touches the numbers, so the recorded rows stay WAL-free.
    wal_path = tmp_path / "bench.wal"
    logged = AllocationService(
        [f"peer-{i}" for i in range(PEERS)],
        d=2,
        refresh_every=REFRESH_EVERY,
        seed=BENCH_SEED,
        wal=WriteAheadLog(wal_path),
    )
    logged.replay(trace, schedule)
    logged.close_wal()
    recovered = AllocationService.recover(wal_path)
    recovered.close_wal()
    assert recovered.placement_digest() == reports[2].placement_digest
    assert recovered.stats()["load"]["per_peer"] == reports[2].final_loads

    baseline = reports[1].max_load
    comparisons = [
        {"d": d, "max_load_ratio_vs_d1": reports[d].max_load / baseline}
        for d in D_SWEEP
        if d != 1
    ]
    # The service-level two-choice floor: d >= 2 must beat the d = 1
    # consistent-hashing baseline on the pinned trace.
    for c in comparisons:
        assert c["max_load_ratio_vs_d1"] < 1.0, c
    # The paper's quantity, without churn-inherited imbalance: d = 2 must
    # beat d = 1 in max/mean of placements / capacity.
    calm = {d: _replay(trace, [], d)[1].max_over_mean for d in (1, 2)}
    assert calm[2] < calm[1], calm

    path = Path(__file__).resolve().parents[1] / "BENCH_service.json"
    write_service_bench_json(
        path,
        quick=QUICK,
        trace={
            "requests": SPEC.requests,
            "objects": SPEC.objects,
            "users": SPEC.users,
            "rate": SPEC.rate,
            "seed": SPEC.seed,
            "digest": trace.digest(),
        },
        rows=rows,
        comparisons=comparisons,
    )
    print(f"\nservice bench written to {path}")
    for row in rows:
        print(
            f"  d={row['d']}: max={row['max_load']} "
            f"max/mean={row['max_over_mean']:.3f} "
            f"(raw {row['max_over_mean_raw']:.3f}) "
            f"p50={row['p50_ms']:.3f}ms p99={row['p99_ms']:.3f}ms "
            f"({row['seconds']:.2f}s)"
        )


def _per_key(trace, schedule, d):
    """The trace through one ``allocate`` call per key, churn fired before
    the first arrival at or after its time (``replay``'s rule)."""
    service = _service(d)
    schedule = sorted(schedule, key=lambda a: a.time)
    start = time.perf_counter()
    c = 0
    for t, key in zip(trace.times.tolist(), trace.keys()):
        while c < len(schedule) and schedule[c].time <= t:
            service.apply_churn(schedule[c])
            c += 1
        service.allocate(key)
    for action in schedule[c:]:
        service.apply_churn(action)
    return service, time.perf_counter() - start


def test_batched_replay_floor():
    trace = generate_trace(FLOOR_SPEC)
    schedule = generate_churn_schedule(
        CHURN_EVENTS, trace.duration, seed=BENCH_SEED
    )
    # Alternate the two so a drift in machine speed hits both alike.
    batched, per_key = [], []
    for _ in range(FLOOR_REPEATS):
        batched.append(_replay(trace, schedule, 2))
        per_key.append(_per_key(trace, schedule, 2))
    digest = batched[0][1].placement_digest
    assert all(r.placement_digest == digest for _, r, _ in batched)
    assert all(svc.placement_digest() == digest for svc, _ in per_key)
    assert per_key[0][0].stats()["load"]["per_peer"] == batched[0][1].final_loads
    best_batched = min(seconds for _, _, seconds in batched)
    best_per_key = min(seconds for _, seconds in per_key)
    ratio = best_per_key / best_batched
    floor = BATCHED_REPLAY_FLOOR if native.available() else PYTHON_REPLAY_FLOOR
    print(f"\nreplay() {trace.count / best_batched:,.0f}/s vs per-key allocate "
          f"{trace.count / best_per_key:,.0f}/s: {ratio:.1f}x "
          f"(floor {floor}x, native {native.status()})")
    assert ratio >= floor
