"""``replay``: the placement hot path, in-process, no network, no WAL.

An :class:`~repro.service.AllocationService` (64 peers, d=2,
``refresh_every=64``) receives a 200k-request trace (100k objects, Zipf
1.1, 1M users, diurnal rate) with 8 churn events.  The benchmark's own loop
calls ``allocate()`` and ``apply_churn()`` in trace order, timing each call;
every pass starts from a fresh service, so each pass makes the same
decisions.  The check compares the loop's placement digest and final loads
with :meth:`AllocationService.replay` on the same trace and churn.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from common import (CheckFailed, SpeedMeter, iqm_ms, metric, peak_rss_mb,
                    percentile_ms, windowed_percentile_ms)

PEERS = 64
REQUESTS = 200_000
CHURN_EVENTS = 8
WARMUP_REQUESTS = 1_000
PROBE_REQUESTS = 50_000
#: Calls per speed-normalisation chunk (about a quarter second).
CHUNK = 10_000


def make_service(seed, **kwargs):
    from repro.service import AllocationService

    return AllocationService([f"peer-{i}" for i in range(PEERS)], d=2,
                             refresh_every=64, seed=seed, **kwargs)


def make_trace(seed, requests=REQUESTS):
    from repro.service import TraceSpec, generate_trace

    return generate_trace(TraceSpec(requests=requests, users=1_000_000,
                                    objects=100_000, zipf_s=1.1, seed=seed))


def balance_probe(seed, requests=PROBE_REQUESTS) -> float:
    """The paper's imbalance, max load over average load with load =
    placements / capacity, after placing *requests* uniformly popular keys
    on the initial ring.  The Zipf trace's hottest keys make its own
    imbalance swing with the seed; this probe of the same placement code
    does not, so a change that unbalances peers shows against the bound."""
    from repro.p2p.dht import DHT
    from repro.service import TraceSpec, generate_trace
    from repro.service.views import DChoicePlacer

    svc = make_service(seed)
    loads = svc.replay(generate_trace(TraceSpec(requests=requests, zipf_s=None,
                                                seed=seed))).final_loads
    placer = DChoicePlacer(DHT(list(loads)).ring, d=svc.d, resolution=svc.resolution)
    caps = {pid: placer.capacity_of(pid) for pid in loads}
    average = sum(loads.values()) / sum(caps.values())
    return max(loads[pid] / caps[pid] for pid in loads) / average


def churn_positions(trace, churn):
    """Index of the request each churn action fires before (the
    :meth:`~repro.service.AllocationService.replay` rule: before the first
    arrival at or after the action's time; past the end fires last)."""
    return np.searchsorted(trace.times, [a.time for a in churn], side="left")


def setup(ctx):
    from repro.service import generate_churn_schedule

    trace = make_trace(ctx.seed)
    churn = generate_churn_schedule(CHURN_EVENTS, trace.duration, seed=ctx.seed)
    keys = list(trace.keys())
    warm = make_service(ctx.seed)
    for key in keys[:WARMUP_REQUESTS]:
        warm.allocate(key)
    return {"trace": trace, "churn": churn, "keys": keys,
            "at": churn_positions(trace, churn)}


def teardown(state) -> None:
    pass


def _one_pass(seed, keys, churn, at, meter):
    """One pass from a fresh service; per-call times (probe time taken
    out) and, per :data:`CHUNK` calls, wall time and speed factor."""
    svc = make_service(seed)
    lat = np.empty(len(keys), dtype=np.float64)
    churn_lat, chunks = [], []
    c = 0
    mark, probed0 = perf_counter(), meter.total
    for j, key in enumerate(keys):
        while c < len(churn) and at[c] <= j:
            t0, probed = perf_counter(), meter.total
            svc.apply_churn(churn[c])
            churn_lat.append(perf_counter() - t0 - (meter.total - probed))
            c += 1
        t0, probed = perf_counter(), meter.total
        svc.allocate(key)
        lat[j] = perf_counter() - t0 - (meter.total - probed)
        if (j + 1) % CHUNK == 0 or j + 1 == len(keys):
            now = perf_counter()
            chunks.append((j + 1, now - mark - (meter.total - probed0),
                           meter.factor(mark, now)))
            mark, probed0 = now, meter.total
    while c < len(churn):
        svc.apply_churn(churn[c])
        c += 1
    return svc, lat, churn_lat, chunks


def measure(ctx, state, seconds):
    keys, churn, at = state["keys"], state["churn"], state["at"]
    lats, churn_lat, outcomes = [], [], []
    elapsed = raw = 0.0
    with SpeedMeter() as meter:
        while raw < seconds or not outcomes:
            svc, lat, churn_ms, chunks = _one_pass(ctx.seed, keys, churn, at, meter)
            start = 0
            for end, wall, factor in chunks:
                lat[start:end] /= factor
                elapsed += wall / factor
                raw += wall
                start = end
            lats.append(lat)
            churn_lat += churn_ms
            outcomes.append((svc.placement_digest(), svc.stats()["load"]["per_peer"]))
        lat = np.concatenate(lats)

        with ctx.paused():
            t0, probed = perf_counter(), meter.total
            report = make_service(ctx.seed).replay(state["trace"], churn)
            t1 = perf_counter()
            ref_wall = t1 - t0 - (meter.total - probed)
            ref_rate = report.requests / ref_wall * meter.factor(t0, t1)
            balance = balance_probe(ctx.seed)
    expected = (report.placement_digest,
                {k: int(v) for k, v in sorted(report.final_loads.items())})
    failed = sum(o != expected for o in outcomes)
    if failed:
        ctx.fail(CheckFailed(f"{failed} pass(es) disagree with AllocationService.replay()"))
    placements = len(lat)
    return {
        "attempted": placements + len(churn) * len(outcomes),
        "failed": failed,
        "metrics": {
            "throughput_per_s": metric(placements / elapsed, "1/s", placements),
            "secondary_per_s": metric(ref_rate, "1/s", report.requests),
            "latency_mid_ms": metric(iqm_ms(lat), "ms", placements),
            "latency_tail_ms": metric(windowed_percentile_ms(lat, 99, 20_000),
                                      "ms", placements),
            "max_over_mean": metric(balance, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "report": {
            "replay.placements_per_s": (placements / elapsed, "1/s"),
            "replay.placements_per_s.raw": (placements / raw, "1/s"),
            "replay.alloc_us.p50": (percentile_ms(lat, 50) * 1e3, "us"),
            "replay.alloc_us.p99": (percentile_ms(lat, 99) * 1e3, "us"),
            "replay.alloc_us.p999": (percentile_ms(lat, 99.9) * 1e3, "us"),
            "replay.max_over_mean": (report.max_over_mean, "ratio"),
            "replay.churn_ms.p50": (percentile_ms(churn_lat, 50), "ms"),
            "replay.reference_per_s.raw": (report.requests / ref_wall, "1/s"),
        },
    }
