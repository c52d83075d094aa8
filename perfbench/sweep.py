"""``sweep``: a parameter grid through the sweep fabric and the result store.

A :class:`~repro.runtime.fabric.FabricSession` with 2 worker processes
computes a grid of ensemble requests — fig02, fig03 and fig10, 4 seeds
each, ``repetitions=1024``, ``block_size=64`` — into a fresh
:class:`~repro.io.store.ResultStore` (the cold pass, repeated over fresh
stores until half the run is used), then re-requests the same grid until
the cache hits have run for the other half (the warm pass).  The check:
fabric results are bit-identical to serial in-process results of the same
requests, and every warm hit returns the cold result.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from common import (CheckFailed, SpeedMeter, iqm_ms, metric, out_dir, peak_rss_mb,
                    windowed_percentile_ms)
from figures import profile_peak_over_mean, series_digest

WORKERS = 2
EXPERIMENTS = ("fig02", "fig03", "fig10")
SEEDS_PER_EXPERIMENT = 4


def grid(seed):
    from repro.experiments import RunRequest

    return [
        RunRequest(eid, seed=seed * SEEDS_PER_EXPERIMENT + k, engine="ensemble",
                   block_size=64, overrides={"repetitions": 1024})
        for eid in EXPERIMENTS for k in range(SEEDS_PER_EXPERIMENT)
    ]


def setup(ctx):
    import repro.experiments as experiments
    from repro.experiments import RunRequest
    from repro.io.store import ResultStore
    from repro.runtime.fabric import FabricSession

    scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=out_dir(ctx.root)))
    session = FabricSession(WORKERS, store=ResultStore(scratch / "fabric"))
    # Warm request through the fleet: workers connect and import.
    warm = RunRequest("fig02", seed=ctx.seed, engine="ensemble", block_size=64,
                      overrides={"repetitions": 128})
    experiments.execute_request(warm, fabric=session)
    return {"scratch": scratch, "session": session}


def teardown(state) -> None:
    state["session"].close()
    shutil.rmtree(state["scratch"], ignore_errors=True)


def measure(ctx, state, seconds):
    import repro.experiments as experiments
    from repro.io.store import ResultStore

    session, scratch = state["session"], state["scratch"]
    requests = grid(ctx.seed)
    cold, cold_s, cold_raw, stores = [], 0.0, 0.0, []
    with SpeedMeter() as meter:
        # The work runs in the workers; the driver wakes on whichever vCPU
        # is free, so its probes sample the speed of both.
        while cold_raw < seconds / 2 or not cold:
            store = ResultStore(scratch / f"store{len(stores)}")
            stores.append(store)
            t0, probed = perf_counter(), meter.total
            results = [experiments.execute_request(r, store=store, fabric=session).result
                       for r in requests]
            t1 = perf_counter()
            wall = t1 - t0 - (meter.total - probed)
            cold_raw += wall
            cold_s += wall / meter.factor(t0, t1)
            cold.append([series_digest(r) for r in results])
            if len(cold) == 1:
                first = results

        # Warm pass: one grid's worth of hits per speed-normalised round.
        hits, hit_lat, hit_bad, warm_s, warm_raw = 0, [], 0, 0.0, 0.0
        while warm_raw < seconds / 2 or not hits:
            round_lat, t_round, probed_round = [], perf_counter(), meter.total
            for r, digest in zip(requests, cold[0]):
                t0, probed = perf_counter(), meter.total
                outcome = experiments.execute_request(r, store=stores[-1])
                round_lat.append(perf_counter() - t0 - (meter.total - probed))
                hits += 1
                if not outcome.cache_hit or series_digest(outcome.result) != digest:
                    hit_bad += 1
            t_end = perf_counter()
            factor = meter.factor(t_round, t_end)
            wall = t_end - t_round - (meter.total - probed_round)
            warm_raw += wall
            warm_s += wall / factor
            hit_lat += [x / factor for x in round_lat]

    with ctx.paused():
        serial = [series_digest(experiments.execute_request(r).result)
                  for r in requests]
    cold_bad = sum(a != b for digests in cold for a, b in zip(digests, serial))
    if cold_bad:
        ctx.fail(CheckFailed(f"sweep: {cold_bad} fabric result(s) differ from serial"))
    if hit_bad:
        ctx.fail(CheckFailed(f"sweep: {hit_bad} warm request(s) missed or differ"))

    cold_n = len(requests) * len(cold)
    ctx.layer_extra.update({
        "io.store.hits": sum(s.hits for s in stores),
        "io.store.misses": sum(s.misses for s in stores),
    })
    return {
        "attempted": cold_n + hits,
        "failed": cold_bad + hit_bad,
        "metrics": {
            "throughput_per_s": metric(cold_n / cold_s, "1/s", cold_n),
            "secondary_per_s": metric(hits / warm_s, "1/s", hits),
            "latency_mid_ms": metric(iqm_ms(hit_lat), "ms", hits),
            "latency_tail_ms": metric(windowed_percentile_ms(hit_lat, 99, 1000),
                                      "ms", hits),
            "max_over_mean": metric(profile_peak_over_mean(first), "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "report": {
            "sweep.cold_rps": (cold_n / cold_s, "1/s"),
            "sweep.cold_rps.raw": (cold_n / cold_raw, "1/s"),
            "sweep.hit_rps": (hits / warm_s, "1/s"),
            "sweep.hit_rps.raw": (hits / warm_raw, "1/s"),
            "sweep.cold_passes": (len(cold), "count"),
        },
    }
