"""``figures``: the researcher path — a fixed list of ensemble requests.

One request per lockstep kernel specialisation, run in-process with one
worker, no store and no fabric:

* ``fig04`` — n=32 uniform bins of capacity 1..4, m=100C: the d=2 uniform
  per-ball kernel (the wavefront is refused at this n);
* ``fig11`` — n=10^4 bins of capacity 1 and 8: the d=2 general wavefront;
* ``abl_d`` — d in 1..8 on n=2000: the general-d kernel.

The list is run whole, pass after pass, until the run time is used up.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from common import CheckFailed, SpeedMeter, iqm_ms, metric, peak_rss_mb

#: (experiment id, overrides) — repetitions reduced so a pass takes ~3 s.
REQUESTS = (
    ("fig04", {}),
    ("fig11", {"repetitions": 20}),
    ("abl_d", {"repetitions": 5}),
)


def _request(experiment_id, seed, overrides):
    from repro.experiments import RunRequest

    return RunRequest(experiment_id, seed=seed, engine="ensemble", workers=1,
                      overrides=overrides)


def balls_of(result) -> int:
    """Balls placed by one request, from its resolved parameters."""
    p = result.parameters
    reps = int(p["repetitions"])
    if result.experiment_id == "fig04":
        return reps * sum(p["ball_multiplier"] * p["n"] * int(c) for c in p["capacities"])
    if result.experiment_id == "fig11":
        n, small, large = p["n"], p["small_cap"], p["large_cap"]
        return reps * sum(k * large + (n - k) * small for k in p["large_counts"])
    if result.experiment_id == "abl_d":
        n = p["n"]
        return reps * len(result.x_values) * (n // 2) * (1 + 8)
    raise ValueError(f"no ball count for {result.experiment_id}")


def series_digest(result) -> str:
    """sha256 over the x grid and every series' bytes, in name order."""
    h = hashlib.sha256(np.ascontiguousarray(result.x_values).tobytes())
    for name in sorted(result.series):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result.series[name]).tobytes())
    return h.hexdigest()


def profile_peak_over_mean(results) -> float:
    """Mean over profile series of (max / mean) of the mean sorted load
    profile — the paper's imbalance measure, deterministic per seed."""
    ratios = []
    for result in results:
        if result.x_name != "bin_rank":
            continue
        for values in result.series.values():
            values = values[~np.isnan(values)]
            if values.size and values.mean() > 0:
                ratios.append(values.max() / values.mean())
    return float(np.mean(ratios))


def setup(ctx):
    import repro.experiments as experiments

    # Untimed warm-up request: lazy imports and first-call costs.
    experiments.execute_request(_request("fig04", ctx.seed, {"repetitions": 8}))
    return {}


def teardown(state) -> None:
    pass


def measure(ctx, state, seconds):
    import repro.experiments as experiments

    reference = None
    passes, raw, balls, requests, failed = [], [], 0, 0, 0
    start = perf_counter()
    with SpeedMeter() as meter:
        while perf_counter() - start < seconds or len(passes) < 2:
            results, pass_raw, pass_norm = [], 0.0, 0.0
            for eid, ov in REQUESTS:
                t0, probed = perf_counter(), meter.total
                results.append(
                    experiments.execute_request(_request(eid, ctx.seed, ov)).result)
                t1 = perf_counter()
                wall = t1 - t0 - (meter.total - probed)
                pass_raw += wall
                pass_norm += wall / meter.factor(t0, t1)
            raw.append(pass_raw)
            passes.append(pass_norm)
            digests = [series_digest(r) for r in results]
            if reference is None:
                reference = (digests, results)
            failed += sum(a != b for a, b in zip(digests, reference[0]))
            balls += sum(balls_of(r) for r in results)
            requests += len(results)
    elapsed = sum(passes)
    if failed:
        ctx.fail(CheckFailed(f"{failed} request(s) gave different series bytes on repeat"))
    pass_ms = np.asarray(passes) * 1e3
    return {
        "attempted": requests,
        "failed": failed,
        "metrics": {
            "throughput_per_s": metric(balls / elapsed, "1/s", len(passes)),
            "secondary_per_s": metric(requests / elapsed, "1/s", requests),
            "latency_mid_ms": metric(iqm_ms(passes), "ms", len(passes)),
            "latency_tail_ms": metric(pass_ms.max(), "ms", len(passes)),
            "max_over_mean": metric(profile_peak_over_mean(reference[1]), "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "report": {
            "figures.balls_per_s": (balls / elapsed, "1/s"),
            "figures.balls_per_s.raw": (balls / sum(raw), "1/s"),
            "figures.balls": (balls, "count"),
            "figures.passes": (len(passes), "count"),
        },
    }
