"""Related-work and extension experiments.

* ``rw_ring`` — Byers et al. [7, 9], the result the paper generalises:
  on a consistent-hashing ring with log(n)-skewed arcs, d-point allocation
  keeps the maximum request count at the two-choice level despite the
  non-uniform probabilities.  Series: max requests per peer vs number of
  probes d, for plain (unit-peer) and capacity-aware (this paper's)
  accounting.
* ``abl_weighted`` — the weighted-balls extension: how the maximum load
  responds as ball-size variability grows (coefficient of variation sweep,
  lognormal sizes, fixed total mass ≈ C).
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingScalar
from ..bins.generators import two_class_bins
from ..core.weighted import simulate_weighted_ensemble
from ..p2p.ring import ConsistentHashRing
from ..p2p.workload import allocate_requests_ensemble
from ..runtime.executor import (
    block_parameter_rng,
    run_ensemble_reduced,
    shared_param_block_size,
)
from .base import ExperimentResult, register, scaled_reps

PAPER_REPS = 10_000


def _ring_block(seeds, *, n_peers, m, d, capacity_aware):
    """Lockstep block with a shared-ring-per-block treatment: the block draws
    one random ring from its parameter generator and every replication sends
    its own request stream onto that ring (blocks independent, estimator
    unbiased — the fig16 shared-params argument)."""
    rng = block_parameter_rng(seeds)
    ring = ConsistentHashRing.random(n_peers, seed=rng)
    res = allocate_requests_ensemble(
        ring, m, repetitions=len(seeds), d=d, capacity_aware=capacity_aware,
        seed=rng, seed_mode="blocked",
    )
    if capacity_aware:
        values = res.max_loads / (m / res.capacities.sum())
    else:
        values = res.max_requests / (m / n_peers)
    return StreamingScalar().update(values)


@register(
    "rw_ring",
    "Byers et al.: d-point allocation on a consistent-hashing ring",
    "Related work [7, 9]",
    "random ring, m = 20*n requests; normalised max requests vs d, plain and capacity-aware",
    version=2,
)
def run_rw_ring(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n_peers: int = 200,
    requests_per_peer: int = 20,
    d_values=(1, 2, 3),
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Max request concentration on a ring as the probe count grows."""
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    m = n_peers * requests_per_peer
    seeds = np.random.SeedSequence(seed).spawn(2)
    series = {}
    for aware, s, name in (
        (False, seeds[0], "plain peers (max/avg requests)"),
        (True, seeds[1], "capacity-aware (max/avg load)"),
    ):
        d_seeds = s.spawn(len(d_values))
        curve = []
        for d, ds in zip(d_values, d_seeds):
            kwargs = {"n_peers": n_peers, "m": m, "d": int(d),
                      "capacity_aware": aware}
            # Small blocks (unless the request pins its own width): each
            # block shares one random ring, so the ring randomness needs
            # several independent draws.
            reducer = run_ensemble_reduced(
                _ring_block, reps, seed=ds, workers=workers,
                kwargs=kwargs, progress=progress,
                block_size=shared_param_block_size(reps, block_size),
                checkpoint=checkpoint, label="rw_ring",
            )
            curve.append(float(reducer.mean))
        series[name] = np.asarray(curve)
    return ExperimentResult(
        experiment_id="rw_ring",
        title="d-point allocation on a consistent-hashing ring",
        x_name="d",
        x_values=np.asarray(d_values, dtype=np.float64),
        series=series,
        parameters={"n_peers": n_peers, "requests_per_peer": requests_per_peer,
                    "repetitions": reps, "seed": seed, "engine": engine},
        extra={
            "expected_shape": "steep drop from d=1 to d=2 in both accountings "
                              "(the log n arc skew collapses to lnln n)",
        },
    )


def _weighted_block(seeds, *, n, sigma):
    """Lockstep block with a shared-sizes-per-block treatment: the block
    draws one lognormal ball-size multiset from its parameter generator and
    every replication allocates that same arrival sequence with its own
    choice stream (blocks independent, estimator unbiased)."""
    rng = block_parameter_rng(seeds)
    bins = two_class_bins(n // 2, n - n // 2, 1, 8)
    C = bins.total_capacity
    sizes = rng.lognormal(-0.5 * sigma * sigma, sigma, size=C) if sigma > 0 else np.ones(C)
    res = simulate_weighted_ensemble(
        bins, sizes, repetitions=len(seeds), seed=rng, seed_mode="blocked"
    )
    return StreamingScalar().update(res.max_loads / res.average_load)


@register(
    "abl_weighted",
    "Extension: weighted balls, max/avg load vs size variability",
    "Extension (weighted balls)",
    "caps 1 and 8, lognormal ball sizes of mean 1; normalised max load vs size CV",
    version=2,
)
def run_abl_weighted(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = 200,
    sigmas=(0.0, 0.25, 0.5, 1.0, 1.5),
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Normalised max load as ball-size variability grows."""
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    seeds = np.random.SeedSequence(seed).spawn(len(sigmas))
    curve = []
    for sigma, s in zip(sigmas, seeds):
        kwargs = {"n": n, "sigma": float(sigma)}
        # Small blocks (unless the request pins its own width): each
        # block shares one ball-size multiset, so the size randomness
        # needs several independent draws.
        reducer = run_ensemble_reduced(
            _weighted_block, reps, seed=s, workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=shared_param_block_size(reps, block_size),
            checkpoint=checkpoint, label="abl_weighted",
        )
        curve.append(float(reducer.mean))
    cvs = [float(np.sqrt(np.exp(s * s) - 1.0)) if s > 0 else 0.0 for s in sigmas]
    return ExperimentResult(
        experiment_id="abl_weighted",
        title="Weighted balls: normalised max load vs size variability",
        x_name="size_coefficient_of_variation",
        x_values=np.asarray(cvs),
        series={"max_over_avg_load": np.asarray(curve)},
        parameters={"n": n, "sigmas": [float(s) for s in sigmas],
                    "repetitions": reps, "seed": seed, "engine": engine},
        extra={
            "expected_shape": "unit sizes recover the paper's constant; the "
                              "normalised max grows with the size CV and is "
                              "unbounded for heavy tails (a single huge ball "
                              "dominates its bin) — the unit-ball guarantee "
                              "does not transfer to arbitrary weights",
        },
    )
