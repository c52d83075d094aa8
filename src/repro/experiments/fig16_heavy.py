"""Figure 16 — the heavily loaded case with random capacities (Section 4.4).

Paper setting: ``n = 10,000`` bins; for each target capacity
``CAP ∈ {1n, 2n, 5n, 10n}`` the individual capacities are drawn with the
Section-4.2 binomial construction so the expected total is CAP; then
``100 × CAP`` balls are thrown and after every ``i·CAP`` balls
(``i = 1..100``) the deviation of the current maximum load from the current
average load is recorded.

Expected shape: "a bundle of parallel lines" — the deviation does not grow
with the number of balls, and larger CAP puts the line closer to zero.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingProfile
from ..bins.generators import binomial_random_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import (
    block_parameter_rng,
    run_ensemble_reduced,
    shared_param_block_size,
)
from .base import ExperimentResult, register, scaled_reps

PAPER_N = 10_000
PAPER_CAP_MULTIPLIERS = (1, 2, 5, 10)
PAPER_ROUNDS = 100
PAPER_REPS = 100
PAPER_D = 2


def _draw_bins(rng, n: int, cap_multiplier: int):
    """Section-4.2 random capacities with expected total ``cap_multiplier*n``."""
    mean_cap = float(cap_multiplier)
    if mean_cap > 8.0:
        # The binomial construction tops out at mean 8; larger targets tile
        # it: capacity = (1+X) summed k times keeps the same relative spread.
        k = int(np.ceil(mean_cap / 8.0))
        per = mean_cap / k
        caps = sum(
            (1 + rng.binomial(7, (per - 1.0) / 7.0, size=n)) for _ in range(k)
        )
        from ..bins.arrays import BinArray

        return BinArray(caps.astype(np.int64))
    return binomial_random_bins(n, mean_cap, rng)


def _ensemble_block(seeds, *, n: int, cap_multiplier: int, rounds: int, d: int) -> StreamingProfile:
    """Lockstep block for the heavily loaded case.

    Lockstep replication requires one shared capacity vector (and thus one
    shared ball schedule) per block, so the block draws its capacities once
    from its first child seed and all of its replications rethrow balls into
    that array.  Capacity randomness is then sampled per *block* instead of
    per repetition — the estimator stays unbiased (blocks are independent),
    but averaging over the capacity randomness requires many blocks, which
    is why the fig16 runner forces a small block size instead of taking the
    executor's width-optimised default.
    """
    rng = block_parameter_rng(seeds)
    bins = _draw_bins(rng, n, cap_multiplier)
    cap = bins.total_capacity
    checkpoints = [i * cap for i in range(1, rounds + 1)]
    res = simulate_ensemble(
        bins,
        repetitions=len(seeds),
        m=rounds * cap,
        d=d,
        seed=rng,
        seed_mode="blocked",
        snapshot_at=checkpoints,
    )
    gaps = np.stack([s.gaps for s in res.snapshots], axis=1)  # (R, rounds)
    return StreamingProfile(rounds, sort=False).update(gaps)


@register(
    "fig16",
    "Heavily loaded case: max-minus-average over time",
    "Figure 16",
    "n=10,000 random-capacity bins, CAP in {n,2n,5n,10n}; throw 100*CAP balls; gap at each i*CAP",
)
def run(
    scale: float = 0.03,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N,
    cap_multipliers=PAPER_CAP_MULTIPLIERS,
    rounds: int = PAPER_ROUNDS,
    d: int = PAPER_D,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 16: deviation of max from average as balls accumulate."""
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    seeds = np.random.SeedSequence(seed).spawn(len(cap_multipliers))
    series: dict[str, np.ndarray] = {}
    slopes: dict[str, float] = {}
    x = np.arange(1, rounds + 1)
    for mult, s in zip(cap_multipliers, seeds):
        kwargs = {"n": n, "cap_multiplier": int(mult), "rounds": rounds, "d": d}
        # Small blocks (unless the request pins its own width) so the
        # capacity distribution is averaged over at least ~8 independent
        # draws (each block shares one capacity vector); the default
        # 128-wide blocks would collapse all of the capacity randomness
        # into a single realisation at paper reps.
        reducer = run_ensemble_reduced(
            _ensemble_block, reps, seed=s, workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=shared_param_block_size(reps, block_size),
            checkpoint=checkpoint, label="fig16",
        )
        curve = reducer.profile().mean
        name = f"CAP = {mult}*n"
        series[name] = curve
        # Least-squares slope over rounds: the paper's claim is ~0 slope.
        slopes[name] = float(np.polyfit(x, curve, 1)[0])
    return ExperimentResult(
        experiment_id="fig16",
        title="Heavily loaded: deviation of maximum from average load",
        x_name="balls_thrown_in_CAP_units",
        x_values=x,
        series=series,
        parameters={
            "n": n, "d": d, "cap_multipliers": [int(m) for m in cap_multipliers],
            "rounds": rounds, "repetitions": reps, "seed": seed, "engine": engine,
        },
        extra={
            "per_series_slope": slopes,
            "expected_shape": "parallel, essentially flat lines; higher CAP closer to zero",
        },
    )
