"""Figures 8–9 — randomised bin sizes, sweep of total capacity (Section 4.2).

Paper setting: each bin's capacity is ``1 + X`` with
``X ~ Bin(7, (c-1)/7)``, so a target mean capacity ``c ∈ [1, 8]`` gives
expected total capacity ``c·n``; ``m = C`` (the realised total).  Figure 8
(``n = 10,000``) plots the mean maximum load against the total capacity;
Figure 9 (``n = 1,000``) plots, per capacity class ``x ∈ {1, 2, 4, 6}``, the
percentage of runs in which a size-``x`` bin is among the maximally loaded.

Expected shape: Figure 8 falls rapidly (≈3.1 at ``C = n`` down to ≈1.3 at
``C = 8n``) with small residual plateaus; Figure 9 shows the maximum
migrating from size-1 bins to size-2 bins (around ``C ≈ 2,500`` for
``n = 1,000``) and onward through the classes as capacity grows.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import ReducerBundle, StreamingScalar
from ..analysis.stats import max_load_location_by_class_matrix
from ..bins.generators import binomial_random_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import (
    block_parameter_rng,
    run_ensemble_reduced,
    shared_param_block_size,
)
from .base import ExperimentResult, register, scaled_reps

PAPER_N_FIG8 = 10_000
PAPER_N_FIG9 = 1_000
PAPER_REPS = 10_000
PAPER_D = 2
PAPER_MEAN_CAP_GRID = tuple(np.round(np.arange(1.0, 8.0 + 0.25, 0.25), 4))
PAPER_TRACKED_CLASSES = (1, 2, 4, 6)


def _ensemble_block(seeds, *, n: int, mean_cap: float, d: int):
    """Lockstep block with the shared-caps-per-block treatment (see fig16):
    the block draws one capacity vector from its parameter generator and all
    of its replications rethrow ``m = C`` balls into that array.  Blocks are
    independent, so the estimator over replications stays unbiased; the
    runner keeps blocks small so the capacity randomness is averaged over
    several independent draws."""
    rng = block_parameter_rng(seeds)
    bins = binomial_random_bins(n, mean_cap, rng)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=rng, seed_mode="blocked"
    )
    location = max_load_location_by_class_matrix(res.counts, bins.capacities)
    R = len(seeds)
    reducers = {
        "max_load": StreamingScalar().update(res.max_loads),
        "total_capacity": StreamingScalar().update(
            np.full(R, float(bins.total_capacity))
        ),
    }
    for x in PAPER_TRACKED_CLASSES:
        flags = location.get(int(x), np.zeros(R, dtype=bool))
        reducers[f"class_{x}"] = StreamingScalar().update(flags.astype(np.float64))
    return ReducerBundle(**reducers)


def _sweep(scale, seed, workers, progress, n, d, grid, repetitions,
           block_size, checkpoint, label):
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    seeds = np.random.SeedSequence(seed).spawn(len(grid))
    mean_max = np.empty(len(grid))
    mean_total = np.empty(len(grid))
    class_fracs = {x: np.zeros(len(grid)) for x in PAPER_TRACKED_CLASSES}
    for i, c in enumerate(grid):
        kwargs = {"n": n, "mean_cap": float(c), "d": d}
        # Small blocks (unless the request pins its own width) so the
        # capacity distribution is averaged over at least ~8 independent
        # draws (each block shares one capacity vector drawn from the
        # block's parameter generator).
        bundle = run_ensemble_reduced(
            _ensemble_block, reps, seed=seeds[i], workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=shared_param_block_size(reps, block_size),
            checkpoint=checkpoint, label=label,
        )
        mean_max[i] = bundle["max_load"].mean
        mean_total[i] = bundle["total_capacity"].mean
        for x in PAPER_TRACKED_CLASSES:
            class_fracs[x][i] = bundle[f"class_{x}"].mean
    return mean_total, mean_max, class_fracs, reps


@register(
    "fig08",
    "Randomised bin sizes: max load vs total capacity",
    "Figure 8",
    "n=10,000 bins, capacity 1+Bin(7,(c-1)/7), m=C; mean max load vs total capacity",
    version=2,
)
def run_fig08(
    scale: float = 0.002,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N_FIG8,
    d: int = PAPER_D,
    mean_cap_grid=PAPER_MEAN_CAP_GRID,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 8: mean maximum load as total capacity grows."""
    totals, mean_max, _, reps = _sweep(
        scale, seed, workers, progress, n, d, mean_cap_grid, repetitions,
        block_size, checkpoint, "fig08",
    )
    return ExperimentResult(
        experiment_id="fig08",
        title="Randomised bin sizes: max load vs total capacity",
        x_name="total_capacity",
        x_values=totals,
        series={"max_load": mean_max},
        parameters={
            "n": n, "d": d, "mean_cap_grid": [float(c) for c in mean_cap_grid],
            "repetitions": reps, "seed": seed, "engine": engine,
        },
        extra={
            "start": float(mean_max[0]),
            "end": float(mean_max[-1]),
            "expected_shape": "rapid decrease ~3.1 -> ~1.3 as capacity grows",
        },
    )


@register(
    "fig09",
    "Randomised bin sizes: which class holds the maximum",
    "Figure 9",
    "n=1,000 bins, capacity 1+Bin(7,(c-1)/7), m=C; % of runs with max load in size-x bins",
)
def run_fig09(
    scale: float = 0.002,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N_FIG9,
    d: int = PAPER_D,
    mean_cap_grid=PAPER_MEAN_CAP_GRID,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 9: location of the maximally loaded bin, per size class."""
    totals, _, class_fracs, reps = _sweep(
        scale, seed, workers, progress, n, d, mean_cap_grid, repetitions,
        block_size, checkpoint, "fig09",
    )
    series = {
        f"max_in_size_{x}": 100.0 * fr for x, fr in class_fracs.items()
    }
    return ExperimentResult(
        experiment_id="fig09",
        title="% of runs in which a size-x bin is maximally loaded",
        x_name="total_capacity",
        x_values=totals,
        series=series,
        parameters={
            "n": n, "d": d, "mean_cap_grid": [float(c) for c in mean_cap_grid],
            "tracked_classes": list(PAPER_TRACKED_CLASSES),
            "repetitions": reps, "seed": seed, "engine": engine,
        },
        extra={
            "expected_shape": "max migrates from size-1 bins to size-2 around C~2.5n, then to larger classes",
        },
    )
