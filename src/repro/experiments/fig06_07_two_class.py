"""Figures 6–7 — two-class arrays, sweep of the large-bin fraction (Sec 4.2).

Paper setting: ``n = 1,000`` bins mixing capacity-1 and capacity-10 bins;
the fraction of large bins sweeps 0%..100%; ``m = C``; Figure 6 plots the
mean maximum load, Figure 7 the percentage of runs in which a *small* bin is
among the maximally loaded (out of 1,000 runs per point in the paper).

Expected shape (paper's discussion): max load starts near 3 (pure small
bins ≈ standard game), drops quickly to ≈2, sits on a plateau from roughly
10% to 30%, then falls towards 1.2 as the large bins take over; the
location-of-max curve stays near 100% until the pull of the large bins wins
(crossing 50% around 45% large bins) and collapses to 0 by ≈90%.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import ReducerBundle, StreamingScalar
from ..analysis.stats import max_load_location_by_class_matrix
from ..bins.generators import two_class_mix_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from .base import ExperimentResult, register, scaled_reps

PAPER_N = 1_000
PAPER_SMALL_CAP = 1
PAPER_LARGE_CAP = 10
PAPER_REPS_FIG6 = 10_000
PAPER_REPS_FIG7 = 1_000
PAPER_D = 2
#: Sweep grid for the percentage of large bins.
PAPER_STEP_PCT = 2


def _ensemble_block(seeds, *, n: int, n_large: int, small_cap: int, large_cap: int, d: int):
    """Lockstep block: the two-class array is deterministic, so the whole
    block advances through one ``(R, n)`` counts array and only the reduced
    max-load / where-the-maximum-sits moments leave the worker."""
    bins = two_class_mix_bins(n, n_large, small_cap, large_cap)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=seeds[0], seed_mode="blocked"
    )
    location = max_load_location_by_class_matrix(res.counts, bins.capacities)
    flags = location.get(small_cap, np.zeros(len(seeds), dtype=bool))
    return ReducerBundle(
        max_load=StreamingScalar().update(res.max_loads),
        small_has_max=StreamingScalar().update(flags.astype(np.float64)),
    )


def _sweep(scale, seed, workers, progress, n, small_cap, large_cap, d,
           step_pct, repetitions, paper_reps, block_size, checkpoint,
           label):
    reps = repetitions if repetitions is not None else scaled_reps(paper_reps, scale)
    percentages = np.arange(0, 100 + step_pct, step_pct)
    percentages = percentages[percentages <= 100]
    seeds = np.random.SeedSequence(seed).spawn(len(percentages))
    mean_max = np.empty(len(percentages))
    frac_small = np.empty(len(percentages))
    for i, pct in enumerate(percentages):
        n_large = int(round(n * pct / 100.0))
        kwargs = {
            "n": n,
            "n_large": n_large,
            "small_cap": small_cap,
            "large_cap": large_cap,
            "d": d,
        }
        bundle = run_ensemble_reduced(
            _ensemble_block, reps, seed=seeds[i], workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=block_size, checkpoint=checkpoint, label=label,
        )
        mean_max[i] = bundle["max_load"].mean
        small_mean = bundle["small_has_max"].mean
        # With zero large bins the max is trivially in a small bin; with
        # zero small bins the class is absent and the fraction is zero.
        frac_small[i] = small_mean if n_large < n else 0.0
    return percentages, mean_max, frac_small, reps


@register(
    "fig06",
    "Two-class bins (1 and 10): max load vs fraction of large bins",
    "Figure 6",
    "n=1000 bins of capacity 1 and 10, m=C; mean max load vs % of large bins",
    version=2,
)
def run_fig06(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N,
    small_cap: int = PAPER_SMALL_CAP,
    large_cap: int = PAPER_LARGE_CAP,
    d: int = PAPER_D,
    step_pct: int = PAPER_STEP_PCT,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 6: mean maximum load over the large-bin-fraction sweep."""
    pct, mean_max, _, reps = _sweep(
        scale, seed, workers, progress, n, small_cap, large_cap, d,
        step_pct, repetitions, PAPER_REPS_FIG6, block_size, checkpoint,
        "fig06",
    )
    return ExperimentResult(
        experiment_id="fig06",
        title="Max load vs percentage of large bins (caps 1 and 10)",
        x_name="percentage_large_bins",
        x_values=pct,
        series={"max_load": mean_max},
        parameters={
            "n": n, "d": d, "small_cap": small_cap, "large_cap": large_cap,
            "step_pct": step_pct, "repetitions": reps, "seed": seed,
            "engine": engine,
        },
        extra={
            "start": float(mean_max[0]),
            "end": float(mean_max[-1]),
            "expected_shape": "monotone-ish decrease ~3 -> ~1.2 with a plateau near 10-30%",
        },
    )


@register(
    "fig07",
    "Two-class bins (1 and 10): where the maximum sits",
    "Figure 7",
    "n=1000 bins of capacity 1 and 10, m=C; % of runs where a small bin has max load",
)
def run_fig07(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N,
    small_cap: int = PAPER_SMALL_CAP,
    large_cap: int = PAPER_LARGE_CAP,
    d: int = PAPER_D,
    step_pct: int = PAPER_STEP_PCT,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 7: fraction of runs whose maximum sits in a small bin."""
    pct, _, frac_small, reps = _sweep(
        scale, seed, workers, progress, n, small_cap, large_cap, d,
        step_pct, repetitions, PAPER_REPS_FIG7, block_size, checkpoint,
        "fig07",
    )
    return ExperimentResult(
        experiment_id="fig07",
        title="% of runs where a small bin is maximally loaded",
        x_name="percentage_large_bins",
        x_values=pct,
        series={"pct_small_has_max": 100.0 * frac_small},
        parameters={
            "n": n, "d": d, "small_cap": small_cap, "large_cap": large_cap,
            "step_pct": step_pct, "repetitions": reps, "seed": seed,
            "engine": engine,
        },
        extra={
            "expected_shape": "stays near 100% for small fractions, crosses 50% near ~45%, ~0% by ~90%",
        },
    )
