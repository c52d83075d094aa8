"""Figures 17–18 — optimising the probability exponent (Section 4.5).

Paper setting: ``n = 100`` bins, half of capacity 1 and half of capacity
``x``; ``m = C = 50·(x+1)``; selection probability of a capacity-``c`` bin
is ``c^t / Σ_j c_j^t``.  Figure 18 plots the mean maximum load against the
exponent ``t`` for ``x ∈ {2, .., 6}``; Figure 17 plots, for each
``x ∈ {2, .., 14}``, the exponent minimising the mean maximum load (the
paper averages each grid point over 1,000,000 runs and reports, e.g.,
``t* ≈ 2.1`` for ``x = 3``).

Expected shape: every Figure-18 curve is roughly convex in ``t`` with its
minimum strictly above ``t = 1`` — proportional selection is *not* optimal
for strongly mixed arrays — and Figure 17's optimal exponent is well above
1 across the capacity range.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingScalar
from ..analysis.precision import AdaptiveRecorder
from ..bins.generators import two_class_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from ..sampling.distributions import PowerProbability
from .base import ExperimentResult, register, scaled_reps

PAPER_N = 100
PAPER_REPS = 1_000_000
PAPER_D = 2
PAPER_FIG18_CAPS = (2, 3, 4, 5, 6)
PAPER_FIG17_CAPS = tuple(range(2, 15))
#: Exponent grid; the paper scans t in {1, 1.005, .., 3} (fig 17) and plots
#: 0..3.5 (fig 18).  A coarser default grid keeps scaled runs affordable.
DEFAULT_T_GRID_FIG18 = tuple(np.round(np.arange(0.0, 3.5 + 0.25, 0.25), 4))
DEFAULT_T_GRID_FIG17 = tuple(np.round(np.arange(1.0, 3.0 + 0.1, 0.1), 4))


def _ensemble_block(seeds, *, x: int, t: float, n: int, d: int) -> StreamingScalar:
    """Lockstep block for one ``(x, t)`` grid point: the two-class array and
    the power-``t`` selection weights are deterministic, so the block runs in
    lockstep and ships only the max-load moments."""
    bins = two_class_bins(n // 2, n - n // 2, 1, x)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, probabilities=PowerProbability(t),
        seed=seeds[0], seed_mode="blocked",
    )
    return StreamingScalar().update(res.max_loads)


def _mean_max_load(x, t, reps, seed, workers, progress, n, d,
                   block_size, checkpoint, label, until=None) -> float:
    reducer = run_ensemble_reduced(
        _ensemble_block, reps, seed=seed, workers=workers,
        kwargs={"x": int(x), "t": float(t), "n": n, "d": d}, progress=progress,
        block_size=block_size, checkpoint=checkpoint, label=label,
        until=until,
    )
    return float(reducer.mean)


@register(
    "fig18",
    "Max load as a function of the probability exponent",
    "Figure 18",
    "n=100, half cap-1 half cap-x (x=2..6), p ~ c^t; mean max load vs t",
    adaptive=True,
    version=2,
)
def run_fig18(
    scale: float = 0.0002,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N,
    d: int = PAPER_D,
    capacities=PAPER_FIG18_CAPS,
    t_grid=DEFAULT_T_GRID_FIG18,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Figure 18: mean max load vs exponent t for each big-bin capacity."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale, minimum=20)
    block_size = recorder.block_size(reps, block_size)
    t_values = np.asarray(t_grid, dtype=np.float64)
    seeds = np.random.SeedSequence(seed).spawn(len(capacities))
    series: dict[str, np.ndarray] = {}
    minima: dict[str, float] = {}
    for x, s in zip(capacities, seeds):
        t_seeds = s.spawn(len(t_values))
        curve = np.asarray(
            [
                _mean_max_load(x, t, reps, ts, workers, progress, n, d,
                               block_size, checkpoint, "fig18",
                               recorder.monitor(f"x={x},t={t:g}"))
                for t, ts in zip(t_values, t_seeds)
            ]
        )
        name = f"capacities 1 and {x}"
        series[name] = curve
        minima[name] = float(t_values[int(np.argmin(curve))])
    extra = {
        "argmin_exponent": minima,
        "expected_shape": "convex-ish curves with minima strictly above t=1",
    }
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="fig18",
        title="Max load for different exponents and capacities",
        x_name="exponent",
        x_values=t_values,
        series=series,
        parameters={
            "n": n, "d": d, "capacities": [int(x) for x in capacities],
            "t_grid": [float(t) for t in t_values], "repetitions": reps, "seed": seed,
            "engine": engine,
        },
        extra=extra,
    )


@register(
    "fig17",
    "Optimal probability exponent per big-bin capacity",
    "Figure 17",
    "n=100, half cap-1 half cap-x (x=2..14), p ~ c^t; exponent minimising mean max load",
    adaptive=True,
)
def run_fig17(
    scale: float = 0.0002,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = PAPER_N,
    d: int = PAPER_D,
    capacities=PAPER_FIG17_CAPS,
    t_grid=DEFAULT_T_GRID_FIG17,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Figure 17: the argmin-over-t exponent for each big-bin capacity x."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale, minimum=20)
    block_size = recorder.block_size(reps, block_size)
    t_values = np.asarray(t_grid, dtype=np.float64)
    seeds = np.random.SeedSequence(seed).spawn(len(capacities))
    optimal = np.empty(len(capacities))
    curves: dict[str, list[float]] = {}
    for i, (x, s) in enumerate(zip(capacities, seeds)):
        t_seeds = s.spawn(len(t_values))
        curve = np.asarray(
            [
                _mean_max_load(x, t, reps, ts, workers, progress, n, d,
                               block_size, checkpoint, "fig17",
                               recorder.monitor(f"x={x},t={t:g}"))
                for t, ts in zip(t_values, t_seeds)
            ]
        )
        optimal[i] = t_values[int(np.argmin(curve))]
        curves[f"x={x}"] = [float(v) for v in curve]
    extra = {
        "curves": curves,
        "expected_shape": "optimal exponent clearly above 1 (e.g. ~2.1 at x=3)",
    }
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="fig17",
        title="Optimal exponent for different capacities",
        x_name="capacity_of_big_bin",
        x_values=np.asarray(capacities, dtype=np.float64),
        series={"optimal_exponent": optimal},
        parameters={
            "n": n, "d": d, "capacities": [int(x) for x in capacities],
            "t_grid": [float(t) for t in t_values], "repetitions": reps, "seed": seed,
            "engine": engine,
        },
        extra=extra,
    )
