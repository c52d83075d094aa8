"""Figures 2–5 — 32 uniform bins under increasing ball counts (Section 4.1).

Paper setting: ``n = 32`` uniform bins of capacity ``c ∈ {1, 2, 3, 4}``;
``m = k·C`` balls for ``k ∈ {1, 10, 100, 1000}`` (one figure per ``k``);
sorted load profiles averaged over 10,000 runs.

Expected shape: the *absolute* deviation of each curve from the average
load ``m/C`` is essentially invariant in ``k`` (the heavily-loaded
invariance of [Berenbrink et al. 2000], the paper's Observation 2) — the
``k = 10/100/1000`` figures "look identical" up to a vertical shift.  The
per-capacity gap (max − average) is recorded in ``extra`` so the invariance
is directly checkable across the four experiments.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingProfile
from ..analysis.precision import AdaptiveRecorder
from ..bins.generators import uniform_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from .base import ExperimentResult, register, scaled_reps

PAPER_N = 32
PAPER_CAPACITIES = (1, 2, 3, 4)
PAPER_REPS = 10_000
PAPER_D = 2


def _ensemble_block(
    seeds, *, n: int, capacity: int, d: int, multiplier: int
) -> StreamingProfile:
    """Lockstep block: all of the block's replications advance together
    through one ``(R, n)`` counts array; only the reduced sorted-profile
    moments leave the worker."""
    bins = uniform_bins(n, capacity)
    res = simulate_ensemble(
        bins,
        repetitions=len(seeds),
        m=multiplier * bins.total_capacity,
        d=d,
        seed=seeds[0],
        seed_mode="blocked",
    )
    return StreamingProfile(n).update(res.loads)


def _run_figure(figure_id: str, multiplier: int, scale, seed, workers, progress,
                n, capacities, d, repetitions, engine, block_size,
                checkpoint, precision) -> ExperimentResult:
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    series: dict[str, np.ndarray] = {}
    gaps: dict[str, float] = {}
    for j, c in enumerate(capacities):
        class_seed = np.random.SeedSequence(seed).spawn(len(capacities))[j]
        kwargs = {"n": n, "capacity": int(c), "d": d, "multiplier": multiplier}
        reducer = run_ensemble_reduced(
            _ensemble_block, reps, seed=class_seed, workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=block_size, checkpoint=checkpoint, label=figure_id,
            until=recorder.monitor(f"c={c}"),
        )
        mean_profile = reducer.profile().mean
        series[f"{c}-bins"] = mean_profile
        gaps[f"c={c}"] = float(mean_profile[0] - multiplier)
    extra = {
        "average_load": float(multiplier),
        "gap_above_average": gaps,
        "invariance_note": "gap should match the other fig02-05 multipliers",
    }
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id=figure_id,
        title=f"32 uniform bins, m = {multiplier}*C: mean sorted load profile",
        x_name="bin_rank",
        x_values=np.arange(n),
        series=series,
        parameters={
            "n": n,
            "d": d,
            "capacities": list(capacities),
            "ball_multiplier": multiplier,
            "repetitions": reps,
            "seed": seed,
            "engine": engine,
        },
        extra=extra,
    )


def _make_runner(figure_id: str, multiplier: int):
    def run(
        scale: float = 0.01,
        seed=20260612,
        workers: int | None = 1,
        progress=None,
        *,
        n: int = PAPER_N,
        capacities=PAPER_CAPACITIES,
        d: int = PAPER_D,
        repetitions: int | None = None,
        engine: str = "scalar",
        block_size: int | None = None,
        checkpoint=None,
        precision=None,
    ) -> ExperimentResult:
        return _run_figure(
            figure_id, multiplier, scale, seed, workers, progress, n, capacities, d,
            repetitions, engine, block_size, checkpoint, precision,
        )

    run.__doc__ = (
        f"Figure {figure_id[-1]} runner: 32 uniform bins, m = {multiplier} * C."
    )
    return run


run_fig02 = register(
    "fig02", "32 uniform bins, m=C", "Figure 2",
    "n=32 uniform bins, c in {1..4}, m=C; mean sorted load profile",
    adaptive=True,
)(_make_runner("fig02", 1))

run_fig03 = register(
    "fig03", "32 uniform bins, m=10C", "Figure 3",
    "n=32 uniform bins, c in {1..4}, m=10*C; mean sorted load profile",
    adaptive=True,
)(_make_runner("fig03", 10))

run_fig04 = register(
    "fig04", "32 uniform bins, m=100C", "Figure 4",
    "n=32 uniform bins, c in {1..4}, m=100*C; mean sorted load profile",
    adaptive=True,
)(_make_runner("fig04", 100))

run_fig05 = register(
    "fig05", "32 uniform bins, m=1000C", "Figure 5",
    "n=32 uniform bins, c in {1..4}, m=1000*C; mean sorted load profile",
    adaptive=True,
)(_make_runner("fig05", 1000))
