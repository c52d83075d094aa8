"""Figures 14–15 — dynamically growing systems (Section 4.3).

Paper setting: a storage system grows from 2 to 1,000 disks in batches of
20; generation ``i`` disks have capacity ``2 + i·a`` (linear, Figure 14,
``a ∈ {1, 2, 4, 6}``) or ``2·b^i`` (exponential, Figure 15,
``b ∈ {1.05, 1.1, 1.2, 1.4}``; the text also mentions 1.005).  At every
state the allocation restarts from scratch with ``m = C`` balls; the
baseline keeps all capacities at 2.  Plot: mean maximum load vs number of
bins.

Expected shape: every growth model's curve *decreases* with system size,
unlike the flat baseline; exponential growth starts slower but wins once
generation capacities are significant.

Substitution note (documented in DESIGN.md): with ``b = 1.4`` the paper-
scale final state has total capacity ≈ 2.6·10⁹ — the per-state ``m = C``
runs are truncated once ``C`` exceeds ``ball_budget`` (the series is
NaN-padded beyond that point).  At ``ball_budget=None`` the sweep is exact.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingScalar
from ..bins.growth import BaselineGrowthModel, ExponentialGrowthModel, GrowthModel, LinearGrowthModel
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from .base import ExperimentResult, register, scaled_reps

PAPER_MAX_BINS = 1_000
PAPER_LINEAR_OFFSETS = (1, 2, 4, 6)
PAPER_EXP_FACTORS = (1.05, 1.1, 1.2, 1.4)
PAPER_REPS = 10_000
PAPER_D = 2
#: Default per-run ball cap; generous for linear growth, truncates only the
#: extreme exponential tails.
DEFAULT_BALL_BUDGET = 2_000_000


def _ensemble_state_block(seeds, *, capacities, d: int) -> StreamingScalar:
    """Lockstep block for one growth state: the state's capacity vector is
    deterministic, so the block rethrows ``m = C`` balls into it in lockstep
    and ships only the max-load moments."""
    from ..bins.arrays import BinArray

    bins = BinArray(np.asarray(capacities, dtype=np.int64))
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=seeds[0], seed_mode="blocked"
    )
    return StreamingScalar().update(res.max_loads)


def _sweep_model(model: GrowthModel, max_bins, reps, seed, workers, progress, d,
                 ball_budget, block_size, checkpoint, label):
    xs: list[int] = []
    ys: list[float] = []
    states = list(model.states(max_bins))
    parent = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = parent.spawn(len(states))
    for i, state in enumerate(states):
        xs.append(state.n)
        if ball_budget is not None and state.total_capacity > ball_budget:
            ys.append(np.nan)
            continue
        reducer = run_ensemble_reduced(
            _ensemble_state_block, reps, seed=seeds[i], workers=workers,
            kwargs={"capacities": state.capacities.tolist(), "d": d},
            progress=progress, block_size=block_size, checkpoint=checkpoint,
            label=label,
        )
        ys.append(reducer.mean)
    return np.asarray(xs), np.asarray(ys)


def _run_growth(figure_id, title, models, scale, seed, workers, progress,
                max_bins, d, repetitions, ball_budget, engine, block_size,
                checkpoint):
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    master = np.random.SeedSequence(seed).spawn(len(models))
    x_ref: np.ndarray | None = None
    series: dict[str, np.ndarray] = {}
    truncated: dict[str, int] = {}
    for (name, model), s in zip(models, master):
        xs, ys = _sweep_model(model, max_bins, reps, s, workers, progress, d,
                              ball_budget, block_size, checkpoint, figure_id)
        if x_ref is None:
            x_ref = xs
        elif not np.array_equal(x_ref, xs):
            raise RuntimeError("growth models produced misaligned state grids")
        series[name] = ys
        truncated[name] = int(np.isnan(ys).sum())
    assert x_ref is not None
    return ExperimentResult(
        experiment_id=figure_id,
        title=title,
        x_name="number_of_bins",
        x_values=x_ref,
        series=series,
        parameters={
            "max_bins": max_bins, "d": d, "repetitions": reps, "seed": seed,
            "ball_budget": ball_budget, "engine": engine,
        },
        extra={
            "states_truncated_by_budget": truncated,
            "expected_shape": "growth curves decrease with system size; baseline stays flat",
        },
    )


@register(
    "fig14",
    "Linear capacity growth between generations",
    "Figure 14",
    "2->1000 disks in batches of 20; generation capacity 2+i*a, a in {1,2,4,6}; m=C; mean max load",
    version=2,
)
def run_fig14(
    scale: float = 0.001,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    max_bins: int = PAPER_MAX_BINS,
    offsets=PAPER_LINEAR_OFFSETS,
    d: int = PAPER_D,
    repetitions: int | None = None,
    ball_budget: int | None = DEFAULT_BALL_BUDGET,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 14: max load vs system size under linear generation growth."""
    models = [("base (all capacities = 2)", BaselineGrowthModel())]
    models += [(f"lin a={a}", LinearGrowthModel(offset=int(a))) for a in offsets]
    return _run_growth(
        "fig14", "Linear growth between generations", models,
        scale, seed, workers, progress, max_bins, d, repetitions, ball_budget,
        engine, block_size, checkpoint,
    )


@register(
    "fig15",
    "Exponential capacity growth between generations",
    "Figure 15",
    "2->1000 disks in batches of 20; generation capacity 2*b^i, b in {1.05,1.1,1.2,1.4}; m=C; mean max load",
    version=2,
)
def run_fig15(
    scale: float = 0.001,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    max_bins: int = PAPER_MAX_BINS,
    factors=PAPER_EXP_FACTORS,
    d: int = PAPER_D,
    repetitions: int | None = None,
    ball_budget: int | None = DEFAULT_BALL_BUDGET,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
) -> ExperimentResult:
    """Figure 15: max load vs system size under exponential generation growth."""
    models = [("base (all capacities = 2)", BaselineGrowthModel())]
    models += [(f"exp b={b}", ExponentialGrowthModel(factor=float(b))) for b in factors]
    return _run_growth(
        "fig15", "Exponential growth between generations", models,
        scale, seed, workers, progress, max_bins, d, repetitions, ball_budget,
        engine, block_size, checkpoint,
    )
