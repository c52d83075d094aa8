"""Ablation experiments — the design choices DESIGN.md calls out.

Registered alongside the figure experiments (ids ``abl_*``) so the CLI and
report generator treat them uniformly:

* ``abl_tiebreak`` — Algorithm 1's max-capacity tie-break vs uniform vs the
  inverse rule, across the large-bin fraction (the step-3 justification:
  "it is beneficial to move the load into the direction of these bigger
  bins");
* ``abl_probability`` — capacity-proportional vs uniform selection across
  capacity skew (the introduction's "natural 1/n or c_i/C" fork);
* ``abl_d`` — the lnln(n)/ln(d) dependence on the number of choices;
* ``abl_staleness`` — batched arrivals: max load vs batch size (stale-view
  robustness of the protocol; extension).
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingScalar
from ..analysis.precision import AdaptiveRecorder
from ..bins.generators import two_class_bins, uniform_bins
from ..core.ensemble import simulate_ensemble
from ..core.rounds import simulate_batched_ensemble
from ..runtime.executor import run_ensemble_reduced
from ..theory.bounds import loglog_over_logd
from .base import ExperimentResult, register, scaled_reps

PAPER_REPS = 10_000


def _mean_over_reps(task, reps, seed, workers, progress, kwargs,
                    block_size=None, checkpoint=None, label=None,
                    until=None) -> float:
    """Mean of a per-repetition scalar.

    Every ablation point reduces to one mean: run the lockstep block task
    and read the merged :class:`~repro.analysis.aggregate.StreamingScalar`.
    """
    reducer = run_ensemble_reduced(
        task, reps, seed=seed, workers=workers,
        kwargs=kwargs, progress=progress,
        block_size=block_size, checkpoint=checkpoint, label=label,
        until=until,
    )
    return float(reducer.mean)


def _tiebreak_block(seeds, *, n, n_large, small_cap, large_cap, tie_break):
    bins = two_class_bins(n - n_large, n_large, small_cap, large_cap)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), tie_break=tie_break,
        seed=seeds[0], seed_mode="blocked",
    )
    return StreamingScalar().update(res.max_loads)


@register(
    "abl_tiebreak",
    "Ablation: tie-break policy across the class mix",
    "Ablation (step 3 of Algorithm 1)",
    "caps 1 and 2, n=1000; mean max load per tie-break policy vs % large bins",
    adaptive=True,
)
def run_abl_tiebreak(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = 1000,
    small_cap: int = 1,
    large_cap: int = 2,
    fractions=(10, 30, 50, 70, 90),
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Mean max load for each tie-break policy over the class-mix sweep."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    policies = ("max_capacity", "uniform", "min_capacity")
    seeds = np.random.SeedSequence(seed).spawn(len(policies))
    series = {}
    for policy, s in zip(policies, seeds):
        pt_seeds = s.spawn(len(fractions))
        curve = []
        for pct, ps in zip(fractions, pt_seeds):
            curve.append(_mean_over_reps(
                _tiebreak_block, reps, ps, workers, progress,
                {
                    "n": n, "n_large": int(round(n * pct / 100)),
                    "small_cap": small_cap, "large_cap": large_cap,
                    "tie_break": policy,
                },
                block_size, checkpoint, "abl_tiebreak",
                recorder.monitor(f"{policy}/pct={pct}"),
            ))
        series[policy] = np.asarray(curve)
    extra = {"expected_shape": "max_capacity at or below the alternatives everywhere"}
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="abl_tiebreak",
        title="Tie-break policy ablation (caps 1 and 2)",
        x_name="percentage_large_bins",
        x_values=np.asarray(fractions, dtype=np.float64),
        series=series,
        parameters={"n": n, "small_cap": small_cap, "large_cap": large_cap,
                    "repetitions": reps, "seed": seed, "engine": engine},
        extra=extra,
    )


def _probability_block(seeds, *, n, n_large, large_cap, probabilities):
    bins = two_class_bins(n - n_large, n_large, 1, large_cap)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), probabilities=probabilities,
        seed=seeds[0], seed_mode="blocked",
    )
    return StreamingScalar().update(res.max_loads)


@register(
    "abl_probability",
    "Ablation: proportional vs uniform selection",
    "Ablation (Section 1's probability fork)",
    "10% large bins of growing capacity; mean max load per selection model",
    adaptive=True,
)
def run_abl_probability(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = 1000,
    large_caps=(2, 4, 8, 16, 32),
    large_fraction: float = 0.1,
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Mean max load, proportional vs uniform, as the skew grows."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    models = ("proportional", "uniform")
    seeds = np.random.SeedSequence(seed).spawn(len(models))
    n_large = int(round(n * large_fraction))
    series = {}
    for model, s in zip(models, seeds):
        pt_seeds = s.spawn(len(large_caps))
        curve = []
        for cap, ps in zip(large_caps, pt_seeds):
            curve.append(_mean_over_reps(
                _probability_block, reps, ps, workers, progress,
                {"n": n, "n_large": n_large, "large_cap": int(cap),
                 "probabilities": model},
                block_size, checkpoint, "abl_probability",
                recorder.monitor(f"{model}/cap={cap}"),
            ))
        series[model] = np.asarray(curve)
    extra = {"expected_shape": "proportional at or below uniform, gap widening with skew"}
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="abl_probability",
        title="Selection-probability ablation (10% large bins)",
        x_name="large_bin_capacity",
        x_values=np.asarray(large_caps, dtype=np.float64),
        series=series,
        parameters={"n": n, "large_fraction": large_fraction,
                    "repetitions": reps, "seed": seed, "engine": engine},
        extra=extra,
    )


def _d_block(seeds, *, n, d):
    bins = two_class_bins(n // 2, n // 2, 1, 8)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=seeds[0], seed_mode="blocked"
    )
    return StreamingScalar().update(res.max_loads)


@register(
    "abl_d",
    "Ablation: number of choices d",
    "Ablation (Theorem 3's ln d)",
    "caps 1 and 8, n=2000; mean max load vs d, against lnln(n)/ln(d)",
    adaptive=True,
)
def run_abl_d(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = 2000,
    d_values=(1, 2, 3, 4, 6, 8),
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Mean max load per d, with the Theorem-3 leading term for reference."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    seeds = np.random.SeedSequence(seed).spawn(len(d_values))
    measured = []
    for d, s in zip(d_values, seeds):
        measured.append(_mean_over_reps(
            _d_block, reps, s, workers, progress,
            {"n": n, "d": int(d)}, block_size, checkpoint, "abl_d",
            recorder.monitor(f"d={d}"),
        ))
    theory = [
        float("nan") if d < 2 else 1.0 + loglog_over_logd(n, int(d))
        for d in d_values
    ]
    extra = {"expected_shape": "steep d=1->2 drop, then diminishing returns tracking 1/ln d"}
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="abl_d",
        title="Choices ablation: max load vs d",
        x_name="d",
        x_values=np.asarray(d_values, dtype=np.float64),
        series={"measured": np.asarray(measured), "1 + lnln(n)/ln(d)": np.asarray(theory)},
        parameters={"n": n, "repetitions": reps, "seed": seed, "engine": engine},
        extra=extra,
    )


def _staleness_block(seeds, *, n, batch_size):
    bins = uniform_bins(n, 1)
    res = simulate_batched_ensemble(
        bins, repetitions=len(seeds), batch_size=batch_size,
        seed=seeds[0], seed_mode="blocked",
    )
    return StreamingScalar().update(res.max_loads)


@register(
    "abl_staleness",
    "Ablation: batched arrivals with stale loads",
    "Ablation (extension: stale views)",
    "n=1000 unit bins, m=n; mean max load vs batch size",
    adaptive=True,
)
def run_abl_staleness(
    scale: float = 0.01,
    seed=20260612,
    workers: int | None = 1,
    progress=None,
    *,
    n: int = 1000,
    batch_sizes=(1, 4, 16, 64, 256, 1000),
    repetitions: int | None = None,
    engine: str = "scalar",
    block_size: int | None = None,
    checkpoint=None,
    precision=None,
) -> ExperimentResult:
    """Mean max load as the freshness of the load view degrades."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    seeds = np.random.SeedSequence(seed).spawn(len(batch_sizes))
    curve = []
    for b, s in zip(batch_sizes, seeds):
        curve.append(_mean_over_reps(
            _staleness_block, reps, s, workers, progress,
            {"n": n, "batch_size": int(b)}, block_size, checkpoint,
            "abl_staleness", recorder.monitor(f"batch={b}"),
        ))
    extra = {"expected_shape": "non-decreasing in batch size; batch=m stays below one-choice"}
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="abl_staleness",
        title="Staleness ablation: max load vs batch size",
        x_name="batch_size",
        x_values=np.asarray(batch_sizes, dtype=np.float64),
        series={"max_load": np.asarray(curve)},
        parameters={"n": n, "repetitions": reps, "seed": seed, "engine": engine},
        extra=extra,
    )
