"""Figure 1 — load distribution for uniform bins (Section 4.1).

Paper setting: ``n = 10,000`` bins, ``d = 2``, uniform capacities
``c ∈ {1, 2, 3, 4, 8}`` spanning the "interesting range" between
``ln ln n ≈ 2.22`` and ``ln n ≈ 9.21``; ``m = C = c·n`` balls; the plotted
curve is the *sorted* normalised load profile averaged over 10,000 runs.

Expected shape: the ``c = 1`` curve tops out near ``ln ln n / ln 2 ≈ 2.2–3``
while every ``c >= 2`` curve flattens towards 1, with maxima near
``1 + ln ln n / c`` (Observation 2).  The measured per-capacity maxima and
the Observation-2 predictions are recorded in ``extra``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingProfile
from ..analysis.precision import AdaptiveRecorder
from ..bins.generators import uniform_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from ..theory.bounds import loglog_over_logd, observation2_bound
from .base import ExperimentResult, register, scaled_reps

PAPER_N = 10_000
PAPER_CAPACITIES = (1, 2, 3, 4, 8)
PAPER_REPS = 10_000
PAPER_D = 2


def _ensemble_block(seeds, *, n: int, capacity: int, d: int) -> StreamingProfile:
    """Lockstep block: simulate ``len(seeds)`` replications at once and
    return the block's sorted-profile reducer (never the raw ``(R, n)``
    matrix), so workers ship O(n) summaries regardless of block size."""
    bins = uniform_bins(n, capacity)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=seeds[0], seed_mode="blocked"
    )
    return StreamingProfile(n).update(res.loads)


@register(
    "fig01",
    "Uniform bins: sorted load profile per capacity",
    "Figure 1",
    "n=10,000 uniform bins, d=2, c in {1,2,3,4,8}, m=C; mean sorted load profile",
    adaptive=True,
)
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
    """Run the Figure 1 experiment; see module docstring for the setting."""
    recorder = AdaptiveRecorder(precision, engine=engine)
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    block_size = recorder.block_size(reps, block_size)
    series: dict[str, np.ndarray] = {}
    extra_max: dict[str, float] = {}
    extra_pred: dict[str, float] = {}
    for j, c in enumerate(capacities):
        reducer = run_ensemble_reduced(
            _ensemble_block, reps,
            seed=np.random.SeedSequence(seed).spawn(len(capacities))[j],
            workers=workers, kwargs={"n": n, "capacity": int(c), "d": d},
            progress=progress, block_size=block_size, checkpoint=checkpoint,
            label="fig01", until=recorder.monitor(f"c={c}"),
        )
        mean_profile = reducer.profile().mean
        series[f"{c}-bins"] = mean_profile
        extra_max[f"c={c}"] = float(mean_profile[0])
        extra_pred[f"c={c}"] = (
            # c = 1 is the standard game (Theorem 3): lnln(n)/ln(d) + O(1);
            # c >= 2 follows Section 4.1's "close to 1 + lnln(n)/c".
            loglog_over_logd(n, d) + 1.0 if c == 1 else observation2_bound(c * n, n, c)
        )
    extra = {
        "mean_max_load": extra_max,
        "prediction_obs2": extra_pred,
        "observation2_note": "prediction is 1 + lnln(n)/c for c>=2; lnln(n)/ln(d)+1 for c=1",
    }
    recorder.annotate(extra, budget_per_run=reps)
    return ExperimentResult(
        experiment_id="fig01",
        title="Uniform bins: mean sorted load profile",
        x_name="bin_rank",
        x_values=np.arange(n),
        series=series,
        parameters={
            "n": n,
            "d": d,
            "capacities": list(capacities),
            "repetitions": reps,
            "seed": seed,
            "engine": engine,
        },
        extra=extra,
    )
