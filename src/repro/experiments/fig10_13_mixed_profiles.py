"""Figures 10–13 — mixed-array load profiles at fixed class ratios (Sec 4.2).

Paper settings, all with ``m = C`` and probabilities proportional to
capacity, averaged over 10,000 runs:

* **Figure 10** — 32 bins of capacities 1 and 2; ratio of 2-bins
  0/8/16/24/32; sorted profile over all bins.
* **Figure 11** — 10,000 bins of capacities 1 and 8; ratio of 8-bins
  0/2,500/5,000/7,500/10,000; sorted profile over all bins.
* **Figure 12** — same arrays; profile restricted to the capacity-8 bins.
* **Figure 13** — same arrays; profile restricted to the capacity-1 bins.

Expected shape: "the more large bins we have, the more even the load
distribution becomes"; the class-8 curves stay below ≈1.8 (constant — the
big bins of Observation 1), while the class-1 curves carry the higher
maxima.  Curves for absent ratios (no bins of that class) are NaN-padded.
"""

from __future__ import annotations

import numpy as np

from ..analysis.aggregate import StreamingProfile
from ..bins.generators import two_class_mix_bins
from ..core.ensemble import simulate_ensemble
from ..runtime.executor import run_ensemble_reduced
from .base import ExperimentResult, register, scaled_reps

PAPER_REPS = 10_000
PAPER_D = 2


def _restrict_columns(matrix: np.ndarray, restrict, n: int, n_large: int) -> np.ndarray:
    """Slice a ``(R, n)`` load matrix to the requested capacity class."""
    if restrict == "large":
        return matrix[:, n - n_large :] if n_large else matrix[:, :0]
    if restrict == "small":
        return matrix[:, : n - n_large]
    return matrix


def _ensemble_block(seeds, *, n: int, n_large: int, small_cap: int, large_cap: int,
                    d: int, restrict):
    """Lockstep block: one ``(R, n)`` counts array per block; the restricted
    sorted-profile reducer (never the raw matrix) leaves the worker."""
    bins = two_class_mix_bins(n, n_large, small_cap, large_cap)
    res = simulate_ensemble(
        bins, repetitions=len(seeds), d=d, seed=seeds[0], seed_mode="blocked"
    )
    restricted = _restrict_columns(res.loads, restrict, n, n_large)
    return StreamingProfile(restricted.shape[1]).update(restricted)


def _profiles(scale, seed, workers, progress, n, small_cap, large_cap, d,
              large_counts, restrict, repetitions, block_size,
              checkpoint, label):
    """Mean sorted profiles per ratio; ``restrict`` in {None, 'small', 'large'}."""
    reps = repetitions if repetitions is not None else scaled_reps(PAPER_REPS, scale)
    seeds = np.random.SeedSequence(seed).spawn(len(large_counts))
    series: dict[str, np.ndarray] = {}
    for i, n_large in enumerate(large_counts):
        n_large = int(n_large)
        name = f"{n_large}x{large_cap}-bins"
        width = {"large": n_large, "small": n - n_large}.get(restrict, n)
        if width == 0:
            series[name] = np.full(n, np.nan)
            continue
        kwargs = {
            "n": n, "n_large": n_large, "small_cap": small_cap,
            "large_cap": large_cap, "d": d, "restrict": restrict,
        }
        reducer = run_ensemble_reduced(
            _ensemble_block, reps, seed=seeds[i], workers=workers,
            kwargs=kwargs, progress=progress,
            block_size=block_size, checkpoint=checkpoint, label=label,
        )
        profile = reducer.profile().mean
        padded = np.full(n, np.nan)
        padded[: profile.size] = profile
        series[name] = padded
    return series, reps


def _make_runner(figure_id, title, n, small_cap, large_cap, large_counts, restrict, shape_note):
    def run(
        scale: float = 0.01,
        seed=20260612,
        workers: int | None = 1,
        progress=None,
        *,
        d: int = PAPER_D,
        repetitions: int | None = None,
        engine: str = "scalar",
        block_size: int | None = None,
        checkpoint=None,
    ) -> ExperimentResult:
        series, reps = _profiles(
            scale, seed, workers, progress, n, small_cap, large_cap, d,
            large_counts, restrict, repetitions, block_size,
            checkpoint, figure_id,
        )
        return ExperimentResult(
            experiment_id=figure_id,
            title=title,
            x_name="bin_rank",
            x_values=np.arange(n),
            series=series,
            parameters={
                "n": n, "d": d, "small_cap": small_cap, "large_cap": large_cap,
                "large_counts": [int(x) for x in large_counts],
                "restrict": restrict, "repetitions": reps, "seed": seed,
                "engine": engine,
            },
            extra={"expected_shape": shape_note},
        )

    run.__doc__ = f"{figure_id} runner: {title}."
    return run


run_fig10 = register(
    "fig10", "32 bins of capacities 1 and 2: profiles per ratio", "Figure 10",
    "32 bins mixing capacities 1 and 2 at ratios 0/8/16/24/32; mean sorted profiles",
)(_make_runner(
    "fig10", "32 bins of capacity 1 and 2", 32, 1, 2, (0, 8, 16, 24, 32), None,
    "curves flatten towards 1 as the number of 2-bins grows",
))

run_fig11 = register(
    "fig11", "10,000 bins of capacities 1 and 8: profiles per ratio", "Figure 11",
    "10,000 bins mixing capacities 1 and 8 at ratios 0/2500/5000/7500/10000; mean sorted profiles",
)(_make_runner(
    "fig11", "10,000 bins of capacity 1 and 8", 10_000, 1, 8,
    (0, 2_500, 5_000, 7_500, 10_000), None,
    "curves flatten towards 1 as the number of 8-bins grows",
))

run_fig12 = register(
    "fig12", "Capacities 1 and 8: load of the capacity-8 bins", "Figure 12",
    "Same arrays as fig11; sorted profile restricted to the capacity-8 bins",
)(_make_runner(
    "fig12", "Bins of capacities 1 and 8: capacity-8 bins only", 10_000, 1, 8,
    (2_500, 5_000, 7_500, 10_000), "large",
    "large-bin loads stay below a small constant (Observation 1)",
))

run_fig13 = register(
    "fig13", "Capacities 1 and 8: load of the capacity-1 bins", "Figure 13",
    "Same arrays as fig11; sorted profile restricted to the capacity-1 bins",
)(_make_runner(
    "fig13", "Bins of capacities 1 and 8: capacity-1 bins only", 10_000, 1, 8,
    (0, 2_500, 5_000, 7_500), "small",
    "small-bin maxima exceed the large-bin maxima; decrease with more 8-bins",
))
