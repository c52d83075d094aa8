"""High-level simulation driver.

:func:`simulate` runs the paper's allocation process end to end: build a
selection distribution over the bins, draw every ball's ``d`` candidates in
vectorised batches, and feed them through the optimised sequential core
(:mod:`repro.core.fast`).  It returns a :class:`SimulationResult` holding the
final counts plus whatever optional instrumentation was requested (load
snapshots during the run, per-ball heights, the full choice matrix).

Defaults follow the paper: ``d = 2`` choices, probabilities proportional to
capacity, ``m = C`` balls, max-capacity tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bins.arrays import BinArray
from ..sampling.distributions import probability_model
from ..sampling.rngutils import make_rng
from .compiled import run_batch_compiled
from .fast import run_batch
from .policy import RUNTIME_MIN_FREE_FRACTION, current_policy, dispatch, effective_bins
from .wavefront import WavefrontStats, WavefrontWorkspace, run_batch_wavefront

__all__ = ["Snapshot", "SimulationResult", "simulate"]

#: Balls whose choices are drawn per vectorised batch.  Large enough to
#: amortise the array round-trips, small enough to keep the working set in
#: cache.
DEFAULT_CHUNK_SIZE = 1 << 15


@dataclass(frozen=True)
class Snapshot:
    """Load statistics captured mid-run after ``balls_thrown`` balls."""

    balls_thrown: int
    max_load: float
    average_load: float

    @property
    def gap(self) -> float:
        """Deviation of the maximum from the average load (Figure 16's y-axis)."""
        return self.max_load - self.average_load


@dataclass
class SimulationResult:
    """Outcome of one allocation run.

    Attributes
    ----------
    bins:
        The simulated :class:`BinArray`.
    counts:
        Final per-bin ball counts, ``int64``, summing to ``m``.
    m, d:
        Number of balls thrown and choices per ball.
    probability:
        Name of the probability model used.
    tie_break:
        Tie-break policy applied.
    snapshots:
        Mid-run load statistics, if requested.
    heights:
        Per-ball heights in arrival order, if requested.
    choices:
        The full ``(m, d)`` choice matrix, if requested (memory-heavy;
        intended for small analytical runs).
    """

    bins: BinArray
    counts: np.ndarray
    m: int
    d: int
    probability: str
    tie_break: str
    snapshots: list[Snapshot] = field(default_factory=list)
    heights: np.ndarray | None = None
    choices: np.ndarray | None = None

    @property
    def loads(self) -> np.ndarray:
        """Per-bin loads ``m_i / c_i``."""
        return self.counts / self.bins.capacities

    @property
    def max_load(self) -> float:
        """``ℓ_max`` — the quantity every theorem bounds."""
        return float(self.loads.max())

    @property
    def average_load(self) -> float:
        """``m / C`` — the optimum is reached when every load equals this."""
        return self.m / self.bins.total_capacity

    @property
    def gap(self) -> float:
        """``ℓ_max − m/C``."""
        return self.max_load - self.average_load

    @property
    def argmax_bin(self) -> int:
        """Index of (the first) maximally loaded bin."""
        return int(np.argmax(self.loads))

    @property
    def argmax_capacity(self) -> int:
        """Capacity of the maximally loaded bin (Figures 7 and 9)."""
        return int(self.bins.capacities[self.argmax_bin])

    def max_load_of_class(self, capacity: int) -> float:
        """Maximum load among bins of exactly *capacity* (NaN if class empty)."""
        mask = self.bins.capacities == capacity
        if not mask.any():
            return float("nan")
        return float((self.counts[mask] / capacity).max())

    def __repr__(self) -> str:
        return (
            f"SimulationResult(n={self.bins.n}, m={self.m}, d={self.d}, "
            f"max_load={self.max_load:.4f})"
        )


def _normalise_snapshot_points(snapshot_at, m: int) -> list[int]:
    if snapshot_at is None:
        return []
    points = sorted({int(s) for s in snapshot_at})
    for s in points:
        if s < 0 or s > m:
            raise ValueError(f"snapshot point {s} outside [0, m={m}]")
    return points


def simulate(
    bins: BinArray,
    m: int | None = None,
    d: int = 2,
    *,
    probabilities="proportional",
    tie_break: str = "max_capacity",
    seed=None,
    snapshot_at=None,
    track_heights: bool = False,
    keep_choices: bool = False,
    sampler_method: str = "alias",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationResult:
    """Throw *m* balls into *bins* with the greedy *d*-choice protocol.

    Parameters
    ----------
    bins:
        The bin array (capacities define both loads and, by default, the
        selection probabilities).
    m:
        Number of balls; defaults to the total capacity ``C`` (the paper's
        standing assumption ``m = C``).
    d:
        Choices per ball, ``>= 1`` (``d = 1`` degenerates to the one-choice
        baseline; the paper's theorems need ``d >= 2``).
    probabilities:
        Anything accepted by :func:`repro.sampling.distributions.probability_model`:
        ``"proportional"`` (default), ``"uniform"``, ``("power", t)``,
        ``("threshold", q)``, a model instance, or a raw weight vector.
    tie_break:
        ``"max_capacity"`` (Algorithm 1), ``"uniform"``, or ``"min_capacity"``.
    seed:
        Seed / ``SeedSequence`` / ``Generator`` for reproducibility.
    snapshot_at:
        Iterable of ball counts at which to record a :class:`Snapshot`
        (used by the heavily-loaded experiment, Figure 16).
    track_heights:
        Record every ball's height (post-allocation load of its bin).
    keep_choices:
        Retain the full ``(m, d)`` choice matrix on the result.  Memory is
        ``m * d * 8`` bytes — intended for analysis at small scale.
    sampler_method:
        ``"alias"`` or ``"cdf"`` backend for the weighted draws.
    chunk_size:
        Balls per vectorised sampling batch.

    Returns
    -------
    SimulationResult
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    if m is None:
        m = bins.total_capacity
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")

    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities, method=sampler_method)
    rng = make_rng(seed)

    caps_list = bins.capacities.tolist()
    all_choices: list[np.ndarray] | None = [] if keep_choices else None

    snap_points = _normalise_snapshot_points(snapshot_at, m)
    snapshots: list[Snapshot] = []
    total_capacity = bins.total_capacity
    caps_arr = bins.capacities

    # A single run is the R = 1 ensemble: the kernel policy picks the
    # compiled tier, the wavefront or the per-ball list loop.  Every tier
    # consumes the identical pre-drawn randomness, so neither that choice
    # nor the mid-run fallback below can change the results.
    p = getattr(sampler, "probabilities", None)
    n_eff = effective_bins(p) if p is not None else float(bins.n)
    policy = current_policy()
    tier, threads = dispatch(policy, n_eff, 1, d, m)
    wf_stats = WavefrontStats()
    workspace = WavefrontWorkspace()
    if tier != "per_ball":
        counts_arr: np.ndarray | None = np.zeros((1, bins.n), dtype=np.int64)
        counts: list[int] | None = None
        heights_arr = np.empty((1, m), dtype=np.float64) if track_heights else None
        heights: list[float] | None = None
    else:
        counts_arr = None
        counts = [0] * bins.n
        heights_arr = None
        heights = [] if track_heights else None

    def take_snapshot(balls_thrown: int) -> None:
        arr = counts_arr[0] if counts_arr is not None else np.asarray(counts, dtype=np.int64)
        loads = arr / caps_arr
        snapshots.append(
            Snapshot(
                balls_thrown=balls_thrown,
                max_load=float(loads.max()),
                average_load=balls_thrown / total_capacity,
            )
        )

    thrown = 0
    pending = list(snap_points)
    while pending and pending[0] == 0:
        take_snapshot(0)
        pending.pop(0)

    while thrown < m:
        upper = pending[0] if pending else m
        batch = min(chunk_size, upper - thrown)
        choices = sampler.sample((batch, d), rng)
        tie_u = rng.random(batch)
        if counts_arr is not None and tier == "compiled":
            run_batch_compiled(
                counts_arr,
                caps_arr,
                choices[None, :, :],
                tie_u[None, :],
                tie_break=tie_break,
                heights=None
                if heights_arr is None
                else heights_arr[:, thrown : thrown + batch],
                threads=threads,
            )
        elif counts_arr is not None:
            run_batch_wavefront(
                counts_arr,
                caps_arr,
                choices[None, :, :],
                tie_u[None, :],
                tie_break=tie_break,
                heights=None
                if heights_arr is None
                else heights_arr[:, thrown : thrown + batch],
                n_eff=n_eff,
                workspace=workspace,
                stats=wf_stats,
            )
            if (policy.wavefront == "auto"
                    and wf_stats.free_fraction < RUNTIME_MIN_FREE_FRACTION):
                # The realised conflict rate defeats the wavefront: hand the
                # rest of the run to the per-ball loop, bit-identically.
                counts = counts_arr[0].tolist()
                counts_arr = None
                if heights_arr is not None:
                    heights = heights_arr[0, : thrown + batch].tolist()
                    heights_arr = None
        else:
            run_batch(counts, caps_list, choices, tie_u, tie_break=tie_break, heights=heights)
        if all_choices is not None:
            all_choices.append(choices)
        thrown += batch
        while pending and pending[0] == thrown:
            take_snapshot(thrown)
            pending.pop(0)

    if counts_arr is not None:
        final_counts = counts_arr[0]
        final_heights = heights_arr[0] if heights_arr is not None else None
    else:
        final_counts = np.asarray(counts, dtype=np.int64)
        final_heights = np.asarray(heights) if heights is not None else None

    return SimulationResult(
        bins=bins,
        counts=final_counts,
        m=m,
        d=d,
        probability=model.name,
        tie_break=tie_break,
        snapshots=snapshots,
        heights=final_heights,
        choices=np.concatenate(all_choices) if all_choices else (np.empty((0, d), dtype=np.int64) if keep_choices else None),
    )
