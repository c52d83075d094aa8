"""High-level simulation driver.

:func:`simulate` runs the paper's allocation process end to end: build a
selection distribution over the bins, draw every ball's ``d`` candidates in
vectorised batches, and feed them through the allocation kernels.  A single
run is the one-row ensemble: :func:`simulate` is an ``R = 1`` call of
:func:`repro.core.ensemble.simulate_ensemble`, whose per-ball tier at
``R = 1`` is the optimised list loop of :mod:`repro.core.fast`.  It returns
a :class:`SimulationResult` holding the final counts plus whatever optional
instrumentation was requested (load snapshots during the run, per-ball
heights, the full choice matrix).

Defaults follow the paper: ``d = 2`` choices, probabilities proportional to
capacity, ``m = C`` balls, max-capacity tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bins.arrays import BinArray
from .ensemble import DEFAULT_CHUNK_SIZE, simulate_ensemble

__all__ = ["Snapshot", "SimulationResult", "simulate"]


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
    res = simulate_ensemble(
        bins,
        1,
        m,
        d,
        probabilities=probabilities,
        tie_break=tie_break,
        seeds=[seed],
        snapshot_at=snapshot_at,
        track_heights=track_heights,
        keep_choices=keep_choices,
        sampler_method=sampler_method,
        chunk_size=chunk_size,
    )
    return SimulationResult(
        bins=res.bins,
        counts=res.counts[0],
        m=res.m,
        d=d,
        probability=res.probability,
        tie_break=tie_break,
        snapshots=[
            Snapshot(s.balls_thrown, float(s.max_loads[0]), s.average_load)
            for s in res.snapshots
        ],
        heights=None if res.heights is None else res.heights[0],
        choices=None if res.choices is None else res.choices[0],
    )
