"""Weighted balls — the model's general load semantics.

Section 1 defines the general notion the paper's analysis specialises: "when
a ball of size s is placed into a bin of capacity c, then the effective load
that this bin experiences is s/c".  The theorems assume unit balls, but the
protocol itself is well-defined for arbitrary positive ball sizes; this
module extends the engine accordingly (an explicit extension beyond the
paper's analysis, flagged as such in DESIGN.md).

Semantics: a ball of size ``s`` probes ``d`` bins as usual; the candidate
loads-after are ``(W_i + s) / c_i`` where ``W_i`` is the total ball mass
already in bin ``i``; ties are broken toward larger capacity.  Loads are
floats here (exact integer cross-multiplication no longer applies), with a
relative epsilon guarding the tie comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bins.arrays import BinArray
from ..sampling.distributions import probability_model
from .ensemble import lockstep_streams
from .policy import use_rows

__all__ = [
    "WeightedResult",
    "simulate_weighted",
    "WeightedEnsembleResult",
    "simulate_weighted_ensemble",
]

#: Relative tolerance under which two candidate loads count as tied.
_TIE_RTOL = 1e-12


@dataclass
class WeightedResult:
    """Outcome of a weighted-ball run."""

    bins: BinArray
    masses: np.ndarray
    counts: np.ndarray
    total_mass: float
    d: int

    @property
    def loads(self) -> np.ndarray:
        """Per-bin loads ``W_i / c_i``."""
        return self.masses / self.bins.capacities

    @property
    def max_load(self) -> float:
        """Maximum per-bin load."""
        return float(self.loads.max())

    @property
    def average_load(self) -> float:
        """``(Σ s) / C`` — the balanced optimum."""
        return self.total_mass / self.bins.total_capacity

    @property
    def gap(self) -> float:
        """``max − average``."""
        return self.max_load - self.average_load


def simulate_weighted(
    bins: BinArray,
    ball_sizes,
    d: int = 2,
    *,
    probabilities="proportional",
    seed=None,
) -> WeightedResult:
    """Allocate balls of the given sizes with the greedy d-choice protocol.

    Parameters
    ----------
    bins:
        Bin array (capacities define loads and default probabilities).
    ball_sizes:
        Positive sizes, processed in order (arrival order matters, exactly
        as for unit balls).
    d:
        Choices per ball.
    probabilities, seed:
        As in :func:`repro.core.simulation.simulate`.

    This is the ``R = 1`` call of :func:`simulate_weighted_ensemble`.
    """
    res = simulate_weighted_ensemble(
        bins, ball_sizes, 1, d, probabilities=probabilities, seeds=[seed]
    )
    return WeightedResult(
        bins=res.bins,
        masses=res.masses[0],
        counts=res.counts[0],
        total_mass=res.total_mass,
        d=d,
    )


def _weighted_row(masses, counts, caps, sizes, rows, tie_u):
    """The row kernel: the sequential weighted loop on lists.

    Ball ``j`` of size ``sizes[j]`` compares the candidate loads-after
    ``(masses[b] + s) / caps[b]`` over ``rows[j]``: a strict improvement
    (beyond the relative tie tolerance) resets the best set, a tie joins
    it (first occurrence per bin), then the max-capacity filter and the
    uniform pick via the position-aligned ``tie_u[j]``.
    """
    for s, row, u in zip(sizes, rows, tie_u):
        best = [row[0]]
        best_load = (masses[row[0]] + s) / caps[row[0]]
        for b in row[1:]:
            load = (masses[b] + s) / caps[b]
            if load < best_load * (1.0 - _TIE_RTOL):
                best = [b]
                best_load = load
            elif abs(load - best_load) <= _TIE_RTOL * max(abs(load), abs(best_load), 1.0):
                if b not in best:
                    best.append(b)
        if len(best) > 1:
            cmax = max(caps[b] for b in best)
            best = [b for b in best if caps[b] == cmax]
        chosen = best[0] if len(best) == 1 else best[int(u * len(best))]
        masses[chosen] += s
        counts[chosen] += 1


@dataclass
class WeightedEnsembleResult:
    """Outcome of ``R`` lockstep weighted-ball replications."""

    bins: BinArray
    masses: np.ndarray
    counts: np.ndarray
    total_mass: float
    d: int
    repetitions: int
    seed_mode: str

    @property
    def loads(self) -> np.ndarray:
        """``(R, n)`` per-bin loads ``W_i / c_i``."""
        return self.masses / self.bins.capacities

    @property
    def max_loads(self) -> np.ndarray:
        """``(R,)`` per-replication maximum loads."""
        return self.loads.max(axis=1)

    @property
    def average_load(self) -> float:
        """``(Σ s) / C`` — shared by every replication."""
        return self.total_mass / self.bins.total_capacity


def _weighted_lockstep(masses, counts, caps, sizes, choices, tie_u):
    """Sequential weighted loop, vectorised across the replication axis.

    Reproduces :func:`_weighted_row`'s float decision pipeline exactly
    per replication: the epsilon-guarded strict/tie comparison evolves a
    running best the same way the scalar candidate scan does (``best_load``
    only moves on a strict improvement), membership is every candidate at or
    after the last strict reset that ties the final ``best_load``
    (first-occurrence per bin), then max-capacity filter and the uniform
    pick via the position-aligned ``tie_u`` column.
    """
    R, m, d = choices.shape
    rbase = np.arange(R)
    dens = caps[choices]
    for j in range(m):
        idx = choices[:, j, :]
        den = dens[:, j, :]
        s = sizes[j]
        loads = (masses[rbase[:, None], idx] + s) / den
        best_load = loads[:, 0].copy()
        last_reset = np.zeros(R, dtype=np.int64)
        for i in range(1, d):
            better = loads[:, i] < best_load * (1.0 - _TIE_RTOL)
            np.copyto(best_load, loads[:, i], where=better)
            np.copyto(last_reset, i, where=better)
        # Membership: the reset candidate plus every later candidate within
        # the tie tolerance of the final best (earlier ones were flushed).
        scale = np.maximum(np.maximum(np.abs(loads), np.abs(best_load)[:, None]), 1.0)
        tie = np.abs(loads - best_load[:, None]) <= _TIE_RTOL * scale
        pos_idx = np.arange(d)
        mask = (pos_idx == last_reset[:, None]) | (
            (pos_idx > last_reset[:, None]) & tie
        )
        for i in range(1, d):
            dup = idx[:, i] == idx[:, 0]
            for i2 in range(1, i):
                dup |= idx[:, i] == idx[:, i2]
            mask[:, i] &= ~dup
        cmax = np.where(mask, den, -1).max(axis=1)
        mask &= den == cmax[:, None]
        tied = mask.sum(axis=1)
        sel = (tie_u[:, j] * tied).astype(np.int64)
        hit = (mask.cumsum(axis=1) == (sel + 1)[:, None]) & mask
        pos = hit.argmax(axis=1)
        chosen = idx[rbase, pos]
        masses[rbase, chosen] += s
        counts[rbase, chosen] += 1


def simulate_weighted_ensemble(
    bins: BinArray,
    ball_sizes,
    repetitions: int | None = None,
    d: int = 2,
    *,
    probabilities="proportional",
    seed=None,
    seeds=None,
    seed_mode: str = "spawn",
) -> WeightedEnsembleResult:
    """Allocate one shared ball-size sequence, ``R`` replications in lockstep.

    The one drive loop of the weighted game (:func:`simulate_weighted` is
    its ``R = 1`` call).  Below its row/lockstep crossover
    (:func:`repro.core.policy.use_rows` with ``weighted=True``) every
    replication runs :func:`_weighted_row` on lists; above it
    :func:`_weighted_lockstep` runs them all at once.
    Parameters mirror :func:`simulate_weighted` plus the ensemble seeding
    knobs of :func:`repro.core.ensemble.simulate_ensemble`: with
    ``seed_mode="spawn"`` (or explicit ``seeds=``) replication ``r``
    reproduces ``simulate_weighted(bins, ball_sizes, seed=child_r, ...)``
    bit-exactly (same draw order, same epsilon tie handling, same float
    arithmetic); ``seed_mode="blocked"`` draws all replications' choices and
    tie uniforms from one generator.  All replications throw the *same*
    sizes in the same arrival order — per-repetition random sizes use the
    shared-params-per-block convention
    (:func:`repro.runtime.executor.block_parameter_rng`).
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    sizes = np.asarray(ball_sizes, dtype=np.float64)
    if sizes.ndim != 1:
        raise ValueError(f"ball_sizes must be 1-D, got shape {sizes.shape}")
    if sizes.size and (not np.all(np.isfinite(sizes)) or np.any(sizes <= 0)):
        raise ValueError("ball sizes must be positive and finite")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    R, draw, _ = lockstep_streams(repetitions, seed, seeds, seed_mode)

    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities)
    # Every replication draws all of its choices, then all of its tie
    # uniforms, in one call each.
    choices, tie_u = draw(sampler.sample, sizes.size, d)
    masses = np.zeros((R, bins.n), dtype=np.float64)
    counts = np.zeros((R, bins.n), dtype=np.int64)
    if use_rows(R, d, weighted=True):
        caps_list = bins.capacities.tolist()
        sizes_list = sizes.tolist()
        for r in range(R):
            masses_row = [0.0] * bins.n
            counts_row = [0] * bins.n
            _weighted_row(
                masses_row, counts_row, caps_list, sizes_list,
                choices[r].tolist(), tie_u[r].tolist(),
            )
            masses[r] = masses_row
            counts[r] = counts_row
    else:
        _weighted_lockstep(
            masses, counts, bins.capacities, sizes.tolist(), choices, tie_u
        )
    return WeightedEnsembleResult(
        bins=bins,
        masses=masses,
        counts=counts,
        total_mass=float(sizes.sum()),
        d=d,
        repetitions=R,
        seed_mode=seed_mode,
    )
