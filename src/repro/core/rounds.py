"""Batched arrivals with stale load information.

In distributed deployments the greedy protocol rarely sees perfectly fresh
loads: requests arriving within the same scheduling round observe the loads
*as of the round start*.  This module implements that batched variant —
every ball in a batch of size ``b`` compares candidates using the counts
frozen at the batch boundary (ties, including the all-equal stale view,
are broken uniformly among max-capacity candidates) — so the library can
quantify how staleness degrades the lnln(n) guarantee.  ``b = 1`` recovers
the sequential protocol exactly; ``b = m`` degenerates to one-choice-like
behaviour (every decision uses the empty-system view).

This is an extension beyond the paper's model (flagged in DESIGN.md); the
batched two-choice literature predicts the max load grows smoothly with the
batch size, which the accompanying tests check qualitatively.
"""

from __future__ import annotations

import numpy as np

from ..bins.arrays import BinArray
from ..sampling.distributions import probability_model
from ..sampling.rngutils import make_rng, spawn_seed_sequences
from .ensemble import EnsembleResult, resolve_ensemble_seeds
from .simulation import SimulationResult

__all__ = ["simulate_batched", "simulate_batched_ensemble", "stale_choice"]


def simulate_batched(
    bins: BinArray,
    m: int | None = None,
    d: int = 2,
    *,
    batch_size: int = 1,
    probabilities="proportional",
    seed=None,
) -> SimulationResult:
    """Run the greedy d-choice game with per-batch stale loads.

    Parameters match :func:`repro.core.simulation.simulate` plus
    ``batch_size`` — the number of balls that share one frozen view of the
    loads.  Within a batch, each ball still commits (the counts advance),
    but *decisions* use the frozen counts.
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    if m is None:
        m = bins.total_capacity
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities)
    rng = make_rng(seed)

    caps = bins.capacities.tolist()
    counts = [0] * bins.n
    thrown = 0
    while thrown < m:
        k = min(batch_size, m - thrown)
        choices = sampler.sample((k, d), rng).tolist()
        tie_u = rng.random(k).tolist()
        frozen = counts.copy()
        for j in range(k):
            chosen = stale_choice(choices[j], frozen, caps, tie_u[j])
            counts[chosen] += 1
        thrown += k

    return SimulationResult(
        bins=bins,
        counts=np.asarray(counts, dtype=np.int64),
        m=m,
        d=d,
        probability=model.name,
        tie_break="max_capacity",
    )


def stale_choice(row, loads, caps, tie_u: float):
    """One ball's decision against frozen *loads*; returns the chosen bin.

    The scalar form of Algorithm 1: minimise ``(load + 1) / capacity``
    over the candidate bins *row* by exact integer cross-multiplication,
    keep the first occurrence of each tied bin, filter ties to the maximum
    capacity, then pick uniformly with the position-aligned draw *tie_u*
    (consumed whether or not a tie occurs).  *row* holds bin indices into
    *loads* and *caps* (lists, for speed).  :func:`simulate_batched` and
    the service's placer both decide through it, and
    :func:`_resolve_stale_batch` is its lockstep form.
    """
    best = [row[0]]
    best_num = loads[row[0]] + 1
    best_den = caps[row[0]]
    for b in row[1:]:
        num = loads[b] + 1
        den = caps[b]
        lhs = num * best_den
        rhs = best_num * den
        if lhs < rhs:
            best = [b]
            best_num = num
            best_den = den
        elif lhs == rhs and b not in best:
            best.append(b)
    if len(best) > 1:
        cmax = max(caps[b] for b in best)
        best = [b for b in best if caps[b] == cmax]
    return best[0] if len(best) == 1 else best[int(tie_u * len(best))]


def _resolve_stale_batch(counts, caps, choices, tie_u):
    """Resolve one stale-view batch in lockstep; returns ``(R, k)`` winners.

    Every ball of the batch (all replications at once) compares its
    candidates against the *frozen* ``counts`` with the exact integer
    cross-multiplication and the scalar loop's tie pipeline — first-occurrence
    dedup, max-capacity filter, uniform pick via the position-aligned
    ``tie_u`` — so each replication reproduces
    :func:`simulate_batched`'s decisions bit for bit.  Because no decision in
    a batch depends on another, the batch collapses to one vectorised step
    over ``(R, k, d)`` with no per-ball Python loop at all.
    """
    R, k, d = choices.shape
    rows = np.arange(R)[:, None, None]
    num = counts[rows, choices] + 1
    den = caps[choices]
    best_num = num[..., 0].copy()
    best_den = den[..., 0].copy()
    for i in range(1, d):
        better = num[..., i] * best_den < best_num * den[..., i]
        np.copyto(best_num, num[..., i], where=better)
        np.copyto(best_den, den[..., i], where=better)
    # Tie set: candidates achieving the minimum, first occurrence per bin
    # only (identical bins share num/den, so position-blind dedup is exact).
    mask = num * best_den[..., None] == best_num[..., None] * den
    for i in range(1, d):
        dup = choices[..., i] == choices[..., 0]
        for i2 in range(1, i):
            dup |= choices[..., i] == choices[..., i2]
        mask[..., i] &= ~dup
    cmax = np.where(mask, den, -1).max(axis=-1)
    mask &= den == cmax[..., None]
    tied = mask.sum(axis=-1)
    sel = (tie_u * tied).astype(np.int64)
    hit = (mask.cumsum(axis=-1) == (sel + 1)[..., None]) & mask
    pos = hit.argmax(axis=-1)
    return np.take_along_axis(choices, pos[..., None], axis=-1)[..., 0]


def simulate_batched_ensemble(
    bins: BinArray,
    repetitions: int | None = None,
    m: int | None = None,
    d: int = 2,
    *,
    batch_size: int = 1,
    probabilities="proportional",
    seed=None,
    seeds=None,
    seed_mode: str = "spawn",
) -> EnsembleResult:
    """Run the stale-view batched game, ``R`` replications in lockstep.

    Parameters mirror :func:`simulate_batched` plus the ensemble seeding
    knobs of :func:`repro.core.ensemble.simulate_ensemble`: with
    ``seed_mode="spawn"`` (or explicit ``seeds=``) replication ``r``
    reproduces ``simulate_batched(bins, seed=child_r, ...)`` bit-exactly —
    same per-batch draw order, same frozen-view decisions;
    ``seed_mode="blocked"`` draws whole ``(R, k, d)`` batches from a single
    generator (faster, statistically identical, not stream-matched).

    Unlike the sequential protocol, decisions inside one batch are mutually
    independent given the frozen counts, so the kernel vectorises over balls
    *and* replications at once: large batch sizes get faster, not slower.
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    repetitions, seeds = resolve_ensemble_seeds(repetitions, seeds, seed_mode)
    if m is None:
        m = bins.total_capacity
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    R = repetitions
    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities)
    if seed_mode == "spawn":
        if seeds is None:
            seeds = spawn_seed_sequences(seed, R)
        gens = [make_rng(s) for s in seeds]
        block_rng = None
    else:
        gens = None
        block_rng = make_rng(seed)

    n = bins.n
    caps = bins.capacities
    counts = np.zeros((R, n), dtype=np.int64)
    offsets = (np.arange(R, dtype=np.int64) * n)[:, None]
    flat = counts.reshape(-1)
    thrown = 0
    while thrown < m:
        k = min(batch_size, m - thrown)
        if gens is not None:
            choices = np.empty((R, k, d), dtype=np.int64)
            tie_u = np.empty((R, k), dtype=np.float64)
            for r, g in enumerate(gens):
                choices[r] = sampler.sample((k, d), g)
                tie_u[r] = g.random(k)
        else:
            choices = sampler.sample((R, k, d), block_rng)
            tie_u = block_rng.random((R, k))
        chosen = _resolve_stale_batch(counts, caps, choices, tie_u)
        # Several balls of one batch may land in the same (replication, bin)
        # slot; add.at accumulates duplicates where += would drop them.
        np.add.at(flat, (chosen + offsets).reshape(-1), 1)
        thrown += k

    return EnsembleResult(
        bins=bins,
        counts=counts,
        m=m,
        d=d,
        repetitions=R,
        probability=model.name,
        tie_break="max_capacity",
        seed_mode=seed_mode,
    )
