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
from .ensemble import EnsembleResult, lockstep_streams
from .simulation import SimulationResult

__all__ = ["simulate_batched", "simulate_batched_ensemble", "stale_choice",
           "stale_windows"]


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
    but *decisions* use the frozen counts.  This is the ``R = 1`` call of
    :func:`simulate_batched_ensemble`.
    """
    res = simulate_batched_ensemble(
        bins, 1, m, d, batch_size=batch_size, probabilities=probabilities,
        seeds=[seed],
    )
    return SimulationResult(
        bins=res.bins,
        counts=res.counts[0],
        m=res.m,
        d=d,
        probability=res.probability,
        tie_break="max_capacity",
    )


def stale_choice(row, loads, caps, tie_u: float):
    """One ball's decision against frozen *loads*; returns the chosen bin.

    The scalar form of Algorithm 1: minimise ``(load + 1) / capacity``
    over the candidate bins *row* by exact integer cross-multiplication,
    keep the first occurrence of each tied bin, filter ties to the maximum
    capacity, then pick uniformly with the position-aligned draw *tie_u*
    (consumed whether or not a tie occurs).  *row* holds bin indices into
    *loads* and *caps* (lists, for speed).  It is the ``R = 1`` row kernel
    of :func:`simulate_batched_ensemble` and the service placer's decision,
    and :func:`_resolve_stale_batch` is its lockstep form.
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


def stale_windows(rows, tie_u, frozen, live, caps, first: int, every: int):
    """Consecutive staleness windows, one ball per row; returns the winners.

    Ball ``j`` (candidates ``rows[j]``, draw ``tie_u[j]``) is decided by
    :func:`stale_choice` against *frozen* and counted in *live*.  The
    first window holds *first* balls and every later one *every*; at each
    window boundary the frozen loads become a copy of the live ones, as
    the service's :class:`~repro.service.views.StaleLoadView` refreshes.
    *live* is updated in place; *frozen* is read, never written.  The
    service placer's Python path, and the reference of the C kernel
    ``decide_windows`` (:class:`repro.native.WindowKernel`).
    """
    out = []
    left = first
    for row, u in zip(rows, tie_u):
        chosen = stale_choice(row, frozen, caps, u)
        out.append(chosen)
        live[chosen] += 1
        left -= 1
        if not left:
            frozen = live.copy()
            left = every
    return out


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

    The one drive loop of the stale-view game (:func:`simulate_batched` is
    its ``R = 1`` call).  Parameters mirror :func:`simulate_batched` plus
    the ensemble seeding knobs of
    :func:`repro.core.ensemble.simulate_ensemble`: with
    ``seed_mode="spawn"`` (or explicit ``seeds=``) replication ``r``
    reproduces ``simulate_batched(bins, seed=child_r, ...)`` bit-exactly —
    same per-batch draw order, same frozen-view decisions;
    ``seed_mode="blocked"`` draws whole ``(R, k, d)`` batches from a single
    generator (faster, statistically identical, not stream-matched).

    At ``R = 1`` every ball is decided by :func:`stale_choice` against a
    Python-list copy of the frozen counts.  At ``R > 1`` decisions inside
    one batch are mutually independent given the frozen counts, so the
    kernel vectorises over balls *and* replications at once: large batch
    sizes get faster, not slower.  That is why this driver has no rows
    tier: against ``R`` row runs on the same seeds (n = 1000, R = 4 and
    16) the lockstep kernel won x1.4–x4.8 at ``batch_size >= 16``, and
    lost only at ``batch_size <= 4`` with ``R = 4`` (x0.7–x0.8).
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    R, draw, _ = lockstep_streams(repetitions, seed, seeds, seed_mode)
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
    n = bins.n
    caps = bins.capacities
    counts = np.zeros((R, n), dtype=np.int64)
    offsets = (np.arange(R, dtype=np.int64) * n)[:, None]
    flat = counts.reshape(-1)
    row = [0] * n
    caps_list = caps.tolist()
    thrown = 0
    while thrown < m:
        k = min(batch_size, m - thrown)
        choices, tie_u = draw(sampler.sample, k, d)
        if R == 1:
            frozen = row.copy()
            for cand, u in zip(choices[0].tolist(), tie_u[0].tolist()):
                row[stale_choice(cand, frozen, caps_list, u)] += 1
        else:
            chosen = _resolve_stale_batch(counts, caps, choices, tie_u)
            # Several balls of one batch may land in the same (replication,
            # bin) slot; add.at accumulates duplicates where += drops them.
            np.add.at(flat, (chosen + offsets).reshape(-1), 1)
        thrown += k
    if R == 1:
        counts[0] = row

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
