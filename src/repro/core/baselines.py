"""Baseline allocation strategies the paper compares against.

* :func:`one_choice` — the classical single-choice game (``d = 1``): every
  ball goes straight to its sampled bin.  No sequential dependency, so it is
  computed in one vectorised ``bincount``.
* :func:`standard_greedy` — Azar et al.'s Greedy[d] on unit bins: the
  standard game that Theorem 3 reduces to via Lemma 1.
"""

from __future__ import annotations

import numpy as np

from ..bins.arrays import BinArray
from ..bins.generators import uniform_bins
from ..sampling.distributions import probability_model
from ..sampling.rngutils import make_rng
from .simulation import SimulationResult, simulate

__all__ = [
    "one_choice",
    "standard_greedy",
]


def one_choice(
    bins: BinArray,
    m: int | None = None,
    *,
    probabilities="proportional",
    seed=None,
) -> SimulationResult:
    """Single-choice allocation: each ball lands on its one sampled bin.

    Because no decision depends on loads, the whole run vectorises into one
    sampling pass and a ``bincount``; the result is exchangeable with a
    ``simulate(..., d=1)`` run.
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    if m is None:
        m = bins.total_capacity
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities)
    rng = make_rng(seed)
    draws = sampler.sample(m, rng)
    counts = np.bincount(draws, minlength=bins.n).astype(np.int64)
    return SimulationResult(
        bins=bins,
        counts=counts,
        m=m,
        d=1,
        probability=model.name,
        tie_break="max_capacity",
    )


def standard_greedy(
    n: int,
    m: int | None = None,
    d: int = 2,
    *,
    seed=None,
    **kwargs,
) -> SimulationResult:
    """Azar et al.'s Greedy[d]: *n* unit bins, uniform choices.

    This is the process ``Q`` of Lemma 1 (with ``n = C``) and the reference
    point for Theorem 3's ``ln ln n / ln d`` bound.
    """
    return simulate(uniform_bins(n, 1), m, d, probabilities="uniform", seed=seed, **kwargs)
