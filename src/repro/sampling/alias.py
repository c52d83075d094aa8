"""Vose alias method for O(1) weighted sampling.

Each ball in the simulation draws ``d`` bin indices from a fixed discrete
distribution (by default proportional to bin capacity).  For a run of ``m``
balls that is ``m * d`` draws from the *same* distribution, which is exactly
the regime where the alias method pays off: O(n) preprocessing, then O(1) per
draw, and the draw loop vectorises over NumPy arrays so whole runs' choices
are generated in a handful of array operations.

The implementation follows Vose's numerically robust variant of Walker's
method: probabilities are scaled by ``n``, split into "small" (< 1) and
"large" (>= 1) work lists, and each table slot is packed with at most two
outcomes (itself and one alias).
"""

from __future__ import annotations

import numpy as np

from .. import native
from .rngutils import make_rng

__all__ = ["AliasSampler"]


def _vose(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's two-stack build over ``scaled = p * n``: ``(prob, alias)``."""
    n = scaled.size
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small: list[int] = []
    large: list[int] = []
    for i, s in enumerate(scaled):
        (small if s < 1.0 else large).append(i)
    scaled = scaled.copy()
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    # Leftovers are 1.0 up to float error.
    for i in large:
        prob[i] = 1.0
    for i in small:
        prob[i] = 1.0
    return prob, alias


class AliasSampler:
    """Sampler over ``{0, .., n-1}`` with fixed weights, O(1) per draw.

    Parameters
    ----------
    weights:
        Non-negative weights, not necessarily normalised.  At least one must
        be positive.  Zero-weight outcomes are never drawn.

    Notes
    -----
    The sampler is immutable after construction; the probability vector it
    realises is available as :attr:`probabilities`.
    """

    __slots__ = ("_n", "_prob", "_alias", "_probabilities")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"weights must be one-dimensional, got shape {w.shape}")
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")

        n = w.size
        p = w / total
        scaled = p * n

        # Vose's two-stack construction.  `prob[i]` is the probability of
        # returning `i` itself when column `i` is hit; otherwise the alias.
        # The native build runs the same loop in the same order, so the
        # tables are byte-identical either way.
        if native.available():
            prob, alias = native.vose(scaled)
        else:
            prob, alias = _vose(scaled)
        self._n = n
        self._prob = prob
        self._alias = alias
        self._probabilities = p

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self._n

    @property
    def probabilities(self) -> np.ndarray:
        """Normalised probability vector realised by the sampler (read-only view)."""
        view = self._probabilities.view()
        view.flags.writeable = False
        return view

    def sample(self, size: int | tuple[int, ...], rng=None) -> np.ndarray:
        """Draw *size* outcomes as an ``int64`` array.

        ``size`` may be an int or a shape tuple.  The draw is fully
        vectorised: one uniform batch selects columns, a second decides
        column-vs-alias.
        """
        gen = make_rng(rng)
        cols = gen.integers(0, self._n, size=size, dtype=np.int64)
        accept = gen.random(size=size) < self._prob[cols]
        return np.where(accept, cols, self._alias[cols])

    def sample_one(self, rng=None) -> int:
        """Draw a single outcome (convenience wrapper)."""
        return int(self.sample(1, rng)[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AliasSampler(n={self._n})"
