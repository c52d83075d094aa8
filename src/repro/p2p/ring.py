"""Consistent-hashing ring (the paper's motivating environment).

Peers are mapped to points of the unit circle; every peer is responsible for
the arc that ends at its position, and a key hashed to a point is served by
the first peer encountered anti-clockwise — i.e. the peer whose position is
the smallest value ``>=`` the point (wrapping).  Arc lengths are therefore
the peers' implicit "capacities": non-uniform by construction, with maximum
arc a ``Θ(log n)`` factor above the average — exactly the imbalance the
introduction cites as motivation for non-uniform balls-into-bins models.

Virtual nodes (multiple positions per peer) are supported since they are the
classical mitigation whose effect examples can measure against the paper's
capacity-aware protocol.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..bins.arrays import BinArray
from ..sampling.rngutils import make_rng
from .hashing import hash_to_unit

__all__ = ["RingPeer", "ConsistentHashRing"]


@dataclass(frozen=True)
class RingPeer:
    """A peer: an identifier plus the number of virtual positions it holds."""

    peer_id: str
    virtual_nodes: int = 1

    def __post_init__(self):
        if self.virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {self.virtual_nodes}")


class ConsistentHashRing:
    """Immutable snapshot of a consistent-hashing ring.

    Parameters
    ----------
    peers:
        Peer descriptors.  Positions are derived deterministically from the
        peer id and virtual-node index — no RNG involved — so a ring is
        reproducible from its peer list alone.
    """

    def __init__(self, peers):
        self.peers: tuple[RingPeer, ...] = tuple(
            p if isinstance(p, RingPeer) else RingPeer(str(p)) for p in peers
        )
        if not self.peers:
            raise ValueError("a ring needs at least one peer")
        ids = [p.peer_id for p in self.peers]
        if len(set(ids)) != len(ids):
            raise ValueError("peer ids must be unique")

        positions: list[float] = []
        owners: list[int] = []
        for idx, peer in enumerate(self.peers):
            for v in range(peer.virtual_nodes):
                positions.append(hash_to_unit(f"{peer.peer_id}#{v}"))
                owners.append(idx)
        pos = np.asarray(positions)
        own = np.asarray(owners, dtype=np.int64)
        order = np.argsort(pos, kind="stable")
        self._positions = pos[order]
        self._owners = own[order]
        # Plain-list copies for the scalar lookup: bisect over a list beats
        # a NumPy call per point by an order of magnitude.
        self._position_list = self._positions.tolist()
        self._owner_list = self._owners.tolist()

    # -- structure -----------------------------------------------------------

    @property
    def n_peers(self) -> int:
        """Number of physical peers."""
        return len(self.peers)

    @property
    def positions(self) -> np.ndarray:
        """Sorted virtual-node positions in ``[0, 1)``."""
        return self._positions

    def lookup(self, point: float) -> int:
        """Peer index responsible for *point* (anti-clockwise successor)."""
        if not 0.0 <= point < 1.0:
            point = point % 1.0
        i = bisect_left(self._position_list, point)
        if i == len(self._position_list):
            i = 0  # wrap to the first position
        return self._owner_list[i]

    def lookup_key(self, key) -> int:
        """Peer responsible for a hashed *key*."""
        return self.lookup(hash_to_unit(key))

    def lookup_batch(self, points) -> np.ndarray:
        """Vectorised :meth:`lookup` over an array of *points* (any shape).

        Identical to calling :meth:`lookup` per point, including the wrap
        normalisation of out-of-range points: a point outside ``[0, 1)``
        is reduced modulo 1 *before* the successor search.  (The historic
        inline ``searchsorted`` + wrap-to-0 in ``p2p.workload`` skipped
        that normalisation, so an out-of-range point — e.g. 1.2, whose
        successor is the peer at 0.2's arc — silently wrapped to the first
        virtual position instead; all batch call sites now share this one
        implementation so the scalar and vectorised paths cannot diverge.)
        """
        pts = np.asarray(points, dtype=np.float64)
        out_of_range = (pts < 0.0) | (pts >= 1.0)
        if out_of_range.any():
            pts = np.where(out_of_range, np.mod(pts, 1.0), pts)
            # Python's float mod (which lookup uses) maps tiny negatives to
            # 1.0 by rounding; np.mod agrees, but the successor search
            # still needs the index wrap below to land them on position 0.
        idx = np.searchsorted(self._positions, pts, side="left")
        idx = np.where(idx == self._positions.size, 0, idx)
        return self._owners[idx]

    def arc_lengths(self) -> np.ndarray:
        """Total arc length owned by each peer (sums to 1).

        A virtual node at position ``p`` owns the arc from its predecessor
        position to ``p``.
        """
        pos = self._positions
        k = pos.size
        arcs = np.empty(k)
        arcs[0] = pos[0] + (1.0 - pos[-1])  # wraps around zero
        arcs[1:] = np.diff(pos)
        totals = np.zeros(self.n_peers)
        np.add.at(totals, self._owners, arcs)
        return totals

    def arc_imbalance(self) -> float:
        """Max arc over average arc — the log(n)-ish skew the paper cites."""
        arcs = self.arc_lengths()
        return float(arcs.max() * self.n_peers)

    # -- bridging to the balls-into-bins model --------------------------------

    def as_bin_array(self, resolution: int = 1000) -> BinArray:
        """Quantise arc lengths into integer capacities.

        Each peer's capacity is ``max(1, round(arc * n * resolution /
        n))``... more precisely ``max(1, round(arc * resolution))`` so the
        total capacity is about *resolution*.  This turns the ring into a
        heterogeneous :class:`BinArray` whose proportional-selection game is
        statistically the d-point ring game.
        """
        if resolution < self.n_peers:
            raise ValueError(
                f"resolution ({resolution}) should be at least the number of peers ({self.n_peers})"
            )
        arcs = self.arc_lengths()
        caps = np.maximum(1, np.round(arcs * resolution)).astype(np.int64)
        return BinArray(caps)

    @classmethod
    def random(cls, n_peers: int, virtual_nodes: int = 1, seed=None) -> "ConsistentHashRing":
        """Ring of *n_peers* with randomised ids (distinct per seed)."""
        if n_peers <= 0:
            raise ValueError(f"n_peers must be positive, got {n_peers}")
        rng = make_rng(seed)
        tokens = rng.integers(0, 1 << 62, size=n_peers)
        peers = [RingPeer(f"peer-{int(t):x}-{i}", virtual_nodes) for i, t in enumerate(tokens)]
        return cls(peers)

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(n_peers={self.n_peers}, "
            f"virtual_positions={self._positions.size}, "
            f"imbalance={self.arc_imbalance():.2f}x)"
        )
