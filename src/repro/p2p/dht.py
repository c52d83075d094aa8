"""A key-value DHT over the consistent-hashing ring, with churn.

Completes the motivating substrate: the introduction's P2P systems don't
just hash once — peers join and leave, and the selling point of consistent
hashing is that each membership change remaps only a ``1/n`` fraction of
keys.  :class:`DHT` stores keys with ``r``-fold successor replication,
supports join/leave with exact key-movement accounting, and exposes the
per-peer key-count skew that the balls-into-bins model abstracts.

The d-point variant (:meth:`DHT.store_d_choice`) places each key on the
least-loaded of ``d`` hashed candidate peers — Byers et al.'s scheme running
on a live table rather than in expectation.
"""

from __future__ import annotations

import numpy as np

from .hashing import hash_to_unit, point_sequence
from .ring import ConsistentHashRing, RingPeer

__all__ = ["DHT"]


class DHT:
    """Replicated key-value directory on a consistent-hashing ring.

    Parameters
    ----------
    peers:
        Initial peer ids (or :class:`RingPeer` descriptors).
    replication:
        Number of *distinct* peers holding each key (successor list).
    virtual_nodes:
        Virtual positions per peer.
    """

    def __init__(self, peers, replication: int = 1, virtual_nodes: int = 1):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.replication = replication
        self.virtual_nodes = virtual_nodes
        self._peer_ids: list[str] = []
        for p in peers:
            pid = p.peer_id if isinstance(p, RingPeer) else str(p)
            self._peer_ids.append(pid)
        if len(self._peer_ids) < replication:
            raise ValueError(
                f"need at least replication={replication} peers, got {len(self._peer_ids)}"
            )
        self._keys: dict[str, tuple[str, ...]] = {}
        # Ring point each key was placed at: the canonical hash point for
        # store(), the chosen candidate point for store_d_choice().  Churn
        # remaps from this point, so d-choice placements survive membership
        # changes instead of being silently canonicalised.
        self._key_points: dict[str, float] = {}
        self._rebuild_ring()

    # -- ring plumbing ---------------------------------------------------------

    def _rebuild_ring(self) -> None:
        self._ring = ConsistentHashRing(
            [RingPeer(pid, self.virtual_nodes) for pid in self._peer_ids]
        )

    @property
    def ring(self) -> ConsistentHashRing:
        """The current ring snapshot (rebuilt on every membership change)."""
        return self._ring

    @property
    def n_peers(self) -> int:
        """Current number of peers."""
        return len(self._peer_ids)

    @property
    def peer_ids(self) -> tuple[str, ...]:
        """Current peer ids."""
        return tuple(self._peer_ids)

    def _successors(self, point: float, count: int) -> tuple[str, ...]:
        """First *count* distinct peers anti-clockwise from *point*."""
        ring = self._ring
        pos = ring.positions
        start = int(np.searchsorted(pos, point, side="left"))
        owners: list[str] = []
        for step in range(pos.size):
            idx = (start + step) % pos.size
            pid = self._peer_ids[ring._owners[idx]]
            if pid not in owners:
                owners.append(pid)
                if len(owners) == count:
                    break
        return tuple(owners)

    # -- storage ---------------------------------------------------------------

    def store(self, key: str) -> tuple[str, ...]:
        """Place *key* on its canonical successor replication set."""
        point = hash_to_unit(key)
        owners = self._successors(point, self.replication)
        self._keys[key] = owners
        self._key_points[key] = point
        return owners

    def store_d_choice(self, key: str, d: int = 2) -> tuple[str, ...]:
        """Byers et al.: hash *key* to *d* points, store at the point whose
        primary owner currently holds the fewest keys (replicas follow the
        chosen point's successor list)."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        loads = self.key_counts()
        best_point = None
        best_load = None
        for point in point_sequence(key, d):
            owner = self._successors(point, 1)[0]
            load = loads.get(owner, 0)
            if best_load is None or load < best_load:
                best_point, best_load = point, load
        owners = self._successors(best_point, self.replication)
        self._keys[key] = owners
        self._key_points[key] = best_point
        return owners

    def lookup(self, key: str) -> tuple[str, ...]:
        """Peers currently recorded as holding *key* (KeyError if absent)."""
        return self._keys[key]

    def key_counts(self) -> dict[str, int]:
        """Primary-copy count per peer (the bins-model load)."""
        counts = {pid: 0 for pid in self._peer_ids}
        for owners in self._keys.values():
            primary = owners[0]
            if primary in counts:
                counts[primary] += 1
        return counts

    def replica_counts(self) -> dict[str, int]:
        """Total copies (primary + replicas) per peer."""
        counts = {pid: 0 for pid in self._peer_ids}
        for owners in self._keys.values():
            for pid in owners:
                if pid in counts:
                    counts[pid] += 1
        return counts

    def skew(self) -> float:
        """Max primary count over the average (1.0 = perfectly even)."""
        counts = list(self.key_counts().values())
        total = sum(counts)
        if total == 0:
            return 0.0
        return max(counts) * len(counts) / total

    # -- churn -----------------------------------------------------------------

    def _remap(self) -> int:
        """Recompute every key's owners from its placement point; return the
        number of copies that land on peers that did not hold them before."""
        moved = 0
        for key, old_owners in list(self._keys.items()):
            new_owners = self._successors(self._key_points[key], self.replication)
            moved += len(set(new_owners) - set(old_owners))
            self._keys[key] = new_owners
        return moved

    def join(self, peer_id: str) -> int:
        """Add a peer; return the number of key copies that moved.

        Consistent hashing's promise: only keys in the new peer's arcs move
        — about ``stored / n`` copies per replica level.
        """
        if peer_id in self._peer_ids:
            raise ValueError(f"peer {peer_id!r} already present")
        self._peer_ids.append(peer_id)
        self._rebuild_ring()
        return self._remap()

    def leave(self, peer_id: str) -> int:
        """Remove a peer; return the number of key copies that moved."""
        if peer_id not in self._peer_ids:
            raise KeyError(f"peer {peer_id!r} not present")
        if len(self._peer_ids) - 1 < self.replication:
            raise ValueError("cannot drop below the replication factor")
        self._peer_ids.remove(peer_id)
        self._rebuild_ring()
        return self._remap()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys
