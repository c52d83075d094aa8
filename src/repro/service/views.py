"""Bounded-staleness load views and the capacity-aware placer.

The live service cannot afford perfectly fresh load information on every
request — exactly the regime :mod:`repro.core.rounds` models.  A
:class:`StaleLoadView` freezes the per-peer load counters and serves that
snapshot to every placement decision until ``refresh_every`` requests have
gone by (or churn forces a refresh); the placer therefore behaves like
``simulate_batched`` with ``batch_size = refresh_every``, and
``refresh_every = 1`` recovers the fully-sequential greedy protocol.

:class:`DChoicePlacer` is the paper's capacity-aware Algorithm 1 lifted
onto a ring snapshot: each key hashes to ``d`` independent ring points
(Byers et al.'s d-point scheme), their anti-clockwise owners are the
candidate peers, and the winner minimises ``(load + 1) / capacity`` over
the *stale* counts using the same exact integer cross-multiplication,
first-occurrence tie dedup, max-capacity tie filter, and position-aligned
uniform tie pick as the core kernels — so a replay against a static ring
with ``refresh_every = 1`` is bit-comparable to the theory path.
Capacities are the ring arcs quantised through
:meth:`~repro.p2p.ring.ConsistentHashRing.as_bin_array`.

Window batching: every decision inside one staleness window reads the
same frozen snapshot, so the decisions of a window do not depend on each
other — only the live counter increments are sequential.  The placer
therefore splits a decision into hashing and choosing.
:meth:`DChoicePlacer.place` decides one key:
:func:`~repro.p2p.hashing.point_sequence`, a ``bisect`` ring lookup, then
:func:`repro.core.rounds.stale_choice`.  For a run of keys,
:meth:`DChoicePlacer.owners` hashes a chunk at once
(:func:`~repro.p2p.hashing.point_sequences` plus one
:meth:`~repro.p2p.ring.ConsistentHashRing.lookup_batch`) and
:meth:`DChoicePlacer.decide_chunk` decides every window of the chunk in
one call: the C ``decide_windows`` (through a
:class:`repro.native.WindowKernel` the placer keeps, buffers and all)
where the library loads and the loads fit its int64 guard, otherwise
its Python twin
:func:`repro.core.rounds.stale_windows` — ``stale_choice`` per key, the
frozen loads replaced by the live ones at each window boundary, exactly
where the view will refresh.  The tier is fixed when the placer is built
(which also pays the library load, outside any timed chunk).  NumPy's
per-call cost makes batch hashing slower than the scalar path for a
handful of keys, so batches below :data:`BATCH_CROSSOVER` keys are hashed
and decided per key.  Every path gives the same decisions bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..core.rounds import stale_choice, stale_windows
from ..p2p.hashing import point_sequence, point_sequences
from ..p2p.ring import ConsistentHashRing

__all__ = ["BATCH_CROSSOVER", "StaleLoadView", "DChoicePlacer"]

#: Fewest keys hashed and looked up as one NumPy batch.  Below it the
#: NumPy call overhead (about 45 us per batch) exceeds the scalar
#: ``point_sequence`` + ``bisect`` path (about 6 us per key at d=2);
#: measured on a 2-vCPU Xeon, break-even at 8-10 keys for d=2, 6-8 for d=4.
BATCH_CROSSOVER = 8


class StaleLoadView:
    """A frozen snapshot of per-peer loads, refreshed every T requests.

    Parameters
    ----------
    source:
        Zero-argument callable returning the *live* ``{peer_id: load}``
        mapping.  The view copies it on refresh; decisions in between see
        the copy.
    refresh_every:
        Number of placements served by one snapshot (the staleness bound
        ``T``).  Must be ``>= 1``.
    """

    def __init__(self, source, refresh_every: int = 1):
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self._source = source
        self.refresh_every = refresh_every
        self._snapshot: dict[str, int] = dict(source())
        self.age = 0
        self.refreshes = 0

    def load_of(self, peer_id: str) -> int:
        """Snapshot load of *peer_id* (0 for peers unseen at snapshot time,
        e.g. freshly joined ones — the natural optimistic prior)."""
        return self._snapshot.get(peer_id, 0)

    @property
    def snapshot(self) -> dict[str, int]:
        """The frozen ``{peer_id: load}`` copy decisions read (replaced,
        never mutated, by :meth:`refresh`)."""
        return self._snapshot

    @property
    def remaining(self) -> int:
        """Placements left before the snapshot refreshes."""
        return self.refresh_every - self.age

    def tick(self) -> None:
        """Account one served placement; refresh when the bound is hit."""
        self.advance(1)

    def advance(self, count: int) -> None:
        """Account *count* served placements (at most :attr:`remaining`,
        so a refresh can only fall on the last of them)."""
        self.age += count
        if self.age >= self.refresh_every:
            self.refresh()

    def refresh(self) -> None:
        """Re-snapshot the live loads immediately (also used on churn)."""
        self._snapshot = dict(self._source())
        self.age = 0
        self.refreshes += 1


class DChoicePlacer:
    """Capacity-aware d-choice placement over one ring snapshot.

    The placer is immutable per ring; the service rebuilds it whenever
    churn changes the membership.  Peer identity is by ``peer_id`` string,
    so load counters survive ring rebuilds (ring indices do not).
    """

    def __init__(self, ring: ConsistentHashRing, d: int = 2, resolution: int = 1000):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.ring = ring
        self.d = d
        self.resolution = max(resolution, ring.n_peers)
        caps = ring.as_bin_array(self.resolution).capacities
        self._cap_list = caps.tolist()
        self._cap_array = np.ascontiguousarray(caps, dtype=np.int64)
        self._max_cap = int(caps.max())
        # The C window kernel, with its buffers, or None (the Python twin).
        self._windows = (native.WindowKernel(self._cap_array, d)
                         if native.available() else None)
        self._ids = [p.peer_id for p in ring.peers]
        self._caps = dict(zip(self._ids, self._cap_list))
        # The last view snapshot seen and its loads in ring-index order.
        self._snapshot = None
        self._frozen: list[int] = []

    def capacity_of(self, peer_id: str) -> int:
        """Quantised arc capacity of *peer_id* in this snapshot."""
        return self._caps[peer_id]

    @property
    def capacities(self) -> dict[str, int]:
        """``{peer_id: quantised arc capacity}`` of every peer (a copy)."""
        return dict(self._caps)

    def candidates(self, key) -> list[str]:
        """The ``d`` candidate peer ids of *key* (duplicates possible)."""
        return [self._ids[i] for i in self._candidate_indices(key)]

    def _candidate_indices(self, key) -> list[int]:
        lookup = self.ring.lookup
        return [lookup(p) for p in point_sequence(key, self.d)]

    def _frozen_loads(self, view: StaleLoadView) -> list[int]:
        """The view's snapshot as loads in ring-index order (cached until
        the view re-snapshots)."""
        snapshot = view.snapshot
        if snapshot is not self._snapshot:
            self._snapshot = snapshot
            self._frozen = [snapshot.get(pid, 0) for pid in self._ids]
        return self._frozen

    def place(self, key, view: StaleLoadView, tie_u: float) -> str:
        """Pick the winning peer for *key* against the stale *view*.

        ``tie_u`` is one uniform draw from the caller's tie stream; it is
        consumed positionally whether or not a tie occurs, mirroring the
        core kernels so the decision stream is reproducible independent of
        how often ties happen.
        """
        chosen = stale_choice(self._candidate_indices(key),
                              self._frozen_loads(view), self._cap_list, tie_u)
        return self._ids[chosen]

    def owners(self, keys) -> np.ndarray:
        """``(len(keys), d)`` ring peer indices of the keys' candidates —
        :meth:`candidates` for a batch, hashed and looked up at once."""
        return self.ring.lookup_batch(point_sequences(keys, self.d))

    def decide_chunk(self, owners: np.ndarray, tie_u, view: StaleLoadView,
                     loads) -> list[str]:
        """Winners of every staleness window of one chunk: row ``j`` of
        *owners* (from :meth:`owners`) with tie draw ``tie_u[j]``.  The
        first :attr:`~StaleLoadView.remaining` rows read *view*'s frozen
        snapshot; each later window of ``refresh_every`` rows reads the
        live loads (*loads*, ``{peer_id: load}``, left unchanged) as they
        will be when the view refreshes before it — :meth:`place` per row,
        bit for bit, provided the caller commits the winners window by
        window and nothing else changes the loads in between."""
        ids = self._ids
        live = [loads[pid] for pid in ids]
        first, every = view.remaining, view.refresh_every
        if (self._windows is not None
                and native.fits(max(live) + len(owners), self._max_cap)):
            winners = self._windows(owners, tie_u, self._frozen_loads(view), live,
                                    first, every).tolist()
        else:
            winners = stale_windows(owners.tolist(), np.asarray(tie_u).tolist(),
                                    self._frozen_loads(view), live,
                                    self._cap_list, first, every)
        return [ids[i] for i in winners]
