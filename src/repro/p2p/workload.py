"""Request allocation on rings — the Byers et al. d-point scheme.

Each request hashes to ``d`` independent points on the ring; each point maps
to the peer owning that arc; the request is assigned to a least-loaded of
the ``d`` peers.  Because a peer is hit with probability equal to its arc
length, this is the non-uniform-probability balls-into-bins game of the
related work ([7, 9] in the paper) — the stepping stone to the paper's
capacity-aware model.

Two peer-load notions are provided:

* ``capacity_aware=False`` (Byers et al.): peers are unit bins, load =
  number of requests — the related-work baseline;
* ``capacity_aware=True`` (this paper): peers' capacities are their
  (quantised) arc lengths and Algorithm 1 is applied, so big-arc peers
  deliberately absorb proportionally more requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from ..core.ensemble import lockstep_streams, run_batch_ensemble
from ..core.fast import run_batch
from ..core.policy import use_native, use_rows
from .ring import ConsistentHashRing

__all__ = [
    "RingAllocationResult",
    "allocate_requests",
    "RingEnsembleResult",
    "allocate_requests_ensemble",
]


@dataclass(frozen=True)
class RingAllocationResult:
    """Outcome of allocating *m* requests onto a ring."""

    counts: np.ndarray
    capacities: np.ndarray
    m: int
    d: int
    capacity_aware: bool

    @property
    def loads(self) -> np.ndarray:
        """Per-peer loads: requests over capacity (capacity 1 when unaware)."""
        return self.counts / self.capacities

    @property
    def max_load(self) -> float:
        """Maximum per-peer load."""
        return float(self.loads.max())

    @property
    def max_requests(self) -> int:
        """Maximum raw request count on any peer (Byers et al.'s metric)."""
        return int(self.counts.max())


def allocate_requests(
    ring: ConsistentHashRing,
    m: int,
    d: int = 2,
    *,
    capacity_aware: bool = False,
    resolution: int | None = None,
    seed=None,
) -> RingAllocationResult:
    """Allocate *m* requests, each probing *d* random ring points.

    Parameters
    ----------
    ring:
        The consistent-hashing ring.
    m:
        Number of requests.
    d:
        Probes per request (``d = 1`` reproduces plain consistent hashing).
    capacity_aware:
        When true, peers get integer capacities proportional to their arcs
        (quantised at *resolution*) and the paper's Algorithm 1 decides
        among the probed peers; when false every peer is a unit bin
        (Byers et al.).
    resolution:
        Quantisation for capacity-aware mode; defaults to
        ``max(1000, 10 * n_peers)``.
    seed:
        RNG seed for the request points.

    This is the ``R = 1`` call of :func:`allocate_requests_ensemble`.
    """
    res = allocate_requests_ensemble(
        ring, m, 1, d, capacity_aware=capacity_aware, resolution=resolution,
        seeds=[seed],
    )
    return RingAllocationResult(
        counts=res.counts[0],
        capacities=res.capacities,
        m=m,
        d=d,
        capacity_aware=capacity_aware,
    )


@dataclass(frozen=True)
class RingEnsembleResult:
    """Outcome of allocating *m* requests in ``R`` lockstep replications."""

    counts: np.ndarray
    capacities: np.ndarray
    m: int
    d: int
    capacity_aware: bool
    seed_mode: str

    @property
    def loads(self) -> np.ndarray:
        """``(R, n_peers)`` per-peer loads."""
        return self.counts / self.capacities

    @property
    def max_loads(self) -> np.ndarray:
        """``(R,)`` per-replication maximum loads."""
        return self.loads.max(axis=1)

    @property
    def max_requests(self) -> np.ndarray:
        """``(R,)`` per-replication maximum raw request counts."""
        return self.counts.max(axis=1)


def allocate_requests_ensemble(
    ring: ConsistentHashRing,
    m: int,
    repetitions: int | None = None,
    d: int = 2,
    *,
    capacity_aware: bool = False,
    resolution: int | None = None,
    seed=None,
    seeds=None,
    seed_mode: str = "spawn",
) -> RingEnsembleResult:
    """Allocate *m* requests onto one shared ring, ``R`` replications at once.

    The one drive loop of ring allocation (:func:`allocate_requests` is its
    ``R = 1`` call).  Parameters mirror :func:`allocate_requests` plus the
    ensemble seeding knobs of :func:`repro.core.ensemble.simulate_ensemble`:
    with ``seed_mode="spawn"`` (or explicit ``seeds=``) replication ``r``
    reproduces ``allocate_requests(ring, m, d, ..., seed=child_r)``
    bit-exactly — same point draws, same owner lookup, same tie stream —
    while ``seed_mode="blocked"`` draws all replications' points from one
    generator.  All replications probe the *same* ring; random rings use the
    shared-params-per-block convention
    (:func:`repro.runtime.executor.block_parameter_rng`).
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    R, draw, _ = lockstep_streams(repetitions, seed, seeds, seed_mode)
    if capacity_aware:
        res = resolution if resolution is not None else max(1000, 10 * ring.n_peers)
        caps = ring.as_bin_array(res).capacities
    else:
        caps = np.ones(ring.n_peers, dtype=np.int64)

    # Request points are uniform on the circle; map every point to its peer
    # through the ring's own vectorised lookup (bit-identical to per-point
    # ring.lookup, wrap normalisation included).
    points, tie_u = draw(lambda shape, g: g.random(shape), m, d)
    owners = ring.lookup_batch(points).astype(np.int64)

    counts = np.zeros((R, ring.n_peers), dtype=np.int64)
    if use_native(native.fits(m, caps.max())):
        # The native tier takes the same (R, m, d) owner chunk.
        native.run_rows(counts, caps, owners, tie_u, "max_capacity")
    elif use_rows(R, d):
        # The rows tier: the list row kernel once per replication.
        caps_list = caps.tolist()
        rows = [[0] * ring.n_peers for _ in range(R)]
        for row, own, u in zip(rows, owners, tie_u):
            run_batch(row, caps_list, own, u, tie_break="max_capacity")
        counts[:] = rows
    else:
        run_batch_ensemble(counts, caps, owners, tie_u, tie_break="max_capacity")
    return RingEnsembleResult(
        counts=counts,
        capacities=caps,
        m=m,
        d=d,
        capacity_aware=capacity_aware,
        seed_mode=seed_mode,
    )
