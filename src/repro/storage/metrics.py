"""Cluster-level imbalance metrics.

Two views of an assignment, matching the two resources a storage operator
balances:

* **fill** — stored bytes per unit capacity (the paper's load `m_i / c_i`
  generalised to sizes);
* **read load** — expected read traffic per unit bandwidth, under the
  object popularity distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .objects import ObjectSet

__all__ = ["PlacementReport", "evaluate_placement"]


@dataclass(frozen=True)
class PlacementReport:
    """Imbalance metrics of one placement."""

    fill: np.ndarray
    read_load: np.ndarray
    stored_mass: np.ndarray
    objects_per_disk: np.ndarray
    total_capacity: float
    bandwidths: np.ndarray

    @property
    def max_fill(self) -> float:
        """Maximum bytes-per-capacity over disks (the paper's ℓ_max)."""
        return float(self.fill.max())

    @property
    def average_fill(self) -> float:
        """Total mass over total capacity — the balanced optimum."""
        return float(self.stored_mass.sum() / self.total_capacity)

    @property
    def fill_imbalance(self) -> float:
        """Max fill over mean fill (1.0 = perfect)."""
        mean = self.fill.mean()
        return float(self.fill.max() / mean) if mean > 0 else 0.0

    @property
    def read_imbalance(self) -> float:
        """Max read load over the bandwidth-weighted ideal share.

        Disk ``i``'s fair share of the total read traffic is
        ``bandwidth_i / Σ bandwidth``; at that share every disk's traffic
        per unit bandwidth equals ``Σ popularity / Σ bandwidth``, which is
        the denominator here.  A fast disk legitimately carrying
        proportionally more raw traffic therefore scores 1.0, not
        imbalance.
        """
        traffic = self.read_load * self.bandwidths
        total = traffic.sum()
        if total <= 0:
            return 0.0
        ideal = total / self.bandwidths.sum()
        return float(self.read_load.max() / ideal)


def evaluate_placement(
    assignment,
    objects: ObjectSet,
    cluster: Cluster,
) -> PlacementReport:
    """Compute fill and read-load metrics for *assignment*.

    ``assignment[k]`` is the disk holding object ``k``.  Read load of disk
    ``i`` is ``Σ_{k on i} popularity_k / bandwidth_i`` — the expected share
    of read traffic normalised by the disk's service rate.
    """
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (objects.count,):
        raise ValueError(
            f"assignment has shape {a.shape}, expected ({objects.count},)"
        )
    n = cluster.n_disks
    if a.size and (a.min() < 0 or a.max() >= n):
        raise ValueError("assignment references disks outside the cluster")

    caps = cluster.capacities().astype(np.float64)
    bws = cluster.bandwidths()

    mass = np.bincount(a, weights=objects.sizes, minlength=n)
    popularity = np.bincount(a, weights=objects.popularity, minlength=n)
    counts = np.bincount(a, minlength=n)

    return PlacementReport(
        fill=mass / caps,
        read_load=popularity / bws,
        stored_mass=mass,
        objects_per_disk=counts.astype(np.int64),
        total_capacity=float(caps.sum()),
        bandwidths=bws,
    )
