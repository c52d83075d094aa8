"""Service-side observability: latency percentiles and load stats.

The stats surface is a plain dict (JSON-ready) in the `/metrics` spirit:
request counters, placement-latency percentiles, the balls-into-bins load
summary (max load, mean load, max/mean — the quantity the paper bounds),
a per-peer load histogram, staleness telemetry, and churn counters.

Latencies are wall-clock and therefore *excluded* from the determinism
contract (the placement digest covers decisions only).  Placements decided
together in one staleness window (virtual-clock replay, recovery) each
record the window's amortised per-key time via
:meth:`LatencyRecorder.record_many`, so percentiles over such a run are
percentiles of window averages.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LatencyRecorder", "service_stats"]


class LatencyRecorder:
    """Bounded reservoir of latency samples with exact small-n percentiles.

    Keeps the first ``capacity`` samples and then overwrites in a
    deterministic ring — cheap, dependency-free, and good enough for p50
    and p99 over a service run (the tail of a stationary latency process
    is represented as long as the reservoir spans many refresh periods).
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._capacity = capacity
        self._count = 0

    def record(self, seconds: float) -> None:
        """Add one latency sample (seconds)."""
        self._buf[self._count % self._capacity] = seconds
        self._count += 1

    def record_many(self, seconds: float, count: int) -> None:
        """Add *count* samples of the same latency (one per placement of a
        batch decided together)."""
        start = self._count % self._capacity
        if start + count <= self._capacity:
            self._buf[start:start + count] = seconds
        else:
            self._buf[(start + np.arange(count)) % self._capacity] = seconds
        self._count += count

    @property
    def count(self) -> int:
        """Total samples recorded (may exceed the reservoir capacity)."""
        return self._count

    def percentile(self, q: float) -> float | None:
        """The *q*-th percentile over retained samples.

        ``None`` when no samples have been recorded — an idle server has
        no latency distribution, and reporting a fake ``0.0`` would make
        an idle endpoint look like an infinitely fast one on a dashboard
        (the stats surface serialises it as JSON ``null``).
        """
        n = min(self._count, self._capacity)
        if n == 0:
            return None
        return float(np.percentile(self._buf[:n], q))


def service_stats(
    *,
    requests: int,
    loads: dict[str, int],
    latency: LatencyRecorder,
    staleness_age: int,
    refresh_every: int,
    view_refreshes: int,
    joins: int,
    leaves: int,
    skips: int,
    d: int,
    placement_digest: str,
    errors: dict[str, int] | None = None,
    dedup_hits: int = 0,
    wal: dict | None = None,
) -> dict:
    """Assemble the `/metrics`-style stats dict from live service state."""
    values = np.asarray(list(loads.values()), dtype=np.float64)
    if values.size and values.sum() > 0:
        max_load = float(values.max())
        mean_load = float(values.mean())
        imbalance = max_load / mean_load
    else:
        max_load = 0.0
        mean_load = 0.0
        imbalance = 0.0
    p50 = latency.percentile(50.0)
    p99 = latency.percentile(99.0)
    return {
        "requests": requests,
        "peers": len(loads),
        "d": d,
        "latency": {
            "samples": latency.count,
            "p50_ms": None if p50 is None else p50 * 1e3,
            "p99_ms": None if p99 is None else p99 * 1e3,
        },
        "load": {
            "max": max_load,
            "mean": mean_load,
            "max_over_mean": imbalance,
            "per_peer": {pid: int(c) for pid, c in sorted(loads.items())},
        },
        "staleness": {
            "age": staleness_age,
            "refresh_every": refresh_every,
            "refreshes": view_refreshes,
        },
        "churn": {"joins": joins, "leaves": leaves, "skips": skips},
        "errors": dict(errors) if errors else
            {"oversized": 0, "bad_json": 0, "handler": 0, "stale_seq": 0},
        "dedup_hits": int(dedup_hits),
        "wal": wal,
        "placement_digest": placement_digest,
    }
