"""Open-loop traffic traces for the allocation service.

A trace is the *offered load*: arrival times, object keys, and user ids
generated ahead of time and replayed against the service at a configurable
rate, independent of how fast the service answers (open-loop arrivals — the
service never back-pressures the trace).  Three realism knobs:

* **heavy-tailed object popularity** — object keys are drawn Zipf(``s``)
  over a large object universe, with ranks shuffled so popularity is
  independent of id order (hot objects repeatedly probe the same ``d``
  ring points, which is exactly what stresses a placement protocol);
* **diurnal rate modulation** — arrivals follow a non-homogeneous Poisson
  process with instantaneous rate ``rate * (1 + amplitude *
  sin(2πt/period))``, sampled exactly by thinning;
* **large user populations** — every request carries a user id drawn
  uniformly from a universe of ``users`` simulated users (millions by
  default), so per-user bookkeeping downstream sees realistic cardinality.

Everything is a pure function of the spec (seed included): the same
:class:`TraceSpec` always yields the bit-identical trace, pinned by
:meth:`Trace.digest`.  Churn schedules are generated the same way —
timestamped join/leave actions the service resolves during replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..sampling.alias import AliasSampler
from ..sampling.rngutils import make_rng, spawn_seed_sequences

__all__ = [
    "TraceSpec",
    "Trace",
    "generate_trace",
    "ChurnAction",
    "generate_churn_schedule",
]


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one open-loop trace.

    ``rate`` is the mean arrival rate in requests per second of simulated
    time; ``diurnal_amplitude`` in ``[0, 1)`` modulates it sinusoidally
    with period ``diurnal_period`` seconds.  ``zipf_s`` is the popularity
    exponent over the ``objects`` universe (``None`` = uniform).
    """

    requests: int
    users: int = 1_000_000
    objects: int = 100_000
    zipf_s: float | None = 1.1
    rate: float = 10_000.0
    diurnal_amplitude: float = 0.5
    diurnal_period: float = 86_400.0
    seed: int = 0

    def __post_init__(self):
        if self.requests < 0:
            raise ValueError(f"requests must be non-negative, got {self.requests}")
        if self.users < 1:
            raise ValueError(f"users must be positive, got {self.users}")
        if self.objects < 1:
            raise ValueError(f"objects must be positive, got {self.objects}")
        if self.zipf_s is not None and self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ValueError(
                f"diurnal_period must be positive, got {self.diurnal_period}"
            )


@dataclass(frozen=True)
class Trace:
    """A generated trace: parallel arrays, one row per request."""

    spec: TraceSpec
    times: np.ndarray    # float64, non-decreasing arrival seconds
    objects: np.ndarray  # int64 object ids in [0, spec.objects)
    users: np.ndarray    # int64 user ids in [0, spec.users)

    @property
    def count(self) -> int:
        """Number of requests."""
        return int(self.times.size)

    @property
    def duration(self) -> float:
        """Simulated seconds spanned by the arrivals (0 when empty)."""
        return float(self.times[-1]) if self.times.size else 0.0

    def keys(self, start: int = 0, stop: int | None = None):
        """Request keys in arrival order (object-id addressed), optionally
        only those of requests ``start`` up to ``stop``.

        Requests for the same object yield the same ``str`` object, so a
        materialised key list costs memory per distinct object rather than
        per request (a Zipf trace repeats its hot objects many times).
        """
        names: dict[int, str] = {}
        objects = self.objects[start:stop]
        for lo in range(0, objects.size, 4096):
            chunk = objects[lo:lo + 4096].tolist()
            names.update((o, f"obj-{o}") for o in set(chunk).difference(names))
            yield from map(names.__getitem__, chunk)

    def digest(self) -> str:
        """sha256 over the trace arrays — the determinism pin."""
        h = hashlib.sha256()
        for arr in (self.times, self.objects, self.users):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _zipf_weights(count: int, s: float | None, rng) -> np.ndarray:
    """Zipf(``s``) weights with ranks shuffled (uniform when ``s`` is None)."""
    if s is None:
        return np.full(count, 1.0 / count)
    weights = np.arange(1, count + 1, dtype=np.float64) ** -s
    rng.shuffle(weights)
    return weights / weights.sum()


def _thinned_arrivals(spec: TraceSpec, rng) -> np.ndarray:
    """Exact non-homogeneous Poisson arrival times by thinning.

    Candidate arrivals come from a homogeneous process at the peak rate
    ``rate * (1 + amplitude)``; a candidate at time ``t`` survives with
    probability ``λ(t)/λ_max``.  Candidates are drawn in fixed-size chunks
    so the accepted stream is a pure function of the seed regardless of
    how many chunks the target count needs.
    """
    if spec.requests == 0:
        return np.empty(0, dtype=np.float64)
    lam_max = spec.rate * (1.0 + spec.diurnal_amplitude)
    omega = 2.0 * np.pi / spec.diurnal_period
    out: list[np.ndarray] = []
    accepted = 0
    t_last = 0.0
    # Chunk sized for ~2 rounds in the common case; thinning accepts at
    # mean rate 1/(1+amplitude), so oversample accordingly.
    chunk = max(1024, int(spec.requests * (1.0 + spec.diurnal_amplitude) * 0.75))
    while accepted < spec.requests:
        gaps = rng.exponential(1.0 / lam_max, size=chunk)
        times = t_last + np.cumsum(gaps)
        u = rng.random(chunk)
        lam = spec.rate * (1.0 + spec.diurnal_amplitude * np.sin(omega * times))
        keep = times[u * lam_max < lam]
        out.append(keep)
        accepted += keep.size
        t_last = float(times[-1])
    return np.concatenate(out)[: spec.requests]


def generate_trace(spec: TraceSpec) -> Trace:
    """Generate the trace for *spec* (bit-identical per spec)."""
    arrival_seed, object_seed, user_seed = spawn_seed_sequences(spec.seed, 3)
    times = _thinned_arrivals(spec, make_rng(arrival_seed))

    object_rng = make_rng(object_seed)
    weights = _zipf_weights(spec.objects, spec.zipf_s, object_rng)
    if spec.requests:
        objects = AliasSampler(weights).sample(spec.requests, object_rng)
    else:
        objects = np.empty(0, dtype=np.int64)

    users = make_rng(user_seed).integers(0, spec.users, size=spec.requests)
    return Trace(spec=spec, times=times, objects=objects,
                 users=users.astype(np.int64))


@dataclass(frozen=True)
class ChurnAction:
    """One scheduled membership change.

    ``peer_id`` may be ``None`` for a leave, in which case the service
    resolves the victim deterministically from its churn stream at apply
    time (the peer set at that moment is not known when the schedule is
    generated).  A leave resolved at the replication floor is recorded as
    a skip, mirroring :func:`repro.p2p.churn.run_churn`.
    """

    time: float
    kind: str  # "join" or "leave"
    peer_id: str | None = None

    def __post_init__(self):
        if self.kind not in ("join", "leave"):
            raise ValueError(f"kind must be 'join' or 'leave', got {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")


def generate_churn_schedule(
    events: int,
    duration: float,
    *,
    join_probability: float = 0.5,
    seed=None,
) -> tuple[ChurnAction, ...]:
    """Random timestamped churn actions over ``[0, duration]``, sorted."""
    if events < 0:
        raise ValueError(f"events must be non-negative, got {events}")
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if not 0.0 <= join_probability <= 1.0:
        raise ValueError(
            f"join_probability must be in [0, 1], got {join_probability}"
        )
    rng = make_rng(seed)
    times = np.sort(rng.random(events) * duration)
    kinds = rng.random(events) < join_probability
    return tuple(
        ChurnAction(time=float(t), kind="join" if j else "leave")
        for t, j in zip(times, kinds)
    )
