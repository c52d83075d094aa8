"""Kernel policy: which tier decides Algorithm 1, and on how many threads.

Three kernel tiers implement the identical decision sequence — the
compiled loops (:mod:`repro.core.compiled`), the conflict-free wavefront
kernels (:mod:`repro.core.wavefront`) and the per-ball kernels
(:func:`repro.core.fast.run_batch` in the scalar driver,
:func:`repro.core.ensemble.run_batch_ensemble` in the lockstep one).
Every tier consumes the same pre-drawn choices and tie uniforms, so no
setting here can change a number; the equivalence suite runs each axis
both ways and compares bit for bit
(:func:`repro.core.equivalence.check_dispatch_identity`).

One frozen :class:`KernelPolicy` carries the three settings:

* ``backend`` — ``"auto"`` (the compiled tier exactly when Numba is
  importable), ``"numpy"`` or ``"compiled"`` (jitted with Numba, the same
  source through the interpreter without it);
* ``wavefront`` — ``"auto"`` (the cost model below, plus a runtime guard
  on the realised free fraction), ``"on"`` or ``"off"``; NumPy tier only;
* ``threads`` — ``"auto"`` (``min(cores, R)`` once a run clears
  :data:`PARALLEL_MIN_WORK`) or a positive integer; compiled tier only.

:func:`current_policy` reads ``REPRO_BACKEND``, ``REPRO_WAVEFRONT`` and
``REPRO_THREADS`` — an unparseable value falls back to ``"auto"``, so a
knob degrades and never crashes a run — with the process override of
:func:`set_policy` / :func:`forced_policy` on top.  :func:`dispatch`
turns a policy and a run's shape into ``(tier, threads)``, in priority
order compiled > wavefront > per-ball; both engine drivers call it once
per run and then call the kernel themselves.

Fleet safety: pool and fabric children run with
:attr:`KernelPolicy.worker_threads` — ``1`` unless the parent chose a
budget — so ``workers × threads`` never oversubscribes the cores.

Wavefront cost model
--------------------
The wavefront commits a tile of ``W`` balls at once, deferring the balls
that share a bin with an earlier tile ball; the deferred fraction is
about ``d^2 * W / (2 * n_eff)``, where ``n_eff`` is the
collision-equivalent bin count of the selection distribution
(:func:`effective_bins`).  ``"auto"`` enters the wavefront when most
balls commit in the first wave *and* ``n_eff / (R * d * d)`` clears a
floor set by the per-ball kernel it replaces: the NumPy per-ball kernel
amortises its call overhead over ``R`` lanes
(:data:`MIN_BINS_PER_LANE`), and the scalar driver's list loop is about
20x faster than that kernel at ``R = 1`` (:data:`SCALAR_MIN_BINS_PER_LANE`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the only path on numba-less CI
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "CHOICES",
    "ENV_VARS",
    "PARALLEL_MIN_WORK",
    "KernelPolicy",
    "current_policy",
    "set_policy",
    "forced_policy",
    "cpu_budget",
    "dispatch",
    "effective_bins",
    "expected_free_fraction",
    "tile_width",
    "use_wavefront",
]

#: Settable values per field; ``threads`` also takes any positive integer.
CHOICES = {
    "backend": ("auto", "numpy", "compiled"),
    "wavefront": ("auto", "on", "off"),
    "threads": ("auto",),
}

#: The environment variable behind each field.
ENV_VARS = {
    "backend": "REPRO_BACKEND",
    "wavefront": "REPRO_WAVEFRONT",
    "threads": "REPRO_THREADS",
}

#: ``"auto"`` thread work-size floor, in total batch elements (``R * k``):
#: below this the thread-pool fork/join overhead exceeds the loop itself,
#: so tiny batches stay on the serial compile.  Explicit budgets bypass it.
PARALLEL_MIN_WORK = 1 << 16


def _parse(name: str, value):
    """Validate one field's value; a thread budget comes back as an int."""
    if value in CHOICES[name]:
        return value
    if name == "threads":
        try:
            budget = int(value)
        except (TypeError, ValueError):
            budget = 0
        if budget >= 1:
            return budget
        raise ValueError(
            f"invalid thread budget {value!r}; expected 'auto' or a positive integer"
        )
    raise ValueError(f"unknown {name} {value!r}; expected one of {CHOICES[name]}")


def cpu_budget() -> int:
    """Core count the ``"auto"`` thread budget may fill (monkeypatched by
    tests that simulate multi-core boxes on single-core CI)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class KernelPolicy:
    """The three dispatch settings; validated on construction."""

    backend: str = "auto"
    wavefront: str = "auto"
    threads: str | int = "auto"

    def __post_init__(self) -> None:
        for name in ENV_VARS:
            object.__setattr__(self, name, _parse(name, getattr(self, name)))

    @classmethod
    def from_env(cls) -> "KernelPolicy":
        """The policy the environment asks for; invalid values read as
        ``"auto"``."""
        fields = {}
        for name, var in ENV_VARS.items():
            try:
                fields[name] = _parse(name, os.environ.get(var, "auto"))
            except ValueError:
                pass
        return cls(**fields)

    @property
    def compiled(self) -> bool:
        """Whether the compiled tier runs.  No size heuristic: with
        compilation disk-cached, the compiled loop wins from the first
        chunk at every scale the engines run."""
        return self.backend == "compiled" or (self.backend == "auto" and HAVE_NUMBA)

    def thread_budget(self, repetitions: int, work: int | None = None) -> int:
        """Concrete compiled-tier thread count for ``repetitions`` rows.

        An explicit budget is returned unchanged (``prange`` leaves threads
        beyond ``R`` idle).  ``"auto"`` resolves to ``min(cpu_budget(), R)``,
        except that batches under :data:`PARALLEL_MIN_WORK` total elements
        (*work*, typically ``R * k``) stay serial.
        """
        if self.threads != "auto":
            return self.threads
        if work is not None and work < PARALLEL_MIN_WORK:
            return 1
        return max(1, min(cpu_budget(), repetitions))

    @property
    def worker_threads(self) -> str:
        """``REPRO_THREADS`` for a pool or fabric child: ``"1"`` under
        ``"auto"`` (the parent already parallelises across workers), the
        explicit budget when the parent chose one."""
        return "1" if self.threads == "auto" else str(self.threads)


#: Process override: the fields :func:`set_policy` pinned, over the env.
_override: dict = {}


def current_policy() -> KernelPolicy:
    """The environment's policy with the process override on top."""
    return replace(KernelPolicy.from_env(), **_override)


def set_policy(**fields) -> None:
    """Pin policy fields for this process; a field set to ``None`` goes
    back to its environment variable."""
    global _override
    unknown = set(fields) - set(ENV_VARS)
    if unknown:
        raise TypeError(f"unknown policy fields {sorted(unknown)}")
    merged = {**_override, **fields}
    _override = {k: _parse(k, v) for k, v in merged.items() if v is not None}


@contextmanager
def forced_policy(**fields):
    """Pin policy fields for a block; the previous override comes back
    when the block exits, raising or not.  Yields the policy in force."""
    global _override
    previous = _override
    set_policy(**fields)
    try:
        yield current_policy()
    finally:
        _override = previous


# --------------------------------------------------------------------------
# Wavefront cost model.
# --------------------------------------------------------------------------

#: ``"auto"`` requires at least this expected free fraction at the
#: heuristic tile width; below it, deferred waves dominate.
MIN_FREE_FRACTION = 0.5

#: ...and at least this ``n_eff / (R * d * d)`` against the NumPy per-ball
#: kernel.  The free fraction is per replication — it cannot see the
#: lockstep width — but that kernel amortises its fixed call overhead over
#: ``R`` lanes, so wide ensembles shrink the wavefront's edge; measured on
#: the fig01-scaled configuration the crossover sits near 20.
MIN_BINS_PER_LANE = 25.0

#: The same floor at ``R = 1``, against the scalar driver's
#: :func:`repro.core.fast.run_batch` list loop.  Measured with uniform
#: bins and 200k balls (best of 3, 2 vCPUs), the wavefront overtakes the
#: list loop between ``n / d^2 = 1500`` (x0.89) and ``2000`` (x1.16) at
#: ``d = 2``, and near ``1333`` (x1.03) at ``d = 3``.
SCALAR_MIN_BINS_PER_LANE = 2000.0

#: Runtime guard threshold: a driver that observes a realised free
#: fraction below this after a chunk falls back to the per-ball kernels
#: for the rest of the run (auto mode only — forcing "on" stays on).
RUNTIME_MIN_FREE_FRACTION = 0.4

#: Tile-width scale: ``W ~ TILE_SCALE * sqrt(n_eff / R) / d`` balances
#: per-tile call overhead (pushes W up) against the deferred fraction
#: ``~ d^2 * W / (2 * n_eff)`` (pushes W down).  Calibrated on the
#: fig01-scaled benchmark configuration.
TILE_SCALE = 16.0

_MIN_TILE = 16
_MAX_TILE = 4096


def effective_bins(probabilities) -> float:
    """``1 / sum(p_i^2)`` — bin count of the collision-equivalent uniform
    distribution.  Two independent draws from ``p`` land in the same bin
    with probability ``sum(p_i^2)``; the dispatch heuristic and tile width
    use this instead of the raw ``n`` so skewed selection distributions
    (power-``t``, threshold) are costed correctly."""
    p = np.asarray(probabilities, dtype=np.float64)
    s = float((p * p).sum())
    return 1.0 / s if s > 0.0 else float(p.size)


def expected_free_fraction(
    n_eff: float, repetitions: int, d: int, width: int
) -> float:
    """Expected fraction of a tile's balls that commit in the first wave.

    Ball ``j`` of a tile is deferred when one of its ``d`` candidates
    repeats one of the ``j * d`` candidates drawn earlier in the tile
    (same replication), each pair colliding with probability
    ``1 / n_eff``; averaging the linearised ``1 - j * d^2 / n_eff`` over
    ``j < width`` gives the estimate below.  The engine is ragged (per
    replication), so ``repetitions`` does not enter the fraction — it is
    accepted for signature symmetry with :func:`use_wavefront`.
    """
    del repetitions
    return max(0.0, 1.0 - d * d * width / (2.0 * n_eff))


def tile_width(n_eff: float, repetitions: int, d: int) -> int:
    """Tile width ``~ TILE_SCALE * sqrt(n_eff / R) / d``, clamped to
    ``[16, 4096]`` and rounded down to a power of two (detection keys
    reserve ``log2(W)`` bits for the ball index)."""
    w = TILE_SCALE * (n_eff / max(1, repetitions)) ** 0.5 / max(1, d)
    w = min(_MAX_TILE, max(_MIN_TILE, int(w)))
    return 1 << (w.bit_length() - 1)


def use_wavefront(
    n_eff: float, repetitions: int, d: int, *, mode: str | None = None
) -> bool:
    """Wavefront predicate of :func:`dispatch`.

    ``"on"``/``"off"`` force the decision (*mode* defaults to the current
    policy's); ``"auto"`` requires both a high expected free fraction at
    the heuristic tile width and ``n_eff / (R * d * d)`` above the floor
    of the per-ball kernel being replaced — :data:`SCALAR_MIN_BINS_PER_LANE`
    at ``R = 1``, :data:`MIN_BINS_PER_LANE` otherwise.
    """
    mode = current_policy().wavefront if mode is None else mode
    if mode != "auto":
        return mode == "on"
    floor = SCALAR_MIN_BINS_PER_LANE if repetitions == 1 else MIN_BINS_PER_LANE
    if n_eff / (max(1, repetitions) * d * d) < floor:
        return False
    width = tile_width(n_eff, repetitions, d)
    return (
        expected_free_fraction(n_eff, repetitions, d, width)
        >= MIN_FREE_FRACTION
    )


def dispatch(
    policy: KernelPolicy, n_eff: float, repetitions: int, d: int, work: int
) -> tuple[str, int]:
    """``(tier, threads)`` for one driver run of ``repetitions`` rows.

    *tier* is ``"compiled"``, ``"wavefront"`` or ``"per_ball"``, in that
    priority order; *threads* is the compiled tier's budget for *work*
    total balls (``1`` on the NumPy tier).  A scalar run is the
    ``R = 1`` ensemble.  The caller runs the kernel.
    """
    if policy.compiled:
        return "compiled", policy.thread_budget(repetitions, work)
    if use_wavefront(n_eff, repetitions, d, mode=policy.wavefront):
        return "wavefront", 1
    return "per_ball", 1
