"""Compiled kernel backend: the tier below the NumPy kernels.

One loop over the pre-drawn ``(R, k, d)`` choice batch touches each count
exactly once, with no per-ball Python frames and no temporary arrays.
This module holds that loop for the three lockstep specialisations the
NumPy kernels also cover:

* **d=2 uniform** — equal capacities, the pure count comparison;
* **d=2 general** — heterogeneous capacities, shared ``(n,)`` or
  per-replication ``(R, n)`` matrices, exact integer cross-multiplication;
* **general d** — the tournament/tie-set reduction of
  :func:`repro.core.fast.run_batch`'s general loop.

Each kernel source is compiled once, through :func:`_jit`.  Without
Numba the module stays importable and runs the sources through the
interpreter: identical arithmetic, interpreter speed.  Dispatch selects
this tier only when Numba is present, so a Numba-less install never
slows down; the equivalence suite still forces it at tiny scale, pinning
the fallback to the same bit-identity contract.  Compilation is cached on
disk (``numba.njit(cache=True)``), so the jit cost is paid once per
machine, not once per process.

There is no compiled *wavefront*: the wavefront amortises per-ball call
overhead across conflict-free tiles, and a compiled loop has none, so its
tiling would degenerate to the sequential commit order these loops
already execute.

Which tier runs is :func:`repro.core.policy.dispatch`'s call; tests
pin this one with ``forced_tier("compiled")``.
"""

from __future__ import annotations

import numpy as np

from .policy import HAVE_NUMBA
from .wavefront import validate_lockstep_batch

if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba

    def _jit(func):
        """Disk-cached nopython jit; ``fastmath`` stays off — the contract
        is bit-identity, and reassociation would break the exact integer
        cross-multiplications' float height divisions."""
        return _numba.njit(cache=True, fastmath=False)(func)

else:  # pragma: no cover - the only path on numba-less CI

    def _jit(func):
        """Numba absent: run the kernel source as plain Python."""
        return func


__all__ = [
    "HAVE_NUMBA",
    "warmup",
    "run_batch_compiled",
]


# Only perfbench's stamp reads this; it goes with ROADMAP item 8.
def get_backend() -> str:
    return "auto"


# Only perfbench's stamp reads this; it goes with ROADMAP item 8.
def use_compiled() -> bool:
    return HAVE_NUMBA


# Only perfbench's stamp reads this; it goes with ROADMAP item 8.
def get_threads() -> str:
    return "auto"


# Only perfbench's stamp reads this; it goes with ROADMAP item 8.
def worker_thread_budget() -> str:
    return "1"


# --------------------------------------------------------------------------
# Kernels.  Plain loops in numba-compatible form, each compiled once below.
# All arithmetic mirrors repro.core.fast exactly: int64 loads, exact
# cross-multiplication, tie coin ``tie_u < 0.5``, heights as the
# int64/int64 -> float64 division of the post-commit count — the same IEEE
# operations the NumPy kernels perform, hence bit-identical.
# --------------------------------------------------------------------------


def _kernel_d2_uniform(counts, cha, chb, tie_u, heights, record, capacity):
    """d=2, equal capacities: the pure count comparison (fig01–05 shape).

    Every tie-break mode degenerates to the fair coin when the candidate
    capacities are equal, so the mode does not enter.
    """
    R, k = cha.shape
    for r in range(R):
        row = counts[r]
        for j in range(k):
            a = cha[r, j]
            b = chb[r, j]
            na = row[a]
            nb = row[b]
            if nb < na:
                chosen = b
            elif na < nb:
                chosen = a
            else:
                chosen = a if tie_u[r, j] < 0.5 else b
            row[chosen] += 1
            if record:
                heights[r, j] = row[chosen] / capacity
    return counts


def _kernel_d2_general(counts, caps2, cha, chb, tie_u, mode, heights, record):
    """d=2, heterogeneous capacities (shared ``(1, n)`` or per-replication
    ``(R, n)`` rows), mirroring ``fast._run_batch_d2`` branch for branch."""
    R, k = cha.shape
    crows = caps2.shape[0]
    for r in range(R):
        row = counts[r]
        crow = caps2[r % crows]
        for j in range(k):
            a = cha[r, j]
            b = chb[r, j]
            if a == b:
                chosen = a
            else:
                ca = crow[a]
                cb = crow[b]
                la = (row[a] + 1) * cb
                lb = (row[b] + 1) * ca
                if la < lb:
                    chosen = a
                elif lb < la:
                    chosen = b
                elif mode == 0:  # prefer larger capacity
                    if ca > cb:
                        chosen = a
                    elif cb > ca:
                        chosen = b
                    else:
                        chosen = a if tie_u[r, j] < 0.5 else b
                elif mode == 2:  # prefer smaller capacity (ablation)
                    if ca < cb:
                        chosen = a
                    elif cb < ca:
                        chosen = b
                    else:
                        chosen = a if tie_u[r, j] < 0.5 else b
                else:  # uniform among the tied pair
                    chosen = a if tie_u[r, j] < 0.5 else b
            row[chosen] += 1
            if record:
                heights[r, j] = row[chosen] / crow[chosen]
    return counts


def _kernel_general(counts, caps2, choices, tie_u, mode, heights, record):
    """General ``d`` (and ``d = 1``): the tournament + first-occurrence tie
    set of ``fast._run_batch_general``, on a per-row scratch array."""
    R = counts.shape[0]
    k = choices.shape[1]
    d = choices.shape[2]
    crows = caps2.shape[0]
    for r in range(R):
        best = np.empty(d, np.int64)
        row = counts[r]
        crow = caps2[r % crows]
        for j in range(k):
            first = choices[r, j, 0]
            best[0] = first
            nb = 1
            best_num = row[first] + 1
            best_den = crow[first]
            for i in range(1, d):
                c = choices[r, j, i]
                num = row[c] + 1
                den = crow[c]
                lhs = num * best_den
                rhs = best_num * den
                if lhs < rhs:
                    best[0] = c
                    nb = 1
                    best_num = num
                    best_den = den
                elif lhs == rhs:
                    dup = False
                    for t in range(nb):
                        if best[t] == c:
                            dup = True
                            break
                    if not dup:
                        best[nb] = c
                        nb += 1
            if nb > 1:
                if mode == 0:
                    cbest = crow[best[0]]
                    for t in range(1, nb):
                        if crow[best[t]] > cbest:
                            cbest = crow[best[t]]
                    w = 0
                    for t in range(nb):
                        if crow[best[t]] == cbest:
                            best[w] = best[t]
                            w += 1
                    nb = w
                elif mode == 2:
                    cbest = crow[best[0]]
                    for t in range(1, nb):
                        if crow[best[t]] < cbest:
                            cbest = crow[best[t]]
                    w = 0
                    for t in range(nb):
                        if crow[best[t]] == cbest:
                            best[w] = best[t]
                            w += 1
                    nb = w
            if nb == 1:
                chosen = best[0]
            else:
                chosen = best[int(tie_u[r, j] * nb)]
            row[chosen] += 1
            if record:
                heights[r, j] = row[chosen] / crow[chosen]
    return counts


_SOURCES = {
    "d2_uniform": _kernel_d2_uniform,
    "d2_general": _kernel_d2_general,
    "general": _kernel_general,
}

#: The compile of every source.
_KERNELS = {name: _jit(src) for name, src in _SOURCES.items()}

#: Height placeholder handed to the kernels when no recording was asked
#: for; keeps every call signature identical so numba compiles each kernel
#: once per dtype layout instead of once per record flag.
_NO_HEIGHTS = np.empty((0, 0), dtype=np.float64)


def warmup(d_values=(1, 2, 3)) -> bool:
    """Force-compile (or cache-load) every kernel at toy scale.

    Benchmarks and CI call this outside their timed sections so the jit
    cost (first machine: ~seconds; cached: ~milliseconds) never pollutes a
    floor measurement.  Returns :data:`HAVE_NUMBA`
    — without numba this is a cheap no-op pass through the Python
    fallbacks.
    """
    for d in d_values:
        for caps in (np.ones(4, dtype=np.int64), np.arange(1, 5, dtype=np.int64)):
            counts = np.zeros((2, 4), dtype=np.int64)
            choices = np.tile(np.arange(d, dtype=np.int64) % 4, (2, 3, 1))
            tie_u = np.full((2, 3), 0.25)
            heights = np.empty((2, 3), dtype=np.float64)
            run_batch_compiled(counts, caps, choices, tie_u, heights=heights)
            run_batch_compiled(counts, caps, choices, tie_u)
    return HAVE_NUMBA


def run_batch_compiled(
    counts: np.ndarray,
    capacities,
    choices: np.ndarray,
    tie_uniforms: np.ndarray,
    *,
    tie_break: str = "max_capacity",
    heights: np.ndarray | None = None,
) -> np.ndarray:
    """Allocate one batch of balls with the compiled tier.

    Drop-in replacement for
    :func:`repro.core.ensemble.run_batch_ensemble` /
    :func:`repro.core.wavefront.run_batch_wavefront` — same parameters,
    same validation (shared via
    :func:`repro.core.wavefront.validate_lockstep_batch`), ``counts`` is
    the ``(R, n)`` int64 state mutated in place — dispatching to one of
    the three specialisations (d=2 uniform, d=2 general incl. ``(R, n)``
    capacity matrices, general d).  Bit-identical to the NumPy kernels
    for every replication, heights included.
    """
    mode, counts, caps, tie_uniforms = validate_lockstep_batch(
        counts, capacities, choices, tie_uniforms, tie_break, heights
    )
    _, k, d = choices.shape
    if k == 0:
        return counts
    if choices.dtype != np.int64:
        choices = choices.astype(np.int64)
    if tie_uniforms.dtype != np.float64:
        tie_uniforms = tie_uniforms.astype(np.float64)
    caps2 = caps if caps.ndim == 2 else caps[None, :]
    record = heights is not None
    h = heights if record else _NO_HEIGHTS
    if d == 2:
        cha = np.ascontiguousarray(choices[:, :, 0])
        chb = np.ascontiguousarray(choices[:, :, 1])
        if caps.ndim == 1 and bool((caps == caps[0]).all()):
            _KERNELS["d2_uniform"](counts, cha, chb, tie_uniforms, h,
                                   record, int(caps[0]))
        else:
            _KERNELS["d2_general"](counts, caps2, cha, chb, tie_uniforms,
                                   np.int64(mode), h, record)
    else:
        _KERNELS["general"](counts, caps2, choices, tie_uniforms,
                            np.int64(mode), h, record)
    return counts
