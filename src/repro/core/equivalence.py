"""Randomised cross-engine equivalence checking.

Several implementations of the paper's protocol coexist —
:func:`repro.core.protocol.reference_run` (readable),
:func:`repro.core.fast.run_batch` (optimised scalar),
:func:`repro.core.ensemble.run_batch_ensemble` (lockstep ensemble),
:func:`repro.core.wavefront.run_batch_wavefront` (vectorised conflict-free
waves), :func:`repro.core.compiled.run_batch_compiled` (Numba tier with
interpreter fallback) and the C row loops of :mod:`repro.native` —
under one contract: given the same candidate matrix
and the same position-aligned tie-uniform stream, all of them produce the
same counts, ball for ball.  Each protocol (plain, stale-view batches,
weighted balls, ring allocation) has one lockstep driver, whose list row
kernel (run once per row by the rows tier, and at ``R = 1``) and
lockstep kernel carry the same contract.

This module has three layers:

* randomised *bit-exactness* sweeps over the kernels and the spawn-mode
  drivers (:func:`check_kernel_equivalence`,
  :func:`check_lockstep_kernel_equivalence`, and :func:`check_row_parity`
  over :data:`ROW_DRIVERS`), plus the native sweep against the reference
  (:func:`check_native_equivalence`) and the service's window kernel
  against a window-by-window ``stale_choice`` loop
  (:func:`check_window_equivalence`);
* the *dispatch-identity matrix*: each dispatch axis
  (:data:`DISPATCH_AXES` — wavefront on/off, rows on/off, backend
  compiled/numpy, native on/off) forced through every value
  (:func:`forced_axis`), on randomised driver
  runs (:func:`check_driver_dispatch_identity`) and on every registered
  experiment on both engines (:func:`check_dispatch_identity`), with
  bit-identical results required;
* a *per-experiment* cross-engine matrix (:data:`EXPERIMENT_CASES`,
  :func:`check_experiment_equivalence`): every registered experiment runs on
  both engines at a pinned tiny configuration and the resulting figures must
  agree within a per-case tolerance.  Blocked-mode ensemble runs are
  statistically identical rather than stream-matched, so the figure-level
  comparison is a bounded-deviation check — deterministic for fixed seeds —
  while the bit-level guarantees live in the layers above.

It backs the pytest suites (``tests/core/test_{ensemble,wavefront,compiled}.py``)
and the larger-budget smoke script (``scripts/check_equivalence.py``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import native
from ..bins.arrays import BinArray
from ..sampling.rngutils import spawn_seed_sequences
from . import policy
from .compiled import run_batch_compiled
from .ensemble import run_batch_ensemble, simulate_ensemble
from .fast import run_batch
from .policy import forced_policy
from .protocol import TIE_BREAKS, reference_run
from .rounds import simulate_batched_ensemble, stale_choice, stale_windows
from .simulation import simulate
from .wavefront import run_batch_wavefront
from .weighted import simulate_weighted_ensemble

__all__ = [
    "SweepBudget",
    "check_kernel_equivalence",
    "check_lockstep_kernel_equivalence",
    "DISPATCH_AXES",
    "forced_native",
    "forced_axis",
    "check_native_equivalence",
    "check_driver_dispatch_identity",
    "ROW_DRIVERS",
    "check_row_parity",
    "ExperimentCase",
    "EXPERIMENT_CASES",
    "check_experiment_equivalence",
    "check_dispatch_identity",
    "check_fabric_serial_identity",
]


@dataclass(frozen=True)
class SweepBudget:
    """How many / how large the randomised draws are."""

    draws: int = 50
    max_n: int = 10
    max_m: int = 120
    max_d: int = 5
    max_r: int = 6


def _random_capacities(rng, n: int) -> np.ndarray:
    """One of the paper's capacity profiles, at random."""
    profile = rng.integers(0, 3)
    if profile == 0:  # uniform (Figures 1-5)
        return np.full(n, int(rng.integers(1, 9)), dtype=np.int64)
    if profile == 1:  # two-class (Figures 6-13)
        caps = np.where(np.arange(n) < n // 2, 1, int(rng.integers(2, 11)))
        return caps.astype(np.int64)
    return rng.integers(1, 13, size=n).astype(np.int64)  # random caps (8-9, 16)


def check_kernel_equivalence(master_seed: int, budget: SweepBudget = SweepBudget()) -> int:
    """Three-way bit-exactness sweep over randomised instances.

    For each draw, every replication of the ensemble kernel is compared
    against the fast scalar loop and the tie-stream-matched reference
    implementation — counts and heights both.  Returns the number of draws
    checked; raises ``AssertionError`` on the first mismatch.
    """
    rng = np.random.default_rng(master_seed)
    for trial in range(budget.draws):
        n = int(rng.integers(2, budget.max_n + 1))
        m = int(rng.integers(0, budget.max_m + 1))
        d = int(rng.integers(1, budget.max_d + 1))
        R = int(rng.integers(1, budget.max_r + 1))
        caps = _random_capacities(rng, n)
        tie_break = TIE_BREAKS[trial % len(TIE_BREAKS)]
        choices = rng.integers(0, n, size=(R, m, d))
        tie_u = rng.random((R, m))

        counts = np.zeros((R, n), dtype=np.int64)
        heights = np.empty((R, m), dtype=np.float64)
        run_batch_ensemble(
            counts, caps, choices, tie_u, tie_break=tie_break, heights=heights
        )

        caps_list = caps.tolist()
        label = f"trial={trial} n={n} m={m} d={d} R={R} tie={tie_break}"
        for r in range(R):
            fast_counts = [0] * n
            fast_heights: list[float] = []
            run_batch(
                fast_counts, caps_list, choices[r], tie_u[r],
                tie_break=tie_break, heights=fast_heights,
            )
            ref_heights: list[float] = []
            ref_counts = reference_run(
                caps_list, choices[r], tie_break=tie_break,
                tie_uniforms=tie_u[r], heights=ref_heights,
            )
            assert np.array_equal(counts[r], fast_counts), f"{label} rep={r} vs fast"
            assert np.array_equal(counts[r], ref_counts), f"{label} rep={r} vs reference"
            np.testing.assert_array_equal(
                heights[r], np.asarray(fast_heights),
                err_msg=f"{label} rep={r} heights vs fast",
            )
            np.testing.assert_array_equal(
                heights[r], np.asarray(ref_heights),
                err_msg=f"{label} rep={r} heights vs reference",
            )
    return budget.draws


#: The lockstep kernels held to the per-ball ensemble kernel.
_LOCKSTEP_KERNELS = {"wavefront": run_batch_wavefront, "compiled": run_batch_compiled}


def check_lockstep_kernel_equivalence(
    kernel: str, master_seed: int, budget: SweepBudget = SweepBudget()
) -> int:
    """Randomised bit-exactness sweep of one lockstep kernel.

    For each draw, the *kernel* (``"wavefront"`` or ``"compiled"``) must
    reproduce :func:`~repro.core.ensemble.run_batch_ensemble` exactly —
    counts and heights, every replication — under a rotation of tie-break
    modes and capacity profiles (shared and per-replication), so every
    specialisation is exercised.  Each wavefront draw also rotates the
    tile width, including the degenerate ``1`` and the whole batch (tile
    boundaries, deferred waves, tail padding).  Without Numba the compiled
    kernels run their source through the interpreter, so the fallback
    carries the identical guarantee.  Returns the number of draws checked.
    """
    run = _LOCKSTEP_KERNELS[kernel]
    rng = np.random.default_rng(master_seed)
    for trial in range(budget.draws):
        n = int(rng.integers(2, budget.max_n + 1))
        m = int(rng.integers(0, budget.max_m + 1))
        d = int(rng.integers(1, budget.max_d + 1))
        R = int(rng.integers(1, budget.max_r + 1))
        if trial % 4 == 3:
            caps = rng.integers(1, 9, size=(R, n)).astype(np.int64)
        else:
            caps = _random_capacities(rng, n)
        tie_break = TIE_BREAKS[trial % len(TIE_BREAKS)]
        choices = rng.integers(0, n, size=(R, m, d))
        tie_u = rng.random((R, m))

        base = np.zeros((R, n), dtype=np.int64)
        base_h = np.empty((R, m), dtype=np.float64)
        run_batch_ensemble(
            base, caps, choices, tie_u, tie_break=tie_break, heights=base_h
        )
        # Drawn for both kernels, so each kernel sees the same instances.
        width = int(rng.integers(2, 8))
        knob = ({"tile": (None, 1, width, max(1, m))[trial % 4]}
                if kernel == "wavefront" else {})
        out = np.zeros((R, n), dtype=np.int64)
        out_h = np.empty((R, m), dtype=np.float64)
        run(out, caps, choices, tie_u, tie_break=tie_break, heights=out_h, **knob)
        label = (f"{kernel} trial={trial} n={n} m={m} d={d} R={R} "
                 f"tie={tie_break} {knob}")
        assert np.array_equal(base, out), f"{label}: counts"
        np.testing.assert_array_equal(out_h, base_h, err_msg=f"{label}: heights")
    return budget.draws


def _near_guard_capacities(rng, n: int, m: int) -> np.ndarray:
    """Capacities in the top half of what a run of *m* balls may use
    under the native guard, ``(m + 1) * max(capacity) < 2^62``."""
    top = (native.LOAD_LIMIT - 1) // (m + 1)
    return rng.integers(top // 2, top + 1, size=n, dtype=np.int64)


@contextmanager
def _fused_chunks():
    """Record the ``(col, k)`` of every fused chunk run in the block."""
    chunks, real = [], native.FusedChunks.run

    def run(self, col, k):
        chunks.append((col, k))
        return real(self, col, k)

    native.FusedChunks.run = run
    try:
        yield chunks
    finally:
        native.FusedChunks.run = real


def check_native_equivalence(
    master_seed: int, budget: SweepBudget = SweepBudget(), trials: int = 6
) -> int:
    """Randomised bit-exactness sweep of the native tier.

    Kernel level: each draw runs the C row loops (``d`` in 1..8, all three
    tie-breaks, heights) on an ``(R, k, d)`` chunk and requires every row
    to equal :func:`~repro.core.protocol.reference_run` on the same
    candidates and tie uniforms, counts and heights.  Every third draw
    uses capacities just below the int64 guard (with ``m > 512`` so the
    heights stay exact in double).  Driver level: *trials* runs of
    :func:`~repro.core.ensemble.simulate_ensemble`, alternating seed modes
    and including near-guard capacities, native on equal native off
    (counts, heights, kept choices, snapshots).  Where the fused draws run
    (:func:`repro.native.draws_available`), every native-on trial must
    have drawn, selected and placed its chunks in C, across at least one
    chunk boundary.
    Returns the number of kernel draws checked; ``0`` when the native
    library does not load here (:func:`repro.native.status` says why).
    """
    if not native.available():
        return 0
    rng = np.random.default_rng(master_seed)
    for trial in range(budget.draws):
        near = trial % 3 == 2
        n = int(rng.integers(1, budget.max_n + 1))
        m = int(rng.integers(513, 900)) if near else int(rng.integers(0, budget.max_m + 1))
        d = int(rng.integers(1, 9))
        R = int(rng.integers(1, budget.max_r + 1))
        caps = _near_guard_capacities(rng, n, m) if near else _random_capacities(rng, n)
        tie_break = TIE_BREAKS[trial % len(TIE_BREAKS)]
        choices = rng.integers(0, n, size=(R, m, d))
        tie_u = rng.random((R, m))
        counts = np.zeros((R, n), dtype=np.int64)
        heights = np.empty((R, m), dtype=np.float64)
        assert native.fits(m, caps.max(), heights=True)
        native.run_rows(counts, caps, choices, tie_u, tie_break, heights)
        label = f"native trial={trial} n={n} m={m} d={d} R={R} tie={tie_break}"
        for r in range(R):
            ref_heights: list[float] = []
            ref_counts = reference_run(
                caps.tolist(), choices[r], tie_break=tie_break,
                tie_uniforms=tie_u[r], heights=ref_heights,
            )
            assert np.array_equal(counts[r], ref_counts), f"{label} rep={r}: counts"
            np.testing.assert_array_equal(
                heights[r], np.asarray(ref_heights), err_msg=f"{label} rep={r}: heights"
            )
    for trial in range(trials):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(513, 1500))
        d = int(rng.integers(1, 9))
        R = int(rng.integers(1, 6))
        caps = (_near_guard_capacities(rng, n, m) if trial % 2
                else _random_capacities(rng, n))
        kwargs = dict(
            repetitions=R, m=m, d=d, seed=int(rng.integers(0, 2**31)),
            tie_break=TIE_BREAKS[trial % len(TIE_BREAKS)],
            seed_mode=("spawn", "blocked")[(trial // 2) % 2],
            track_heights=True, keep_choices=True,
            snapshot_at=[0, m // 3, m], chunk_size=int(rng.integers(50, 700)),
        )
        runs = []
        for value in DISPATCH_AXES["native"]:
            with forced_axis("native", value), _fused_chunks() as chunks:
                runs.append(simulate_ensemble(BinArray(caps), **kwargs))
            if value == "on":
                fused = len(chunks)
        label = (f"native driver trial={trial} n={n} m={m} d={d} R={R} "
                 f"{kwargs['tie_break']} {kwargs['seed_mode']}")
        assert fused >= 2 or not native.draws_available(), \
            f"{label}: {fused} fused chunks"
        on, off = runs
        assert np.array_equal(on.counts, off.counts), f"{label}: counts"
        np.testing.assert_array_equal(on.heights, off.heights, err_msg=f"{label}: heights")
        np.testing.assert_array_equal(on.choices, off.choices, err_msg=f"{label}: choices")
        for a, b in zip(on.snapshots, off.snapshots):
            np.testing.assert_array_equal(a.max_loads, b.max_loads, err_msg=label)
    return budget.draws


#: Every dispatch axis with the values the dispatch-identity matrix
#: forces; the first value is the baseline the others must reproduce.
#: ``rows`` is not a policy field: ``"on"`` runs the rows tier at every
#: ``R``, ``"off"`` the lockstep kernels at every ``R > 1``.  ``native``
#: is not one either: ``"on"`` runs the C tier wherever it loads and the
#: run fits, ``"off"`` today's auto dispatch without it.
DISPATCH_AXES = {
    "wavefront": ("on", "off"),
    "rows": ("on", "off"),
    "backend": ("compiled", "numpy"),
    "native": ("on", "off"),
}


def _window_loop(rows, tie_u, frozen, live, caps, first, every):
    """Consecutive staleness windows decided one window at a time, each
    against a copy of the loads at its start: ``(winners, frozen, live)``
    after the last row (frozen = live at the last window boundary)."""
    frozen, live, out = list(frozen), list(live), []
    start, size = 0, first
    while start < len(rows):
        end = min(len(rows), start + size)
        for row, u in zip(rows[start:end], tie_u[start:end]):
            chosen = stale_choice(row, frozen, caps, u)
            out.append(chosen)
            live[chosen] += 1
        if end - start == size:
            frozen = list(live)
        start, size = end, every
    return out, frozen, live


def check_window_equivalence(master_seed: int,
                             budget: SweepBudget = SweepBudget()) -> int:
    """Randomised bit-exactness sweep of the service's window decide.

    Each draw is one hash chunk: ``W`` rows of ``d`` (1..8) candidates
    over ``n`` peers (duplicates included), frozen loads at or below the
    live ones, a first window of ``1..every`` keys and a chunk that may
    end mid-window; capacities from the paper's profiles (equal ones
    included), every third draw just below the int64 guard.
    :func:`~repro.core.rounds.stale_windows` and, where the library
    loads, :class:`repro.native.WindowKernel` must equal
    :func:`_window_loop` in winners and in the final frozen and live
    loads.  Returns the number of draws.
    """
    rng = np.random.default_rng(master_seed)
    on = native.available()
    for trial in range(budget.draws):
        n = int(rng.integers(1, budget.max_n + 1))
        d = int(rng.integers(1, 9))
        every = int(rng.integers(1, 21))
        first = int(rng.integers(1, every + 1))
        W = int(rng.integers(0, 3 * every + 8))
        if trial % 3 == 2:
            frozen = rng.integers(0, 50, size=n).astype(np.int64)
            caps = _near_guard_capacities(rng, n, int(frozen.max()) + 50 + W)
        else:
            caps = _random_capacities(rng, n)
            # Every other draw starts at equal (load + 1) / capacity on
            # every peer: ties across capacities, the max-capacity filter.
            frozen = (caps * rng.integers(1, 4) - 1 if trial % 3 == 1
                      else rng.integers(0, 50, size=n).astype(np.int64))
        live = frozen + rng.integers(0, 50, size=n)
        owners = rng.integers(0, n, size=(W, d))
        tie_u = rng.random(W)
        label = f"window trial={trial} n={n} d={d} W={W} first={first} every={every}"
        rows, us, cap_list = owners.tolist(), tie_u.tolist(), caps.tolist()
        expected = _window_loop(rows, us, frozen.tolist(), live.tolist(),
                                cap_list, first, every)
        twin_live = live.tolist()
        twin = stale_windows(rows, us, frozen.tolist(), twin_live, cap_list,
                             first, every)
        assert (twin, twin_live) == (expected[0], expected[2]), f"{label}: twin"
        if on:
            assert native.fits(int(live.max()) + W, int(caps.max()))
            kernel = native.WindowKernel(caps, d)
            got = kernel(owners, tie_u, frozen, live, first, every)
            assert (got.tolist(), *kernel.loads.tolist()) == expected, \
                f"{label}: native"
    return budget.draws


@contextmanager
def forced_native(enabled: bool):
    """Switch the native tier (:data:`repro.native.ENABLED`) for a block."""
    saved = native.ENABLED
    native.ENABLED = enabled
    try:
        yield
    finally:
        native.ENABLED = saved


@contextmanager
def forced_axis(axis: str, value):
    """Force one :data:`DISPATCH_AXES` *axis* to *value* for a block.

    Policy fields go through :func:`~repro.core.policy.forced_policy`.
    The rows axis patches the row/lockstep crossovers
    (:data:`~repro.core.policy.ROWS_CROSSOVER`,
    :data:`~repro.core.policy.WEIGHTED_ROWS_CROSSOVER`) to plus or minus
    infinity, with the NumPy backend and the wavefront off so that the
    per-ball tier is what runs.  The native axis switches the C tier with
    the policy on ``auto``; every other axis runs with it off, so each
    axis tests the tier it names.  Everything is restored on exit.
    """
    if axis == "native":
        with forced_native(value == "on"), forced_policy(
            backend="auto", wavefront="auto"
        ):
            yield
        return
    if axis != "rows":
        with forced_native(False), forced_policy(**{axis: value}):
            yield
        return
    crossover = math.inf if value == "on" else -math.inf
    saved = policy.ROWS_CROSSOVER, policy.WEIGHTED_ROWS_CROSSOVER
    policy.ROWS_CROSSOVER = policy.WEIGHTED_ROWS_CROSSOVER = crossover
    try:
        with forced_native(False), forced_policy(backend="numpy", wavefront="off"):
            yield
    finally:
        policy.ROWS_CROSSOVER, policy.WEIGHTED_ROWS_CROSSOVER = saved


def check_driver_dispatch_identity(
    axis: str, values, master_seed: int, trials: int = 6
) -> int:
    """Driver-level bit-identity sweep along one dispatch axis.

    Each trial runs :func:`~repro.core.ensemble.simulate_ensemble` (both
    seed modes) and :func:`~repro.core.simulation.simulate` with the
    *axis* forced to each of *values* (:func:`forced_axis`) on the same
    configuration — cycling all three tie-break modes — and requires
    every value to reproduce the first one's counts, heights and
    snapshots exactly.  This is the
    guarantee dispatch relies on: every tier consumes identical pre-drawn
    randomness, so no dispatch decision can leak into the numbers.
    Returns the number of trials checked.
    """
    rng = np.random.default_rng(master_seed)
    for trial in range(trials):
        n = int(rng.integers(2, 16))
        m = int(rng.integers(1, 250))
        d = int(rng.integers(1, 4))
        R = int(rng.integers(1, 5))
        bins = BinArray(_random_capacities(rng, n))
        tie_break = TIE_BREAKS[trial % len(TIE_BREAKS)]
        seed_mode = ("spawn", "blocked")[trial % 2]
        master = int(rng.integers(0, 2**31))
        snap = sorted({0, m // 3, m})

        runs = []
        for value in values:
            with forced_axis(axis, value):
                runs.append((
                    simulate_ensemble(
                        bins, repetitions=R, m=m, d=d, seed=master,
                        tie_break=tie_break, seed_mode=seed_mode,
                        track_heights=True, snapshot_at=snap,
                    ),
                    simulate(
                        bins, m=m, d=d, seed=master, tie_break=tie_break,
                        track_heights=True, snapshot_at=snap,
                    ),
                ))
        base_ens, base_sc = runs[0]
        for value, (ens, sc) in zip(values[1:], runs[1:]):
            label = (f"trial={trial} n={n} m={m} d={d} R={R} tie={tie_break} "
                     f"{seed_mode} {axis} {value} vs {values[0]}")
            assert np.array_equal(ens.counts, base_ens.counts), f"{label}: ensemble counts"
            np.testing.assert_array_equal(
                ens.heights, base_ens.heights, err_msg=f"{label}: ensemble heights"
            )
            assert len(ens.snapshots) == len(base_ens.snapshots), label
            for a, b in zip(ens.snapshots, base_ens.snapshots):
                np.testing.assert_array_equal(
                    a.max_loads, b.max_loads, err_msg=f"{label}: snapshot"
                )
            assert np.array_equal(sc.counts, base_sc.counts), f"{label}: scalar counts"
            np.testing.assert_array_equal(
                sc.heights, base_sc.heights, err_msg=f"{label}: scalar heights"
            )
            assert [s.max_load for s in sc.snapshots] == [
                s.max_load for s in base_sc.snapshots
            ], f"{label}: scalar snapshots"
    return trials


def _plain_rows(rng):
    n = int(rng.integers(2, 16))
    m = int(rng.integers(1, 200))
    d = int(rng.integers(1, 4))
    bins = BinArray(_random_capacities(rng, n))
    snap = sorted({0, m // 2, m})

    def run(**seeding):
        return simulate_ensemble(
            bins, m=m, d=d, track_heights=True, snapshot_at=snap, **seeding
        )

    return run, f"n={n} m={m} d={d}"


def _batched_rows(rng):
    n = int(rng.integers(2, 14))
    m = int(rng.integers(0, 150))
    d = int(rng.integers(1, 4))
    batch = int(rng.integers(1, 50))
    bins = BinArray(_random_capacities(rng, n))

    def run(**seeding):
        return simulate_batched_ensemble(bins, m=m, d=d, batch_size=batch, **seeding)

    return run, f"n={n} m={m} d={d} batch={batch}"


def _weighted_rows(rng):
    n = int(rng.integers(2, 10))
    m = int(rng.integers(0, 80))
    d = int(rng.integers(1, 4))
    bins = BinArray(_random_capacities(rng, n))
    sigma = float(rng.uniform(0.0, 1.5))
    sizes = rng.lognormal(-0.5 * sigma * sigma, sigma, size=m)

    def run(**seeding):
        return simulate_weighted_ensemble(bins, sizes, d=d, **seeding)

    return run, f"n={n} m={m} d={d} sigma={sigma:.3f}"


def _ring_rows(rng):
    from ..p2p.ring import ConsistentHashRing
    from ..p2p.workload import allocate_requests_ensemble

    n_peers = int(rng.integers(2, 24))
    ring = ConsistentHashRing.random(n_peers, seed=rng)
    m = int(rng.integers(0, 200))
    d = int(rng.integers(1, 4))
    aware = bool(rng.integers(0, 2))

    def run(**seeding):
        return allocate_requests_ensemble(
            ring, m, d=d, capacity_aware=aware, **seeding
        )

    return run, f"n_peers={n_peers} m={m} d={d} aware={aware}"


#: The lockstep drivers, each with a draw of one random configuration:
#: ``case(rng) -> (run, label)`` where ``run(**seeding)`` calls the driver
#: with the given seeding keywords.
ROW_DRIVERS = {
    "plain": _plain_rows,
    "batched": _batched_rows,
    "weighted": _weighted_rows,
    "ring": _ring_rows,
}


def check_row_parity(
    driver: str, master_seed: int, trials: int = 6, repetitions: int = 4
) -> int:
    """Spawn-mode parity sweep of one lockstep *driver* (:data:`ROW_DRIVERS`).

    Each trial draws a random configuration and requires row ``r`` of the
    R-row run (``seed=master``, spawn mode) — once forced onto the
    lockstep kernels and once onto the rows tier
    (``forced_axis("rows", "off")`` / ``"on"``) — to equal the ``R = 1``
    run on ``seeds=[child_r]``, which runs the driver's row kernel, bit
    for bit: counts, plus heights, every snapshot and the float masses
    wherever the driver reports them.  Returns the number of trials
    checked; raises ``AssertionError`` on the first mismatch.
    """
    case = ROW_DRIVERS[driver]
    rng = np.random.default_rng(master_seed)
    for trial in range(trials):
        run, config = case(rng)
        master = int(rng.integers(0, 2**31))
        wide = {}
        for value, tier in (("off", "lockstep"), ("on", "rows")):
            with forced_axis("rows", value):
                wide[tier] = run(repetitions=repetitions, seed=master)
        for r, child in enumerate(spawn_seed_sequences(master, repetitions)):
            single = run(seeds=[child])
            for tier, full in wide.items():
                label = f"{driver} trial={trial} rep={r} {tier} {config}"
                assert np.array_equal(full.counts[r], single.counts[0]), (
                    f"{label}: counts"
                )
                for name in ("heights", "masses"):
                    rows = getattr(full, name, None)
                    if rows is not None:
                        np.testing.assert_array_equal(
                            rows[r], getattr(single, name)[0],
                            err_msg=f"{label}: {name}",
                        )
                snaps = getattr(full, "snapshots", [])
                single_snaps = getattr(single, "snapshots", [])
                assert len(snaps) == len(single_snaps), f"{label}: snapshot count"
                for a, b in zip(snaps, single_snaps):
                    assert a.balls_thrown == b.balls_thrown, label
                    assert a.average_load == b.average_load, label
                    assert a.max_loads[r] == b.max_loads[0], f"{label}: snapshot max"
    return trials


@dataclass(frozen=True)
class ExperimentCase:
    """One experiment's pinned cross-engine configuration.

    ``kwargs`` keep the run tiny; ``tol`` bounds the per-series absolute
    deviation between the engines (blocked-mode ensembles are independent
    draws, so the deviation is statistical; both runs are deterministic at
    the pinned seed).  Tolerances are calibrated with margin against the
    observed deviations at ``rep_factor`` in {1, 2, 4}.  For
    deterministic-instance experiments the deviation shrinks as
    ``rep_factor`` grows; for the shared-params-per-block experiments
    (fig08/09, fig16, rw_ring, abl_weighted) it does **not** — the
    parameter randomness is averaged over ~``reps // 8`` block draws
    (capped growth until reps exceed 8x the default block width), so those
    tolerances must absorb the few-draw parameter variance at every factor.
    ``x_rtol`` loosens the x-grid comparison for figures whose x axis is
    itself a random quantity (fig08/09's realised total capacity).
    ``wavefront_kwargs``, when set, replaces ``kwargs`` for the bit-identity
    checks (the dispatch matrix and fabric == serial) — used to shrink
    workloads (fig05's ``m = 1000 C``) that are pathological with the
    wavefront *forced* on at a tiny ``n`` (the auto dispatch would never
    enter them) or with the compiled source run through the interpreter.
    """

    kwargs: dict = field(default_factory=dict)
    tol: float = 0.5
    x_rtol: float = 0.0
    seed: int = 20260612
    wavefront_kwargs: dict | None = None


#: Pinned tiny configurations for the per-experiment cross-engine matrix.
#: Every id in the experiment registry must appear here —
#: ``tests/core/test_ensemble.py`` fails loudly on a registered experiment
#: that is missing, so a future experiment cannot skip migration silently.
EXPERIMENT_CASES: dict[str, ExperimentCase] = {
    "fig01": ExperimentCase({"repetitions": 4, "n": 300, "capacities": (1, 4)}, tol=1.0),
    "fig02": ExperimentCase({"repetitions": 4}, tol=1.0),
    "fig03": ExperimentCase({"repetitions": 4}, tol=1.2),
    "fig04": ExperimentCase({"repetitions": 4}, tol=1.2),
    "fig05": ExperimentCase(
        {"repetitions": 3}, tol=1.2,
        wavefront_kwargs={"repetitions": 2, "capacities": (1,)},
    ),
    "fig06": ExperimentCase({"repetitions": 6, "n": 100, "step_pct": 50}, tol=0.8),
    "fig07": ExperimentCase({"repetitions": 6, "n": 100, "step_pct": 50}, tol=60.0),
    "fig08": ExperimentCase(
        {"repetitions": 8, "n": 200, "mean_cap_grid": (1.0, 4.0)}, tol=0.7, x_rtol=0.2
    ),
    "fig09": ExperimentCase(
        {"repetitions": 8, "n": 200, "mean_cap_grid": (1.0, 6.0)}, tol=60.0, x_rtol=0.2
    ),
    "fig10": ExperimentCase({"repetitions": 6}, tol=1.0),
    "fig11": ExperimentCase({"repetitions": 3}, tol=0.8),
    "fig12": ExperimentCase({"repetitions": 3}, tol=0.6),
    "fig13": ExperimentCase({"repetitions": 3}, tol=1.2),
    "fig14": ExperimentCase({"repetitions": 4, "max_bins": 102}, tol=0.8),
    "fig15": ExperimentCase({"repetitions": 4, "max_bins": 102}, tol=0.8),
    "fig16": ExperimentCase(
        {"repetitions": 6, "n": 200, "cap_multipliers": (1, 5), "rounds": 6}, tol=0.8
    ),
    # fig17's series is an argmin over the t grid: the grid spans well past
    # the optimum (~2.1 at x=3) so a cross-engine flip to the far end of the
    # grid (deviation >= 1.0) fails while adjacent-gridpoint noise (0.5)
    # passes.
    "fig17": ExperimentCase(
        {"repetitions": 40, "capacities": (3,), "t_grid": (1.0, 1.5, 2.0, 2.5)},
        tol=0.6,
    ),
    "fig18": ExperimentCase(
        {"repetitions": 20, "capacities": (3,), "t_grid": (1.0, 2.0)}, tol=0.6
    ),
    "abl_tiebreak": ExperimentCase(
        {"repetitions": 6, "n": 100, "fractions": (30, 70)}, tol=0.8
    ),
    "abl_probability": ExperimentCase(
        {"repetitions": 6, "n": 100, "large_caps": (2, 8)}, tol=1.0
    ),
    "abl_d": ExperimentCase(
        {"repetitions": 6, "n": 100, "d_values": (1, 2, 4)}, tol=1.2
    ),
    "abl_staleness": ExperimentCase(
        {"repetitions": 6, "n": 100, "batch_sizes": (1, 16, 100)}, tol=1.0
    ),
    "rw_ring": ExperimentCase(
        {"repetitions": 8, "n_peers": 30, "requests_per_peer": 5, "d_values": (1, 2)},
        tol=1.5,
    ),
    "abl_weighted": ExperimentCase(
        {"repetitions": 8, "n": 40, "sigmas": (0.0, 0.5)}, tol=1.0
    ),
}


def _case(experiment_id: str) -> ExperimentCase:
    """The pinned case of a registered experiment, or a guiding error."""
    try:
        return EXPERIMENT_CASES[experiment_id]
    except KeyError:
        raise KeyError(
            f"experiment {experiment_id!r} has no cross-engine case: add it to "
            f"EXPERIMENT_CASES (and an ensemble path to the experiment) — "
            f"every registered experiment must support both engines"
        ) from None


def _assert_same_series(result, base, label: str) -> None:
    """Require two experiment results to agree bit for bit: the x grid,
    the series names, and every series value (a NaN matches a NaN)."""
    np.testing.assert_array_equal(
        result.x_values, base.x_values, err_msg=f"{label}: x grid"
    )
    assert set(result.series) == set(base.series), f"{label}: series names"
    for name in result.series:
        a, b = result.series[name], base.series[name]
        both_nan = np.isnan(a) & np.isnan(b)
        assert np.array_equal(a[~both_nan], b[~both_nan]), (
            f"{label}: series {name!r} is not bit-identical"
        )


def check_experiment_equivalence(
    experiment_id: str, *, rep_factor: int = 1
) -> float:
    """Run one experiment on both engines and compare the figures.

    Uses the pinned :data:`EXPERIMENT_CASES` configuration (``rep_factor``
    multiplies the repetition count for larger-budget sweeps; the tolerance
    is unchanged since more repetitions only tighten the agreement).
    Checks structure exactly — x grid (up to ``x_rtol``), series names, NaN
    pattern — and every series value within the case tolerance.  Returns
    the largest per-series deviation observed; raises ``AssertionError`` on
    any mismatch.
    """
    from ..experiments import run_experiment

    case = _case(experiment_id)
    if rep_factor < 1:
        raise ValueError(f"rep_factor must be >= 1, got {rep_factor}")
    kwargs = dict(case.kwargs)
    if rep_factor > 1 and "repetitions" in kwargs:
        kwargs["repetitions"] = int(kwargs["repetitions"]) * rep_factor
    scalar = run_experiment(experiment_id, seed=case.seed, engine="scalar", **kwargs)
    ens = run_experiment(experiment_id, seed=case.seed, engine="ensemble", **kwargs)

    label = f"{experiment_id} cross-engine"
    assert scalar.parameters.get("engine") == "scalar", label
    assert ens.parameters.get("engine") == "ensemble", label
    assert scalar.x_name == ens.x_name, f"{label}: x_name"
    assert set(scalar.series) == set(ens.series), f"{label}: series names"
    if case.x_rtol:
        np.testing.assert_allclose(
            scalar.x_values, ens.x_values, rtol=case.x_rtol,
            err_msg=f"{label}: x grid",
        )
    else:
        np.testing.assert_array_equal(
            scalar.x_values, ens.x_values, err_msg=f"{label}: x grid"
        )
    worst = 0.0
    for name in scalar.series:
        a, b = scalar.series[name], ens.series[name]
        assert np.array_equal(np.isnan(a), np.isnan(b)), f"{label}: NaN pattern of {name!r}"
        finite = np.isfinite(a)
        if not finite.any():
            continue
        diff = float(np.max(np.abs(a[finite] - b[finite])))
        assert diff <= case.tol, (
            f"{label}: series {name!r} deviates by {diff:.4f} > tol {case.tol}"
        )
        worst = max(worst, diff)
    return worst


def check_dispatch_identity(experiment_id: str, axis: str, values) -> int:
    """Run one experiment with a dispatch *axis* forced to each of
    *values* (:func:`forced_axis`), on both engines, and require every value to reproduce the
    first one's figures *bit-identically*.

    Unlike the cross-engine comparison (bounded deviation between
    independent streams), this is exact: every tier consumes the same
    pre-drawn randomness, so no wavefront mode, row/lockstep choice,
    or backend may change a series value — heights and snapshot series
    included, since the cases' series are computed from them.  Uses the
    pinned :data:`EXPERIMENT_CASES` configuration at the trimmed
    ``wavefront_kwargs`` scale when present.  Returns the number of
    comparisons: ``2 * (len(values) - 1)``.
    """
    from ..experiments import run_experiment

    case = _case(experiment_id)
    kwargs = case.wavefront_kwargs if case.wavefront_kwargs is not None else case.kwargs
    checked = 0
    for engine in ("scalar", "ensemble"):
        base = None
        for value in values:
            with forced_axis(axis, value):
                result = run_experiment(
                    experiment_id, seed=case.seed, engine=engine, **kwargs
                )
            if base is None:
                base = result
                continue
            _assert_same_series(
                result, base,
                f"{experiment_id} [{engine}] {axis} {value} vs {values[0]}",
            )
            checked += 1
    return checked


def check_fabric_serial_identity(
    experiment_id: str, *, workers: int = 2, fabric=None
) -> int:
    """Run one experiment's ensemble engine locally and over the sweep
    fabric, and require *bit-identical* figures.

    Exact by the fabric clause of the seed contract: block boundaries and
    child seeds are pure functions of ``(seed, repetitions, block_size)``,
    workers rebuild them from the pickled spawn spec, and the driver merges
    parked block reducers in block order through the same closure the
    serial path uses — so worker placement, fleet size, and worker deaths
    can never change a series value.  Uses the pinned
    :data:`EXPERIMENT_CASES` configuration (the trimmed
    ``wavefront_kwargs`` scale when present, to keep forced tiny workloads
    sane).  Pass an existing activated-ready ``fabric``
    (:class:`~repro.runtime.fabric.FabricSession`) to amortise fleet
    startup over many experiments; otherwise a throwaway *workers*-strong
    session is spawned and closed.  Returns the number of runs compared.
    """
    from ..experiments import run_experiment
    from ..runtime.fabric import FabricSession

    case = _case(experiment_id)
    kwargs = case.wavefront_kwargs if case.wavefront_kwargs is not None else case.kwargs
    serial = run_experiment(
        experiment_id, seed=case.seed, engine="ensemble", **kwargs
    )
    session = fabric if fabric is not None else FabricSession(workers)
    try:
        with session.activate():
            fabbed = run_experiment(
                experiment_id, seed=case.seed, engine="ensemble", **kwargs
            )
    finally:
        if fabric is None:
            session.close()
    _assert_same_series(
        fabbed, serial, f"{experiment_id} [ensemble] fabric vs serial"
    )
    return 2
