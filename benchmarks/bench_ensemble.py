"""Scalar loop vs lockstep ensemble vs wavefront vs compiled kernels.

Not a paper figure — this tracks the engine-level speedups:

* the exact fig02 setting (32 uniform bins, capacities 1–4, m = C, d = 2),
  the PR-1 flagship configuration, acceptance floor **5x** at ``R = 64``;
* the fig18 exponent-sweep setting (100 two-class bins, power-``t``
  selection), representative of the migrated matrix, floor **3x** at
  ``R = 64``;
* the **fig01-scaled large-n** setting (n = 10,000 uniform bins, d = 2,
  m = n — the paper's Figure 1 scale) for the conflict-free wavefront
  kernels (:mod:`repro.core.wavefront`): kernel-level floors over the
  per-ball ensemble kernel at R = 16/64 and over the scalar
  ``fast.run_batch`` loop, plus a driver-level sanity ratio;
* the same configuration for the **compiled backend**
  (:mod:`repro.core.compiled`): floors over the wavefront kernel at
  R = 16/64, measured only where numba is installed (the interpreter
  fallback is correctness-equivalent but has no floor to pin);
* the **replication-parallel compiled** floor: the prange kernels at
  R = 256 over the serial compiled kernels, >= 2x with
  threads = min(cores, R), measured only with numba and >= 4 cores;
* the **row/lockstep crossover** (:func:`repro.core.policy.use_rows`):
  on abl_d's d = 8 shape (R = 5) the rows tier is >= 3x the lockstep
  kernel, and on fig04's R = 100 shape the lockstep kernel is >= 1.5x the
  rows tier — driver-level, same draws, each side forced;
* the **native tier** (:mod:`repro.native`) on the same two shapes:
  floors over the tier it replaces there (rows at abl_d's d = 8, lockstep
  at fig04's R = 100), skipped where the library does not load.

Wavefront floors are pinned well below the measured ratios because the CI
hardware's throughput fluctuates; the measured values (see ROADMAP
"Wavefront kernels") are the regression signal, the floors the alarm.

Every floor test also records its timings and ratios; the session writes
them to ``BENCH_ensemble.json`` at the repo root (see ``conftest.py``) so
PR-over-PR perf changes are diffable.

``REPRO_BENCH_QUICK=1`` trims the ``R`` sweep (see ``conftest.py``).
"""

import os
import time

import numpy as np
import pytest
from conftest import BENCH_SEED, ENSEMBLE_BENCH_RS, record_bench

from repro import native
from repro.bins.generators import two_class_bins, uniform_bins
from repro.core.compiled import HAVE_NUMBA, run_batch_compiled, warmup
from repro.core.ensemble import run_batch_ensemble, simulate_ensemble
from repro.core.equivalence import forced_axis
from repro.core.fast import run_batch
from repro.core.wavefront import WavefrontWorkspace, run_batch_wavefront
from repro.experiments import run_experiment

#: fig18 at one capacity/exponent pair — a post-matrix-migration workload
#: (power-probability sampling + two-class array) unlike fig02's uniform
#: capacity classes.
FIG18_KWARGS = dict(capacities=(3,), t_grid=(1.0, 2.0))

#: The wavefront large-n configuration: fig01 scaled to the paper's
#: n = 10,000 (uniform capacities, d = 2, m = n).
WAVEFRONT_N = 10_000


@pytest.mark.parametrize("engine", ["scalar", "ensemble"])
@pytest.mark.parametrize("R", ENSEMBLE_BENCH_RS)
def test_fig02_engine_throughput(benchmark, R, engine):
    """One fig02 run (all four capacity classes) per engine and width."""
    result = benchmark(
        lambda: run_experiment("fig02", engine=engine, seed=BENCH_SEED, repetitions=R)
    )
    assert result.parameters["engine"] == engine
    assert result.parameters["repetitions"] == R


@pytest.mark.parametrize("engine", ["scalar", "ensemble"])
@pytest.mark.parametrize("R", ENSEMBLE_BENCH_RS)
def test_fig18_engine_throughput(benchmark, R, engine):
    """One fig18 grid point pair per engine and width."""
    result = benchmark(
        lambda: run_experiment(
            "fig18", engine=engine, seed=BENCH_SEED, repetitions=R, **FIG18_KWARGS
        )
    )
    assert result.parameters["engine"] == engine
    assert result.parameters["repetitions"] == R


def _best_of(experiment_id, engine, rounds, **kwargs):
    elapsed = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_experiment(
            experiment_id, engine=engine, seed=BENCH_SEED, repetitions=64, **kwargs
        )
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed


def _assert_speedup_floor(experiment_id, floor, rounds=7, **kwargs):
    # Explicit untimed warmup of BOTH timed paths: import costs, allocator
    # pools, and (with numba) cached-jit loads must never land in a floor.
    run_experiment(
        experiment_id, engine="ensemble", seed=BENCH_SEED, repetitions=64, **kwargs
    )
    run_experiment(
        experiment_id, engine="scalar", seed=BENCH_SEED, repetitions=64, **kwargs
    )
    scalar = _best_of(experiment_id, "scalar", rounds, **kwargs)
    ensemble = _best_of(experiment_id, "ensemble", rounds, **kwargs)
    speedup = scalar / ensemble
    print(f"\n{experiment_id} R=64: scalar {scalar * 1e3:.2f} ms, "
          f"ensemble {ensemble * 1e3:.2f} ms, speedup {speedup:.2f}x")
    record_bench(experiment_id, 64, "scalar", "n/a", scalar)
    record_bench(experiment_id, 64, "ensemble", "auto", ensemble)
    record_bench(experiment_id, 64, "ensemble_over_scalar", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"lockstep ensemble regressed: {speedup:.2f}x < {floor}x at R=64 on "
        f"{experiment_id} (scalar {scalar * 1e3:.2f} ms vs ensemble "
        f"{ensemble * 1e3:.2f} ms)"
    )


def test_lockstep_speedup_at_r64():
    """Acceptance floor: the ensemble engine is >= 5x the scalar loop at
    R = 64 replications on the fig02 configuration (min-of-rounds timing)."""
    _assert_speedup_floor("fig02", 5.0)


def test_lockstep_speedup_fig18_at_r64():
    """Acceptance floor for the completed engine matrix: >= 3x over the
    scalar loop at R = 64 on the fig18 configuration (measured ~5x)."""
    _assert_speedup_floor("fig18", 3.0, **FIG18_KWARGS)


# --------------------------------------------------------------------------
# Wavefront kernel floors (fig01 scaled to n = 10,000)
# --------------------------------------------------------------------------

def _wavefront_inputs(R, seed=BENCH_SEED):
    rng = np.random.default_rng(seed)
    n = WAVEFRONT_N
    choices = rng.integers(0, n, size=(R, n, 2))
    tie_u = rng.random((R, n))
    caps = np.ones(n, dtype=np.int64)
    return caps, choices, tie_u


def _best(f, rounds):
    elapsed = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        f()
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed


def _best_interleaved(first, second, rounds):
    """Best-of-*rounds* seconds of *first* and *second*, timed in
    alternating rounds, so a drift in machine speed (vCPU steal, clock
    changes) hits both sides of a ratio alike."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for i, f in enumerate((first, second)):
            start = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _assert_wavefront_floor(R, floor, rounds=5):
    caps, choices, tie_u = _wavefront_inputs(R)
    n = WAVEFRONT_N
    ws = WavefrontWorkspace()
    # Explicit untimed warmup of BOTH timed paths at the benched shape.
    run_batch_wavefront(
        np.zeros((R, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
    )
    run_batch_ensemble(
        np.zeros((R, n), dtype=np.int64), caps, choices, tie_u
    )
    per_ball, wavefront = _best_interleaved(
        lambda: run_batch_ensemble(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u
        ),
        lambda: run_batch_wavefront(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
        ),
        rounds,
    )
    speedup = per_ball / wavefront
    print(f"\nwavefront fig01-scaled n={n} R={R}: per-ball {per_ball * 1e3:.2f} ms, "
          f"wavefront {wavefront * 1e3:.2f} ms, speedup {speedup:.2f}x")
    record_bench("fig01_large", R, "ensemble", "off", per_ball)
    record_bench("fig01_large", R, "ensemble", "on", wavefront)
    record_bench("fig01_large", R, "wavefront_over_per_ball", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"wavefront kernel regressed: {speedup:.2f}x < {floor}x at R={R} on "
        f"the fig01-scaled configuration (per-ball {per_ball * 1e3:.2f} ms vs "
        f"wavefront {wavefront * 1e3:.2f} ms)"
    )


def test_wavefront_floor_r16():
    """Wavefront floor at R = 16 — the lockstep width the small-block
    conventions (shared-params, adaptive precision) actually run — >= 2.5x
    over the per-ball ensemble kernel (measured ~3.6–4.1x)."""
    _assert_wavefront_floor(16, 2.5)


def test_wavefront_floor_r64():
    """Wavefront floor at R = 64: >= 1.4x over the per-ball ensemble kernel
    (measured ~1.7–1.9x; the per-ball kernel is already ~40% memory-bound
    at this width, so the remaining call-overhead win is bounded — see
    ROADMAP "Wavefront kernels")."""
    _assert_wavefront_floor(64, 1.4)


def test_wavefront_scalar_floor():
    """Scalar-engine floor on the same configuration: the R = 1 wavefront
    path is >= 1.3x over the pure-Python ``fast.run_batch`` loop (measured
    ~1.5–1.9x)."""
    floor = 1.3
    caps, choices, tie_u = _wavefront_inputs(1)
    n = WAVEFRONT_N
    caps_list = caps.tolist()
    ws = WavefrontWorkspace()
    # Explicit untimed warmup of BOTH timed paths.
    run_batch_wavefront(
        np.zeros((1, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
    )
    run_batch([0] * n, caps_list, choices[0], tie_u[0])
    fast, wavefront = _best_interleaved(
        lambda: run_batch([0] * n, caps_list, choices[0], tie_u[0]),
        lambda: run_batch_wavefront(
            np.zeros((1, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
        ),
        5,
    )
    speedup = fast / wavefront
    print(f"\nwavefront scalar n={n}: fast.run_batch {fast * 1e3:.2f} ms, "
          f"wavefront {wavefront * 1e3:.2f} ms, speedup {speedup:.2f}x")
    record_bench("fig01_large", 1, "scalar", "off", fast)
    record_bench("fig01_large", 1, "scalar", "on", wavefront)
    record_bench("fig01_large", 1, "wavefront_over_fast", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"scalar wavefront regressed: {speedup:.2f}x < {floor}x "
        f"(fast {fast * 1e3:.2f} ms vs wavefront {wavefront * 1e3:.2f} ms)"
    )


def test_wavefront_results_match_per_ball():
    """The benched configuration is also correctness-checked here, so a
    floor run can never be satisfied by a kernel that drifted."""
    caps, choices, tie_u = _wavefront_inputs(8, seed=BENCH_SEED + 1)
    n = WAVEFRONT_N
    base = np.zeros((8, n), dtype=np.int64)
    run_batch_ensemble(base, caps, choices, tie_u)
    wf = np.zeros((8, n), dtype=np.int64)
    run_batch_wavefront(wf, caps, choices, tie_u)
    np.testing.assert_array_equal(base, wf)


# --------------------------------------------------------------------------
# Compiled backend floors (same fig01-scaled configuration)
# --------------------------------------------------------------------------

def _assert_compiled_floor(R, floor, rounds=5):
    """Compiled kernel vs the NumPy wavefront kernel on the fig01-scaled
    batch.  ``warmup()`` keeps jit compilation (disk-cached, but the
    first-shape load still costs) out of the timed section."""
    caps, choices, tie_u = _wavefront_inputs(R)
    n = WAVEFRONT_N
    ws = WavefrontWorkspace()
    warmup()
    run_batch_wavefront(  # warm both competitors at the benched shape
        np.zeros((R, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
    )
    run_batch_compiled(
        np.zeros((R, n), dtype=np.int64), caps, choices, tie_u
    )
    wavefront = _best(
        lambda: run_batch_wavefront(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u, workspace=ws
        ),
        rounds,
    )
    compiled = _best(
        lambda: run_batch_compiled(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u
        ),
        rounds,
    )
    speedup = wavefront / compiled
    print(f"\ncompiled fig01-scaled n={n} R={R}: wavefront {wavefront * 1e3:.2f} ms, "
          f"compiled {compiled * 1e3:.2f} ms, speedup {speedup:.2f}x")
    record_bench("fig01_large", R, "compiled", "n/a", compiled)
    record_bench("fig01_large", R, "compiled_over_wavefront", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"compiled kernel regressed: {speedup:.2f}x < {floor}x at R={R} on "
        f"the fig01-scaled configuration (wavefront {wavefront * 1e3:.2f} ms "
        f"vs compiled {compiled * 1e3:.2f} ms)"
    )


_NO_NUMBA_REASON = (
    "numba not installed: the compiled tier runs its interpreter fallback, "
    "which has no floor to pin (correctness is covered in tests/core)"
)


@pytest.mark.skipif(not HAVE_NUMBA, reason=_NO_NUMBA_REASON)
def test_compiled_floor_r16():
    """Compiled floor at R = 16 (the adaptive-run lockstep width): >= 3x
    over the NumPy wavefront kernel (target 5-10x; the floor leaves CI
    headroom and trips only on a real regression)."""
    _assert_compiled_floor(16, 3.0)


@pytest.mark.skipif(not HAVE_NUMBA, reason=_NO_NUMBA_REASON)
def test_compiled_floor_r64():
    """Compiled floor at R = 64: >= 3x over the NumPy wavefront kernel —
    the compiled loop is not memory-bound the way the per-ball kernel is,
    so the win persists at width."""
    _assert_compiled_floor(64, 3.0)


def test_compiled_results_match_per_ball():
    """Correctness companion for the compiled floors, run with or without
    numba (the fallback executes the same kernel source): the benched
    configuration must stay bit-identical to the per-ball kernel."""
    caps, choices, tie_u = _wavefront_inputs(8, seed=BENCH_SEED + 1)
    n = WAVEFRONT_N
    base = np.zeros((8, n), dtype=np.int64)
    run_batch_ensemble(base, caps, choices, tie_u)
    comp = np.zeros((8, n), dtype=np.int64)
    run_batch_compiled(comp, caps, choices, tie_u)
    np.testing.assert_array_equal(base, comp)


# --------------------------------------------------------------------------
# Replication-parallel compiled floor (same fig01-scaled configuration)
# --------------------------------------------------------------------------

#: Replication width for the parallel floor: wide enough that prange rows
#: amortize the fork/join, matching the fleet-scale workloads the parallel
#: tier exists for.
PARALLEL_BENCH_R = 256

#: Compiled-parallel over compiled-serial floor at R = 256 with >= 4 cores
#: (2 of 4 cores' worth of perfect scaling — memory bandwidth and the
#: fork/join eat the rest; the floor trips on a real regression, not on
#: scheduler jitter).
PARALLEL_FLOOR = 2.0

_NO_PARALLEL_REASON = (
    "compiled-parallel floor needs numba (prange) and >= 4 cores: "
    f"HAVE_NUMBA={HAVE_NUMBA}, cpu_count={os.cpu_count()}"
)


@pytest.mark.skipif(not HAVE_NUMBA or (os.cpu_count() or 1) < 4,
                    reason=_NO_PARALLEL_REASON)
def test_compiled_parallel_floor_r256():
    """prange over replications: >= 2x over the serial compiled kernel at
    R = 256 on the fig01-scaled configuration, threads = min(cores, R).
    Results are asserted bit-identical in the same run, so a floor pass
    can never be bought with a kernel that drifted."""
    R = PARALLEL_BENCH_R
    n = WAVEFRONT_N
    threads = min(os.cpu_count() or 1, R)
    caps, choices, tie_u = _wavefront_inputs(R)
    warmup()  # jit-load + thread-pool spin-up, untimed
    # Explicit untimed warmup of BOTH timed paths at the benched shape.
    serial_counts = np.zeros((R, n), dtype=np.int64)
    run_batch_compiled(serial_counts, caps, choices, tie_u, threads=1)
    parallel_counts = np.zeros((R, n), dtype=np.int64)
    run_batch_compiled(parallel_counts, caps, choices, tie_u, threads=threads)
    np.testing.assert_array_equal(serial_counts, parallel_counts)
    serial = _best(
        lambda: run_batch_compiled(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u, threads=1
        ),
        5,
    )
    parallel = _best(
        lambda: run_batch_compiled(
            np.zeros((R, n), dtype=np.int64), caps, choices, tie_u,
            threads=threads,
        ),
        5,
    )
    speedup = serial / parallel
    print(f"\ncompiled-parallel fig01-scaled n={n} R={R}: serial "
          f"{serial * 1e3:.2f} ms, {threads}-thread {parallel * 1e3:.2f} ms, "
          f"speedup {speedup:.2f}x")
    record_bench("fig01_large", R, "compiled", "n/a", serial, threads=1)
    record_bench("fig01_large", R, "compiled", "n/a", parallel,
                 threads=threads)
    record_bench("fig01_large", R, "compiled_parallel_over_serial", "n/a",
                 None, ratio=speedup, floor=PARALLEL_FLOOR)
    assert speedup >= PARALLEL_FLOOR, (
        f"compiled-parallel regressed: {speedup:.2f}x < {PARALLEL_FLOOR}x at "
        f"R={R} with {threads} threads on the fig01-scaled configuration "
        f"(serial {serial * 1e3:.2f} ms vs parallel {parallel * 1e3:.2f} ms)"
    )


# --------------------------------------------------------------------------
# Row/lockstep crossover floors (driver level, both tiers forced)
# --------------------------------------------------------------------------

#: ``(bins, R, d, m)`` of the two sides of the crossover: abl_d's d = 8
#: block (n = 2000, capacities 1 and 8, m = C) and fig04's R = 100 block
#: at capacity 4 (n = 32, m = 100 C).
ROWS_SHAPES = {
    "abl_d_d8": (two_class_bins(1000, 1000, 1, 8), 5, 8, 9000),
    "fig04_c4": (uniform_bins(32, 4), 100, 2, 12_800),
}


#: How each timed tier is forced: the rows axis for the two per-ball
#: tiers, the native axis for the C tier.
_TIER_AXES = {"rows": ("rows", "on"), "lockstep": ("rows", "off"),
              "native": ("native", "on")}


def _tier_seconds(config, tier, rounds=3):
    bins, R, d, m = ROWS_SHAPES[config]

    def run():
        return simulate_ensemble(bins, repetitions=R, m=m, d=d,
                                 seed=BENCH_SEED, seed_mode="blocked")

    with forced_axis(*_TIER_AXES[tier]):
        run()  # untimed warmup
        return _best(run, rounds)


def _assert_tier_floor(config, faster, floor):
    """*faster* (``"rows"`` or ``"lockstep"``) must beat the other tier by
    *floor* on the *config* shape (same draws, min-of-rounds timing)."""
    _, R, _, _ = ROWS_SHAPES[config]
    rows = _tier_seconds(config, "rows")
    lockstep = _tier_seconds(config, "lockstep")
    slower = "lockstep" if faster == "rows" else "rows"
    times = {"rows": rows, "lockstep": lockstep}
    speedup = times[slower] / times[faster]
    print(f"\n{config} R={R}: rows {rows * 1e3:.2f} ms, lockstep "
          f"{lockstep * 1e3:.2f} ms, {faster} x{speedup:.2f}")
    record_bench(config, R, "rows", "off", rows)
    record_bench(config, R, "lockstep", "off", lockstep)
    record_bench(config, R, f"{faster}_over_{slower}", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"{faster} tier regressed on {config}: x{speedup:.2f} < x{floor} "
        f"(rows {rows * 1e3:.2f} ms vs lockstep {lockstep * 1e3:.2f} ms)"
    )


def test_rows_floor_abl_d():
    """Below the crossover: the rows tier is >= 3x the lockstep kernel on
    abl_d's d = 8 shape (measured ~6x)."""
    _assert_tier_floor("abl_d_d8", "rows", 3.0)


def test_lockstep_floor_fig04():
    """Above the crossover: the lockstep kernel is >= 1.5x the rows tier at
    fig04's R = 100 (measured ~2.1–2.6x)."""
    _assert_tier_floor("fig04_c4", "lockstep", 1.5)


# --------------------------------------------------------------------------
# Native tier floors (driver level, same shapes, same draws)
# --------------------------------------------------------------------------

_NO_NATIVE_REASON = (
    "native tier unavailable: the drivers run today's NumPy tiers, which "
    "have no native floor to pin (correctness is covered in tests/core)"
)


def _assert_native_floor(config, slower, floor):
    """The native tier must beat the *slower* NumPy tier by *floor* on the
    *config* shape (min-of-rounds timing); the runs must agree."""
    bins, R, d, m = ROWS_SHAPES[config]
    with forced_axis("native", "on"):
        fast = simulate_ensemble(bins, repetitions=R, m=m, d=d,
                                 seed=BENCH_SEED, seed_mode="blocked")
    with forced_axis(*_TIER_AXES[slower]):
        base = simulate_ensemble(bins, repetitions=R, m=m, d=d,
                                 seed=BENCH_SEED, seed_mode="blocked")
    np.testing.assert_array_equal(fast.counts, base.counts)
    tier = _tier_seconds(config, slower)
    nat = _tier_seconds(config, "native")
    speedup = tier / nat
    print(f"\n{config} R={R}: {slower} {tier * 1e3:.2f} ms, native "
          f"{nat * 1e3:.2f} ms, native x{speedup:.2f}")
    record_bench(config, R, "native", "n/a", nat)
    record_bench(config, R, f"native_over_{slower}", "n/a", None,
                 ratio=speedup, floor=floor)
    assert speedup >= floor, (
        f"native tier regressed on {config}: x{speedup:.2f} < x{floor} "
        f"({slower} {tier * 1e3:.2f} ms vs native {nat * 1e3:.2f} ms)"
    )


@pytest.mark.skipif(not native.available(), reason=_NO_NATIVE_REASON)
def test_native_floor_abl_d():
    """abl_d's d = 8 shape (R = 5): the native tier is >= 4x the rows
    tier it replaces (measured x16–x19)."""
    _assert_native_floor("abl_d_d8", "rows", 4.0)


@pytest.mark.skipif(not native.available(), reason=_NO_NATIVE_REASON)
def test_native_floor_fig04():
    """fig04's R = 100 shape: the native tier is >= 1.5x the lockstep
    kernel it replaces (measured x2.6–x3.4; both sides pay the same
    random draws, which bound the ratio)."""
    _assert_native_floor("fig04_c4", "lockstep", 1.5)
