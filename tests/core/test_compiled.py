"""Compiled backend suite: bit-identity, dispatch knob, and the fallback.

The contract under test (see :mod:`repro.core.compiled`):
``run_batch_compiled`` is a drop-in replacement for
``run_batch_ensemble`` / ``run_batch_wavefront`` — identical counts *and*
heights for every replication, every tie-break mode, shared or
per-replication capacities — and the engine drivers may therefore dispatch
between the tiers freely (``forced_policy(backend="compiled")`` and
``forced_policy(backend="numpy")`` runs must be bit-identical end to end).
Without Numba the same kernel source runs through the interpreter, so the
whole suite doubles as the graceful-fallback check: nothing here skips
when :data:`repro.core.compiled.HAVE_NUMBA` is ``False``.
"""

import numpy as np
import pytest

import repro.core.compiled as compiled
import repro.core.policy as policy
from repro.bins import BinArray
from repro.core.compiled import (
    HAVE_NUMBA,
    get_backend,
    get_threads,
    run_batch_compiled,
    use_compiled,
    warmup,
    worker_thread_budget,
)
from repro.core.ensemble import simulate_ensemble
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    SweepBudget,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_lockstep_kernel_equivalence,
)
from repro.core.fast import run_batch
from repro.core.policy import (
    CHOICES,
    ENV_VARS,
    PARALLEL_MIN_WORK,
    KernelPolicy,
    forced_policy,
)
from repro.core.protocol import TIE_BREAKS
from repro.core.simulation import simulate

#: The parallel compile of each kernel source, for dispatch-path tripwires.
_PARALLEL_KERNELS = tuple(compiled._PARALLEL)


class TestKernelBitIdentity:
    def test_randomised_sweep(self):
        """~120 randomised draws: compiled == per-ball ensemble kernel,
        counts and heights, across d, R, capacity profiles and tie modes —
        all three compiled specialisations covered."""
        assert check_lockstep_kernel_equivalence(
            "compiled", 0xC0DE, SweepBudget(draws=120)
        ) == 120

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_modes_and_d(self, tie_break, d, matches_per_ball):
        rng = np.random.default_rng(hash((tie_break, d)) % 2**32)
        n, m, R = 12, 300, 3
        caps = rng.integers(1, 7, size=n).astype(np.int64)
        matches_per_ball(run_batch_compiled, caps, rng.integers(0, n, size=(R, m, d)),
                         rng.random((R, m)), tie_break=tie_break)

    def test_d2_uniform_specialisation(self, matches_per_ball):
        """Equal capacities at d=2 route through the uniform kernel; the
        heights must still divide by the true capacity, not 1."""
        rng = np.random.default_rng(3)
        n, m, R = 8, 200, 2
        matches_per_ball(run_batch_compiled, np.full(n, 4, dtype=np.int64),
                         rng.integers(0, n, size=(R, m, 2)), rng.random((R, m)))

    def test_within_ball_duplicates(self, matches_per_ball):
        """Balls whose candidate multiset repeats a bin (a == b) take the
        repeated bin without consulting the tie coin."""
        rng = np.random.default_rng(5)
        R, n, m = 3, 6, 200
        choices = rng.integers(0, n, size=(R, m, 2))
        choices[:, ::3, 1] = choices[:, ::3, 0]
        matches_per_ball(run_batch_compiled, [2] * n, choices, rng.random((R, m)))

    def test_per_replication_capacities(self, matches_per_ball):
        rng = np.random.default_rng(11)
        n, m, R = 8, 150, 4
        caps = rng.integers(1, 9, size=(R, n)).astype(np.int64)
        for d in (1, 2, 3):
            matches_per_ball(run_batch_compiled, caps, rng.integers(0, n, size=(R, m, d)),
                             rng.random((R, m)))

    def test_split_invariance_against_scalar(self):
        """Chained compiled calls on one counts array equal one whole-batch
        pass and the scalar loop (the driver's chunking pattern)."""
        rng = np.random.default_rng(21)
        n, m, R = 9, 120, 2
        caps = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5], dtype=np.int64)
        choices = rng.integers(0, n, size=(R, m, 2))
        tie_u = rng.random((R, m))
        whole = np.zeros((R, n), dtype=np.int64)
        run_batch_compiled(whole, caps, choices, tie_u)
        split = np.zeros((R, n), dtype=np.int64)
        cut = 47
        run_batch_compiled(split, caps, choices[:, :cut], tie_u[:, :cut])
        run_batch_compiled(split, caps, choices[:, cut:], tie_u[:, cut:])
        np.testing.assert_array_equal(whole, split)
        for r in range(R):
            fast_counts = [0] * n
            run_batch(fast_counts, caps.tolist(), choices[r], tie_u[r])
            assert np.array_equal(split[r], fast_counts)

    def test_empty_batch_noop(self):
        counts = np.arange(6, dtype=np.int64).reshape(2, 3)
        out = run_batch_compiled(
            counts.copy(), [1, 1, 1], np.zeros((2, 0, 2), dtype=np.int64),
            np.zeros((2, 0)),
        )
        np.testing.assert_array_equal(out, counts)

    def test_shares_kernel_validation(self):
        with pytest.raises(ValueError, match="unknown tie_break"):
            run_batch_compiled(
                np.zeros((1, 2), dtype=np.int64), [1, 1],
                np.zeros((1, 1, 2), dtype=np.int64), np.zeros((1, 1)),
                tie_break="nope",
            )
        with pytest.raises(ValueError, match="C-contiguous"):
            run_batch_compiled(
                np.zeros((4, 6), dtype=np.int64)[:, ::2], [1, 1, 1],
                np.zeros((4, 2, 2), dtype=np.int64), np.zeros((4, 2)),
            )
        with pytest.raises(ValueError, match="tie_uniforms"):
            run_batch_compiled(
                np.zeros((2, 3), dtype=np.int64), [1, 1, 1],
                np.zeros((2, 4, 2), dtype=np.int64), np.zeros((2, 3)),
            )

    def test_warmup_runs_every_kernel(self):
        """warmup() touches all specialisations at toy scale and reports
        whether the jit actually happened."""
        assert warmup() is HAVE_NUMBA


class TestDriverIdentity:
    def test_randomised_driver_sweep(self):
        """simulate / simulate_ensemble forced compiled == forced numpy,
        counts, heights and snapshots, across tie modes and seed modes."""
        assert check_driver_dispatch_identity(
            "backend", ("compiled", "numpy"), 0xBACC, trials=8
        ) == 8

    def test_compiled_skips_wavefront_dispatch(self, monkeypatch):
        """When the compiled tier is in force the wavefront kernels must not
        run at all — a wavefront call under the compiled backend is a
        dispatch-order bug even if the numbers happen to agree."""
        import repro.core.ensemble as ens

        def boom(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("wavefront kernel ran under compiled backend")

        monkeypatch.setattr(ens, "run_batch_wavefront", boom)
        bins = BinArray([1] * 10_000)  # auto would take the wavefront here
        with forced_policy(backend="compiled"):
            simulate(bins, m=500, d=2, seed=1)
            simulate_ensemble(bins, repetitions=2, m=500, d=2, seed=1)


class TestBackendKnobs:
    def test_mode_knobs(self):
        assert get_backend() in CHOICES["backend"]
        with forced_policy(backend="compiled"):
            assert get_backend() == "compiled"
            assert use_compiled()
            with forced_policy(backend="numpy"):
                assert not use_compiled()
            assert get_backend() == "compiled"

    def test_auto_follows_numba_availability(self):
        """"auto" means "compiled iff numba importable" — so a numba-less
        install never changes behaviour, and a numba install always gets the
        fast tier without configuration."""
        assert KernelPolicy(backend="auto").compiled is HAVE_NUMBA
        assert KernelPolicy(backend="compiled").compiled is True
        assert KernelPolicy(backend="numpy").compiled is False

    def test_fallback_is_usable_without_numba(self):
        """Forcing "compiled" must work (interpreter speed) even when numba
        is absent: correctness never depends on the jit."""
        bins = BinArray([2, 1, 3, 1])
        with forced_policy(backend="compiled"):
            res = simulate(bins, m=50, d=2, seed=4, track_heights=True)
        with forced_policy(backend="numpy"):
            ref = simulate(bins, m=50, d=2, seed=4, track_heights=True)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_array_equal(res.heights, ref.heights)


class TestThreadKnobs:
    def test_set_and_forced(self):
        with forced_policy(threads=2):
            assert get_threads() == 2
            with forced_policy(threads="auto"):
                assert get_threads() == "auto"
            assert get_threads() == 2
        assert get_threads() == "auto"

    def test_invalid_budgets_rejected(self):
        for bad in (0, -3, "many"):
            with pytest.raises(ValueError, match="thread budget"):
                with forced_policy(threads=bad):
                    pass

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["threads"], "5")
        assert get_threads() == 5
        monkeypatch.setenv(ENV_VARS["threads"], "auto")
        assert get_threads() == "auto"
        monkeypatch.setenv(ENV_VARS["threads"], "garbage")
        assert get_threads() == "auto"  # degrade, never crash a run
        monkeypatch.setenv(ENV_VARS["threads"], "0")
        assert get_threads() == "auto"

    def test_resolve_auto_caps_at_replications(self, monkeypatch):
        monkeypatch.setattr(policy, "cpu_budget", lambda: 8)
        auto = KernelPolicy()
        big = PARALLEL_MIN_WORK  # at/above the floor
        assert auto.thread_budget(64, big) == 8
        assert auto.thread_budget(3, big) == 3
        assert auto.thread_budget(1, big) == 1
        assert auto.thread_budget(64) == 8  # no work estimate: trust R

    def test_resolve_explicit_bypasses_floor_and_cores(self, monkeypatch):
        monkeypatch.setattr(policy, "cpu_budget", lambda: 2)
        # tiny work, threads > R
        assert KernelPolicy(threads=7).thread_budget(3, 10) == 7
        assert KernelPolicy(threads=1).thread_budget(256, PARALLEL_MIN_WORK) == 1

    def test_worker_thread_budget(self):
        assert worker_thread_budget() == "1"  # auto: children stay serial
        with forced_policy(threads=3):
            assert worker_thread_budget() == "3"  # explicit: propagates


class TestWorkSizeFloor:
    """"auto" keeps tiny batches on the serial compile — proven by
    monkeypatching the parallel compile to a tripwire, on a simulated
    multi-core box (CI may have one core, which would make auto trivially
    serial)."""

    def _arm(self, monkeypatch):
        monkeypatch.setattr(policy, "cpu_budget", lambda: 8)

        def boom(*args):  # pragma: no cover - only on regression
            raise AssertionError("parallel kernel ran below the work floor")

        for name in _PARALLEL_KERNELS:
            monkeypatch.setitem(compiled._PARALLEL, name, boom)

    def test_resolve_floor_boundary(self, monkeypatch):
        monkeypatch.setattr(policy, "cpu_budget", lambda: 8)
        assert KernelPolicy().thread_budget(64, PARALLEL_MIN_WORK - 1) == 1
        assert KernelPolicy().thread_budget(64, PARALLEL_MIN_WORK) == 8

    def test_small_batch_stays_serial(self, monkeypatch):
        self._arm(monkeypatch)
        rng = np.random.default_rng(2)
        R, n, m = 4, 8, 50  # R * m far below PARALLEL_MIN_WORK
        for d, caps in ((2, np.ones(n, np.int64)),
                        (2, np.arange(1, n + 1, dtype=np.int64)),
                        (3, np.arange(1, n + 1, dtype=np.int64))):
            counts = np.zeros((R, n), dtype=np.int64)
            run_batch_compiled(counts, caps, rng.integers(0, n, (R, m, d)),
                               rng.random((R, m)))

    def test_small_driver_run_stays_serial(self, monkeypatch):
        self._arm(monkeypatch)
        with forced_policy(backend="compiled"):
            simulate_ensemble(BinArray([1] * 8), repetitions=4, m=60, d=2,
                              seed=3)
            simulate(BinArray([1] * 8), m=60, d=2, seed=3)

    def test_large_batch_goes_parallel(self, monkeypatch):
        """Above the floor on a multi-core box, auto dispatches the prange
        compile (counted via a pass-through spy)."""
        monkeypatch.setattr(policy, "cpu_budget", lambda: 8)
        calls = []
        real = compiled._PARALLEL["d2_uniform"]

        def spy(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setitem(compiled._PARALLEL, "d2_uniform", spy)
        R = 64
        m = PARALLEL_MIN_WORK // R  # R * m == PARALLEL_MIN_WORK exactly
        rng = np.random.default_rng(4)
        n = 512
        counts = np.zeros((R, n), dtype=np.int64)
        run_batch_compiled(counts, np.ones(n, np.int64),
                           rng.integers(0, n, (R, m, 2)), rng.random((R, m)))
        assert calls, "prange kernel did not run above the work floor"


class TestThreadCountBitIdentity:
    """Randomized thread-count property: any budget, any specialisation,
    bit-identical counts and heights — including threads > R (idle
    threads) and per-replication capacity matrices."""

    @pytest.mark.parametrize("R", [1, 3, 64])
    @pytest.mark.parametrize("track_heights", [False, True])
    def test_all_specialisations(self, R, track_heights, matches_per_ball):
        rng = np.random.default_rng(0xBEEF + R + track_heights)
        n, m = 10, 120
        profiles = [
            (2, np.full(n, 3, dtype=np.int64)),              # d2 uniform
            (2, rng.integers(1, 7, (n,)).astype(np.int64)),  # d2 general
            (2, rng.integers(1, 7, (R, n)).astype(np.int64)),  # d2 per-rep
            (1, rng.integers(1, 7, (n,)).astype(np.int64)),  # general d=1
            (3, rng.integers(1, 7, (R, n)).astype(np.int64)),  # general d=3
        ]
        for d, caps in profiles:
            choices = rng.integers(0, n, size=(R, m, d))
            tie_u = rng.random((R, m))
            for threads in (1, 2, 7):
                matches_per_ball(run_batch_compiled, caps, choices, tie_u,
                                 heights=track_heights, threads=threads)


class TestBackendExperimentIdentity:
    """Backend compiled vs numpy over the full experiment registry.

    The compiled kernels consume the identical pre-drawn randomness as the
    NumPy tiers, so every series must agree *bit for bit* on both engines,
    for every registered experiment — with or without numba (the fallback
    runs the same source).  A future experiment whose runner leaks the
    backend decision into its numbers fails here.
    """

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_compiled_equals_numpy(self, experiment_id):
        assert check_dispatch_identity(
            experiment_id, "backend", ("compiled", "numpy")
        ) == 2


class TestThreadExperimentIdentity:
    """Forced 1 vs 2 vs 7 compiled threads over the full experiment
    registry, both engines: the threads axis of the dispatch matrix.  Runs
    with or without numba (without it both compiles are the same
    plain-Python source), so a kernel source whose parallel compile
    drifts from the serial one fails here on every machine."""

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_threads_never_change_a_number(self, experiment_id):
        # 2 engines x 2 non-baseline budgets
        assert check_dispatch_identity(experiment_id, "threads", (1, 2, 7)) == 4
