"""Compiled tier suite: bit-identity, dispatch, and the fallback.

The contract under test (see :mod:`repro.core.compiled`):
``run_batch_compiled`` is a drop-in replacement for
``run_batch_ensemble`` / ``run_batch_wavefront`` — identical counts *and*
heights for every replication, every tie-break mode, shared or
per-replication capacities — and the engine drivers may therefore dispatch
between the tiers freely (a ``forced_tier("compiled")`` run must be
bit-identical to the unforced one end to end).
Without Numba the same kernel source runs through the interpreter, so the
whole suite doubles as the graceful-fallback check: nothing here skips
when :data:`repro.core.compiled.HAVE_NUMBA` is ``False``.
"""

import numpy as np
import pytest

from repro.bins import BinArray
from repro.core import policy
from repro.core.compiled import HAVE_NUMBA, run_batch_compiled, warmup
from repro.core.ensemble import simulate_ensemble
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    SweepBudget,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_lockstep_kernel_equivalence,
    forced_native,
)
from repro.core.fast import run_batch
from repro.core.policy import dispatch, forced_tier
from repro.core.protocol import TIE_BREAKS
from repro.core.simulation import simulate


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
        """simulate / simulate_ensemble forced compiled == unforced,
        counts, heights and snapshots, across tie modes and seed modes."""
        assert check_driver_dispatch_identity(("compiled",), 0xBACC, trials=8) == 8

    def test_compiled_skips_wavefront_dispatch(self, monkeypatch):
        """When the compiled tier is in force the wavefront kernels must not
        run at all — a wavefront call under the compiled backend is a
        dispatch-order bug even if the numbers happen to agree."""
        import repro.core.ensemble as ens

        def boom(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("wavefront kernel ran under compiled backend")

        monkeypatch.setattr(ens, "run_batch_wavefront", boom)
        bins = BinArray([1] * 10_000)  # auto would take the wavefront here
        with forced_tier("compiled"):
            simulate(bins, m=500, d=2, seed=1)
            simulate_ensemble(bins, repetitions=2, m=500, d=2, seed=1)


class TestBackendKnobs:
    def test_mode_knobs(self):
        """Forcing the compiled tier runs it at every shape, native off."""
        with forced_tier("compiled"):
            for shape in [(2.0, 1, 2), (1e6, 20, 2), (32.0, 100, 2)]:
                assert dispatch(*shape, native_fits=True) == "compiled"

    def test_auto_follows_numba_availability(self, monkeypatch):
        """Unforced, the compiled tier runs exactly when numba is
        importable — so a numba-less install never changes behaviour, and
        a numba install always gets the fast tier without configuration."""
        with forced_native(False):
            for have in (False, True):
                monkeypatch.setattr(policy, "HAVE_NUMBA", have)
                assert (dispatch(2.0, 5, 2) == "compiled") is have

    def test_fallback_is_usable_without_numba(self):
        """Forcing "compiled" must work (interpreter speed) even when numba
        is absent: correctness never depends on the jit."""
        bins = BinArray([2, 1, 3, 1])
        with forced_tier("compiled"):
            res = simulate(bins, m=50, d=2, seed=4, track_heights=True)
        with forced_tier("lockstep"):
            ref = simulate(bins, m=50, d=2, seed=4, track_heights=True)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_array_equal(res.heights, ref.heights)


class TestBackendExperimentIdentity:
    """The compiled tier forced against the unforced run over the full
    experiment registry.

    The compiled kernels consume the identical pre-drawn randomness as the
    other tiers, so every series must agree *bit for bit* on both engines,
    for every registered experiment — with or without numba (the fallback
    runs the same source).  A future experiment whose runner leaks the
    dispatch decision into its numbers fails here.  With the wavefront,
    rows, lockstep and native classes this forces every tier against the
    same unforced run.
    """

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_compiled_equals_numpy(self, experiment_id, unforced_runs):
        assert check_dispatch_identity(
            experiment_id, ("compiled",), unforced=unforced_runs
        ) == 2
