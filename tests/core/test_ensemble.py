"""Randomised equivalence suite for the lockstep ensemble engine.

The contract under test (see :mod:`repro.core.ensemble`): every replication
of the ensemble engine is *bit-identical* to the scalar engines given the
same choices and tie-uniform stream —

* ``run_batch_ensemble(counts, caps, choices, tie_u)[r]``
  equals ``fast.run_batch`` on ``choices[r]`` / ``tie_u[r]``
  equals ``protocol.reference_run(..., tie_uniforms=tie_u[r])``,
  including per-ball heights instrumentation;
* ``simulate_ensemble(bins, seeds=[s_0..s_{R-1}])`` row ``r`` equals
  ``simulate(bins, seed=s_r)`` — counts, heights, and snapshots;
* the protocol variants carry the same spawn-mode parity:
  ``simulate_batched_ensemble`` / ``simulate_weighted_ensemble`` /
  ``allocate_requests_ensemble`` row ``r`` equals the matching scalar driver
  under ``seed=child_r``.

On top of the bit-level sweeps, the per-experiment cross-engine matrix
(:data:`repro.core.equivalence.EXPERIMENT_CASES`) runs **every** registered
experiment on both engines at a pinned tiny configuration; a future
experiment that skips migration fails here rather than only at
``--engine ensemble`` runtime.

``scripts/check_equivalence.py`` reruns this suite with a larger draw budget.
"""

import inspect

import numpy as np
import pytest

from repro.bins import BinArray
from repro.core.ensemble import SEED_MODES, run_batch_ensemble, simulate_ensemble
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    check_batched_parity,
    check_driver_parity,
    check_kernel_equivalence,
    check_dispatch_identity,
    check_experiment_equivalence,
    check_ring_parity,
    check_weighted_parity,
)
from repro.core.fast import run_batch
from repro.core.policy import forced_policy
from repro.sampling.rngutils import spawn_seed_sequences


class TestRandomisedEquivalence:
    def test_three_way_sweep(self):
        """~50 randomised (n, m, d, profile, tie, seed) draws: ensemble ==
        fast == reference, counts and heights, for every replication."""
        assert check_kernel_equivalence(0xE25E) == 50

    def test_driver_parity_sweep(self):
        """simulate_ensemble row r == simulate(seed=child_r), randomised."""
        assert check_driver_parity(0xD41E) == 6

    def test_batched_parity_sweep(self):
        """simulate_batched_ensemble row r == simulate_batched(seed=child_r)."""
        assert check_batched_parity(0xBA7C) == 6

    def test_weighted_parity_sweep(self):
        """simulate_weighted_ensemble row r == simulate_weighted(seed=child_r),
        counts and float masses both."""
        assert check_weighted_parity(0x3E16) == 6

    def test_ring_parity_sweep(self):
        """allocate_requests_ensemble row r == allocate_requests(seed=child_r)."""
        assert check_ring_parity(0x21F6) == 6

    def test_per_replication_capacities(self):
        """The kernel also accepts (R, n) capacities: each replication then
        plays against its own array, still bit-identical to the scalar loop."""
        rng = np.random.default_rng(7)
        n, m, R = 6, 80, 4
        for d in (1, 2, 3):
            caps = rng.integers(1, 9, size=(R, n)).astype(np.int64)
            choices = rng.integers(0, n, size=(R, m, d))
            tie_u = rng.random((R, m))
            counts = np.zeros((R, n), dtype=np.int64)
            run_batch_ensemble(counts, caps, choices, tie_u)
            for r in range(R):
                fast_counts = [0] * n
                run_batch(fast_counts, caps[r].tolist(), choices[r], tie_u[r])
                assert np.array_equal(counts[r], fast_counts), (d, r)


class TestSpawnStreamParity:
    def test_explicit_seeds_equal_spawned_master(self):
        """seeds=spawn(master, R) is exactly the default spawn of master."""
        bins = BinArray([1, 2, 3, 4])
        a = simulate_ensemble(bins, repetitions=5, seed=42)
        b = simulate_ensemble(bins, seeds=spawn_seed_sequences(42, 5))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_kernel_split_invariance(self):
        """Splitting one batch into consecutive kernel calls (what the driver
        does to bound temporaries) must not alter any replication."""
        rng = np.random.default_rng(21)
        n, m, R = 5, 90, 3
        caps = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        for d in (1, 2, 3):
            choices = rng.integers(0, n, size=(R, m, d))
            tie_u = rng.random((R, m))
            whole = np.zeros((R, n), dtype=np.int64)
            run_batch_ensemble(whole, caps, choices, tie_u)
            split = np.zeros((R, n), dtype=np.int64)
            cut = 37
            run_batch_ensemble(split, caps, choices[:, :cut], tie_u[:, :cut])
            run_batch_ensemble(split, caps, choices[:, cut:], tie_u[:, cut:])
            np.testing.assert_array_equal(whole, split, err_msg=f"d={d}")


class TestBlockedMode:
    def test_deterministic_and_conserving(self):
        bins = BinArray([1, 2, 2, 5])
        a = simulate_ensemble(bins, repetitions=6, m=50, seed=3, seed_mode="blocked")
        b = simulate_ensemble(bins, repetitions=6, m=50, seed=3, seed_mode="blocked")
        np.testing.assert_array_equal(a.counts, b.counts)
        assert (a.counts.sum(axis=1) == 50).all()
        assert a.seed_mode == "blocked"

    def test_replications_differ(self):
        bins = BinArray([1, 1, 1, 1, 1, 1, 1, 1])
        res = simulate_ensemble(bins, repetitions=8, m=64, seed=0, seed_mode="blocked")
        assert len({tuple(row) for row in res.counts.tolist()}) > 1


class TestResultSurface:
    def test_load_statistics(self):
        bins = BinArray([2, 2, 4])
        res = simulate_ensemble(bins, repetitions=3, m=16, seed=1)
        assert res.counts.shape == (3, 3)
        assert res.loads.shape == (3, 3)
        assert res.max_loads.shape == (3,)
        assert res.average_load == pytest.approx(2.0)
        np.testing.assert_allclose(res.gaps, res.max_loads - 2.0)

    def test_load_properties_are_cached(self):
        """Repeated property access returns the same array object instead of
        materialising a fresh (R, n) float matrix every time."""
        bins = BinArray([2, 2, 4])
        res = simulate_ensemble(bins, repetitions=3, m=16, seed=1)
        assert res.loads is res.loads
        assert res.max_loads is res.max_loads
        np.testing.assert_allclose(res.max_loads, res.loads.max(axis=1))

    def test_snapshot_gaps(self):
        bins = BinArray([1, 1])
        res = simulate_ensemble(bins, repetitions=2, m=2, seed=5, snapshot_at=[1, 2])
        assert [s.balls_thrown for s in res.snapshots] == [1, 2]
        snap = res.snapshots[0]
        np.testing.assert_allclose(snap.gaps, snap.max_loads - snap.average_load)


class TestExperimentEngineMatrix:
    """Per-experiment cross-engine suite: the full registry, one id per test.

    Each case runs the experiment on both engines at the pinned tiny
    configuration in ``EXPERIMENT_CASES`` and bounds the figure deviation;
    both runs are deterministic at fixed seeds, so these tests cannot flake.
    """

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_cross_engine(self, experiment_id):
        check_experiment_equivalence(experiment_id)

    def test_registry_fully_migrated(self):
        """Every registered experiment must expose the engine knob *and* own
        a cross-engine case — a future experiment that skips migration fails
        loudly here instead of only at ``--engine ensemble`` runtime."""
        from repro.experiments import list_experiments

        for spec in list_experiments():
            params = inspect.signature(spec.run).parameters
            assert "engine" in params, (
                f"experiment {spec.experiment_id!r} has no engine parameter: "
                f"migrate it to the ensemble engine (see ROADMAP engine matrix)"
            )
            assert spec.experiment_id in EXPERIMENT_CASES, (
                f"experiment {spec.experiment_id!r} has no cross-engine case "
                f"in repro.core.equivalence.EXPERIMENT_CASES"
            )

    def test_cases_cover_only_registered_experiments(self):
        """No stale case ids: the matrix and the registry agree exactly."""
        from repro.experiments import list_experiments

        registered = {spec.experiment_id for spec in list_experiments()}
        assert set(EXPERIMENT_CASES) == registered

    def test_missing_case_raises_with_guidance(self):
        with pytest.raises(KeyError, match="no cross-engine case"):
            check_experiment_equivalence("fig99")


class TestWavefrontExperimentIdentity:
    """Wavefront forced on vs forced off over the full experiment registry.

    The wavefront kernels consume the identical pre-drawn randomness as
    the per-ball loops, so — unlike the tolerance-bounded cross-engine
    matrix above — every series must agree *bit for bit* on both engines,
    for every registered experiment.  A future experiment whose runner
    somehow leaks the dispatch decision into its numbers fails here.
    """

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_forced_on_equals_forced_off(self, experiment_id):
        assert check_dispatch_identity(experiment_id, "wavefront", ("on", "off")) == 2


class TestKernelSubBatching:
    """Bit-identity of ``simulate_ensemble`` across ``_KERNEL_TARGET``-driven
    ``kernel_block`` values that do not divide the chunk, including
    ``track_heights`` slice alignment at the sub-batch boundaries."""

    @pytest.mark.parametrize("target", [1, 3, 7, 50])
    def test_kernel_block_boundaries(self, target, monkeypatch):
        import repro.core.ensemble as ens

        bins = BinArray([1, 2, 3, 4, 2, 1, 5])
        kwargs = dict(repetitions=3, m=83, d=2, seed=99, seed_mode="blocked",
                      track_heights=True, snapshot_at=[0, 40, 83])
        # Force the per-ball path so the sub-batch loop actually runs, and
        # compare degenerate kernel_block values against the default.
        with forced_policy(wavefront="off"):
            reference = simulate_ensemble(bins, **kwargs)
            monkeypatch.setattr(ens, "_KERNEL_TARGET", target)
            split = simulate_ensemble(bins, **kwargs)
        np.testing.assert_array_equal(split.counts, reference.counts)
        np.testing.assert_array_equal(split.heights, reference.heights)
        assert len(split.snapshots) == len(reference.snapshots)
        for a, b in zip(split.snapshots, reference.snapshots):
            assert a.balls_thrown == b.balls_thrown
            np.testing.assert_array_equal(a.max_loads, b.max_loads)


class TestValidation:
    def test_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError, match="unknown tie_break"):
            run_batch_ensemble(
                np.zeros((1, 2), dtype=np.int64), [1, 1],
                np.zeros((1, 1, 2), dtype=np.int64), np.zeros((1, 1)),
                tie_break="nope",
            )

    def test_rejects_bad_shapes(self):
        counts = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match=r"\(R, k, d\)"):
            run_batch_ensemble(counts, [1, 1, 1], np.zeros((2, 4), dtype=np.int64), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="first axis"):
            run_batch_ensemble(counts, [1, 1, 1], np.zeros((3, 4, 2), dtype=np.int64), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="tie_uniforms"):
            run_batch_ensemble(counts, [1, 1, 1], np.zeros((2, 4, 2), dtype=np.int64), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="heights"):
            run_batch_ensemble(
                counts, [1, 1, 1], np.zeros((2, 4, 2), dtype=np.int64), np.zeros((2, 4)),
                heights=np.zeros((2, 3)),
            )

    def test_empty_batch_noop(self):
        counts = np.arange(6, dtype=np.int64).reshape(2, 3)
        out = run_batch_ensemble(
            counts.copy(), [1, 1, 1], np.zeros((2, 0, 2), dtype=np.int64), np.zeros((2, 0))
        )
        np.testing.assert_array_equal(out, counts)

    def test_driver_validation(self):
        bins = BinArray([1, 1])
        with pytest.raises(ValueError, match="seed_mode"):
            simulate_ensemble(bins, repetitions=2, seed_mode="turbo")
        with pytest.raises(ValueError, match="repetitions"):
            simulate_ensemble(bins)
        with pytest.raises(ValueError, match="contradicts"):
            simulate_ensemble(bins, repetitions=3, seeds=[1, 2])
        with pytest.raises(ValueError, match="blocked"):
            simulate_ensemble(bins, seeds=[1, 2], seed_mode="blocked")
        assert set(SEED_MODES) == {"spawn", "blocked"}

    def test_rejects_non_contiguous_counts(self):
        counts = np.zeros((4, 6), dtype=np.int64)[:, ::2]  # strided view
        with pytest.raises(ValueError, match="C-contiguous"):
            run_batch_ensemble(
                counts, [1, 1, 1], np.zeros((4, 2, 2), dtype=np.int64), np.zeros((4, 2))
            )
