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
* every lockstep driver (plain, ``simulate_batched_ensemble``,
  ``simulate_weighted_ensemble``, ``allocate_requests_ensemble``) carries
  the same spawn-mode parity: row ``r`` equals the driver's ``R = 1`` run
  (its row kernel) under ``seeds=[child_r]``;
* the rows tier (the row kernel once per row, below the crossover) equals
  the lockstep kernels on the same draws, on both sides of the crossover.

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

import repro.core.ensemble as ens_module
from repro.bins import BinArray
from repro.core import policy
from repro.core.ensemble import SEED_MODES, run_batch_ensemble, simulate_ensemble
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    check_kernel_equivalence,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_experiment_equivalence,
    check_row_parity,
    forced_native,
)
from repro.core.fast import run_batch
from repro.core.policy import ROWS_CROSSOVER, TIERS, forced_tier, use_rows
from repro.core.protocol import TIE_BREAKS, reference_run
from repro.sampling.distributions import probability_model
from repro.sampling.rngutils import make_rng, spawn_seed_sequences


class TestRandomisedEquivalence:
    def test_three_way_sweep(self):
        """~50 randomised (n, m, d, profile, tie, seed) draws: ensemble ==
        fast == reference, counts and heights, for every replication."""
        assert check_kernel_equivalence(0xE25E) == 50

    def test_driver_parity_sweep(self):
        """simulate_ensemble row r == the R = 1 row kernel on child_r,
        randomised: counts, heights and snapshots."""
        assert check_row_parity("plain", 0xD41E) == 6

    def test_batched_parity_sweep(self):
        """simulate_batched_ensemble row r == its R = 1 run on child_r."""
        assert check_row_parity("batched", 0xBA7C) == 6

    def test_weighted_parity_sweep(self):
        """simulate_weighted_ensemble row r == its R = 1 run on child_r,
        counts and float masses both."""
        assert check_row_parity("weighted", 0x3E16) == 6

    def test_ring_parity_sweep(self):
        """allocate_requests_ensemble row r == its R = 1 run on child_r."""
        assert check_row_parity("ring", 0x21F6) == 6

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

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_scalar_is_one_repetition_per_block(self, experiment_id):
        """The scalar engine is the ensemble engine with one repetition per
        block: bit-identical series, summation order included."""
        from repro.core.equivalence import _assert_same_series
        from repro.experiments import run_experiment

        case = EXPERIMENT_CASES[experiment_id]
        scalar = run_experiment(
            experiment_id, seed=case.seed, engine="scalar", **case.kwargs
        )
        blocks = run_experiment(
            experiment_id, seed=case.seed, engine="ensemble", block_size=1,
            **case.kwargs,
        )
        _assert_same_series(scalar, blocks, f"{experiment_id} scalar vs b=1")


def _driver_cases():
    """``(module, row kernel, lockstep kernel, run(R))`` per lockstep driver."""
    import repro.core.rounds as rounds
    import repro.core.weighted as weighted
    import repro.p2p.workload as workload
    from repro.p2p.ring import ConsistentHashRing

    bins = BinArray([1, 2, 3, 4, 2])
    ring = ConsistentHashRing.random(8, seed=0)
    return {
        "plain": (ens_module, "run_batch", "run_batch_ensemble",
                  lambda R: simulate_ensemble(bins, repetitions=R, m=60, seed=1)),
        "batched": (rounds, "stale_choice", "_resolve_stale_batch",
                    lambda R: rounds.simulate_batched_ensemble(
                        bins, repetitions=R, m=60, batch_size=4, seed=1)),
        "weighted": (weighted, "_weighted_row", "_weighted_lockstep",
                     lambda R: weighted.simulate_weighted_ensemble(
                         bins, np.full(30, 1.5), repetitions=R, seed=1)),
        "ring": (workload, "run_batch", "run_batch_ensemble",
                 lambda R: workload.allocate_requests_ensemble(
                     ring, 40, repetitions=R, seed=1)),
    }


def _kernel_calls(driver, R, monkeypatch, *, tier=None):
    """``(row kernel, lockstep kernel, calls)`` after one *driver* run of
    *R* rows on the per-ball tiers; *tier* forces ``"rows"`` or
    ``"lockstep"``, else the crossover picks."""
    module, row_kernel, lockstep_kernel, run = _driver_cases()[driver]
    calls = {row_kernel: 0, lockstep_kernel: 0}
    for name in calls:
        real = getattr(module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    # The per-ball tiers, where the row and lockstep kernels live; a
    # forced tier turns the native one off by itself.
    monkeypatch.setattr(policy, "HAVE_NUMBA", False)
    with forced_native(False) if tier is None else forced_tier(tier):
        run(R)
    return row_kernel, lockstep_kernel, calls


class TestOneDriveLoop:
    """Each process has one drive loop with a row kernel and a lockstep
    kernel: at R = 1 it runs the row kernel and never the lockstep kernel,
    even with lockstep forced; at R = 2 forced lockstep the reverse
    holds."""

    @pytest.mark.parametrize("R", [1, 2])
    @pytest.mark.parametrize("driver", ["plain", "batched", "weighted", "ring"])
    def test_row_kernel_exactly_at_one_row(self, driver, R, monkeypatch):
        row_kernel, lockstep_kernel, calls = _kernel_calls(
            driver, R, monkeypatch, tier="lockstep"
        )
        used, unused = (
            (row_kernel, lockstep_kernel) if R == 1 else (lockstep_kernel, row_kernel)
        )
        assert calls[used] > 0, f"{driver} R={R} never called {used}"
        assert calls[unused] == 0, f"{driver} R={R} called {unused}"

    @pytest.mark.parametrize("tier, R", [("rows", 64), ("lockstep", 2)])
    @pytest.mark.parametrize("driver", ["plain", "weighted", "ring"])
    def test_forced_tier_beats_the_crossover(self, driver, tier, R, monkeypatch):
        """Forcing rows or lockstep runs that tier where the crossover
        picks the other one, native off; every other forced tier leaves
        the ring and weighted drivers on their own choice."""
        row_kernel, lockstep_kernel, calls = _kernel_calls(
            driver, R, monkeypatch, tier=tier
        )
        assert use_rows(R, 2, weighted=driver == "weighted") == (tier == "lockstep")
        used, unused = ((row_kernel, lockstep_kernel) if tier == "rows"
                        else (lockstep_kernel, row_kernel))
        assert calls[used] > 0 and calls[unused] == 0, f"{driver} {tier}: {calls}"
        if tier == "rows":
            assert calls[used] == R, f"{driver} rows R={R}: {calls}"

    @pytest.mark.parametrize("driver, tier", [
        ("ring", "compiled"), ("ring", "wavefront"), ("weighted", "native"),
        ("weighted", "compiled"), ("weighted", "wavefront"),
    ])
    def test_driver_without_the_tier_keeps_its_choice(self, driver, tier,
                                                      monkeypatch):
        """A driver without the forced tier runs the one its crossover
        picks — rows at R = 5 — with the native tier off."""
        from repro import native

        monkeypatch.setattr(native, "run_rows",
                            lambda *a, **k: pytest.fail("native ran"))
        row_kernel, _, calls = _kernel_calls(driver, 5, monkeypatch, tier=tier)
        assert calls == {**dict.fromkeys(calls, 0), row_kernel: 5}

    @pytest.mark.parametrize("R", [2, 5, 64])
    @pytest.mark.parametrize("driver", ["plain", "batched", "weighted", "ring"])
    def test_tier_follows_the_crossover(self, driver, R, monkeypatch):
        """Left alone, the plain, weighted and ring drivers run the row
        kernel once per row below their crossover and the lockstep kernel
        above it; the stale-view driver has no rows tier."""
        row_kernel, lockstep_kernel, calls = _kernel_calls(driver, R, monkeypatch)
        rows = driver != "batched" and use_rows(R, 2, weighted=driver == "weighted")
        assert rows == (driver != "batched" and R < 64)
        if rows:
            assert calls[row_kernel] == R, f"{driver} R={R}: {calls}"
            assert calls[lockstep_kernel] == 0, f"{driver} R={R}: {calls}"
        else:
            assert calls[lockstep_kernel] > 0, f"{driver} R={R}: {calls}"
            assert calls[row_kernel] == 0, f"{driver} R={R}: {calls}"


#: Capacity profiles of the rows-vs-lockstep identity tests.
_ROW_CAPACITIES = {
    "uniform": [3] * 12,
    "two_class": [1] * 6 + [8] * 6,
}


def _assert_same_run(a, b, label):
    """Counts, heights, kept choices and every snapshot, bit for bit."""
    np.testing.assert_array_equal(a.counts, b.counts, err_msg=f"{label}: counts")
    np.testing.assert_array_equal(a.heights, b.heights, err_msg=f"{label}: heights")
    np.testing.assert_array_equal(a.choices, b.choices, err_msg=f"{label}: choices")
    assert len(a.snapshots) == len(b.snapshots), label
    for x, y in zip(a.snapshots, b.snapshots):
        assert x.balls_thrown == y.balls_thrown, label
        np.testing.assert_array_equal(
            x.max_loads, y.max_loads, err_msg=f"{label}: snapshot"
        )


class TestRowsTier:
    """The rows tier (the list row kernel once per row on the drawn
    ``(R, k, d)`` chunk) is bit-identical to the lockstep kernels: on
    either side of the crossover, the two forced tiers agree."""

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("profile", sorted(_ROW_CAPACITIES))
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_rows_equal_lockstep(self, d, profile, side):
        R = 5 if side == "below" else ROWS_CROSSOVER + 2 * d
        assert use_rows(R, d) == (side == "below")
        bins = BinArray(_ROW_CAPACITIES[profile])
        m = 150
        for tie_break in TIE_BREAKS:
            for seed_mode in SEED_MODES:
                kwargs = dict(
                    repetitions=R, m=m, d=d, seed=d * 1000 + R,
                    seed_mode=seed_mode, tie_break=tie_break,
                    track_heights=True, keep_choices=True,
                    snapshot_at=[0, 50, 120, m], chunk_size=40,
                )
                with forced_tier("rows"):
                    rows = simulate_ensemble(bins, **kwargs)
                with forced_tier("lockstep"):
                    lockstep = simulate_ensemble(bins, **kwargs)
                _assert_same_run(
                    rows, lockstep, f"d={d} {profile} R={R} {tie_break} {seed_mode}"
                )

    def test_randomised_driver_sweep(self):
        """simulate / simulate_ensemble with rows forced == lockstep forced
        == unforced, counts, heights and snapshots, across tie modes and
        seed modes."""
        assert check_driver_dispatch_identity(
            ("rows", "lockstep"), 0x2055, trials=8
        ) == 8

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_experiment_rows_equal_lockstep(self, experiment_id, unforced_runs):
        """Every registered experiment, both engines: rows forced and
        lockstep forced each give the unforced run's series bit for bit."""
        assert check_dispatch_identity(
            experiment_id, ("rows", "lockstep"), unforced=unforced_runs
        ) == 4

    def test_runtime_fallback_lands_on_rows(self, monkeypatch):
        """At R = 5 the wavefront's runtime guard hands the rest of the run
        to the tier the same rule picks — rows — without changing a bit."""
        bins = BinArray([1] * 2000)
        kwargs = dict(repetitions=5, m=2000, d=2, seed=13, seed_mode="blocked",
                      track_heights=True, keep_choices=True,
                      snapshot_at=[500, 1500, 2000], chunk_size=500)
        with forced_tier("lockstep"):
            reference = simulate_ensemble(bins, **kwargs)
        calls = {"run_batch_wavefront": 0, "run_batch": 0, "run_batch_ensemble": 0}
        for name in calls:
            real = getattr(ens_module, name)

            def spy(*args, _name=name, _real=real, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(ens_module, name, spy)
        # An impossible threshold trips the guard right after the first
        # chunk, so chunk 1 runs the wavefront and chunks 2-4 the rows.
        monkeypatch.setattr(ens_module, "RUNTIME_MIN_FREE_FRACTION", 2.0)
        monkeypatch.setattr(policy, "HAVE_NUMBA", False)
        with forced_native(False):
            res = simulate_ensemble(bins, **kwargs)
        assert calls == {"run_batch_wavefront": 1, "run_batch": 5 * 3,
                         "run_batch_ensemble": 0}
        _assert_same_run(res, reference, "R=5 fallback")


class TestExactnessOutranksTier:
    """A plain-driver run the int64/float64 tiers cannot compute exactly
    (``native.fits`` false) runs the rows tier in Python ints, whatever
    ``R`` or the forced tier: every row equals ``protocol.reference_run``
    on the same draws."""

    @pytest.mark.parametrize("caps, heights", [
        # (m + 1) * max capacity >= 2^62: the d = 2 lockstep product
        # overflows int64.
        ([2**61, 2**61 - 1, 5], False),
        # capacities past 2^53: float64 heights round differently.
        ([2**53 + 1, 2**53 + 3, 3], True),
    ])
    @pytest.mark.parametrize("tier", TIERS)
    def test_rows_equal_the_reference(self, caps, heights, tier):
        m, d, R, seed = 40, 2, 2, 5
        bins = BinArray(caps)
        with forced_tier(tier):
            res = simulate_ensemble(bins, R, m, d, seed=seed,
                                    track_heights=heights, keep_choices=True)
        sampler = probability_model("proportional").sampler(bins.capacities)
        for r, child in enumerate(spawn_seed_sequences(seed, R)):
            gen = make_rng(child)  # one chunk: candidates, then ties
            choices, tie_u = sampler.sample((m, d), gen), gen.random(m)
            np.testing.assert_array_equal(res.choices[r], choices)
            ref_heights = [] if heights else None
            counts = reference_run(caps, choices, tie_uniforms=tie_u,
                                   heights=ref_heights)
            np.testing.assert_array_equal(res.counts[r], counts, err_msg=f"row {r}")
            if heights:
                assert res.heights[r].tolist() == ref_heights, f"row {r}"


class TestWavefrontExperimentIdentity:
    """The wavefront forced against the unforced run over the full
    experiment registry.

    The wavefront kernels consume the identical pre-drawn randomness as
    the per-ball loops, so — unlike the tolerance-bounded cross-engine
    matrix above — every series must agree *bit for bit* on both engines,
    for every registered experiment.  A future experiment whose runner
    somehow leaks the dispatch decision into its numbers fails here.
    """

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_forced_on_equals_forced_off(self, experiment_id, unforced_runs):
        assert check_dispatch_identity(
            experiment_id, ("wavefront",), unforced=unforced_runs
        ) == 2


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
        with forced_tier("lockstep"):
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
