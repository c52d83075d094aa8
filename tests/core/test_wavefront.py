"""Wavefront kernel suite: bit-identity, dispatch, and the wave machinery.

The contract under test (see :mod:`repro.core.wavefront`):
``run_batch_wavefront`` is a drop-in replacement for
``run_batch_ensemble`` — identical counts *and* heights for every
replication, every tie-break mode, shared or per-replication capacities,
any tile width — and the engine drivers may therefore dispatch between
the two paths freely (a ``forced_tier("wavefront")`` run must be
bit-identical to the unforced one end to end).
"""

import numpy as np
import pytest

from repro.bins import BinArray
from repro.core import policy
from repro.core.ensemble import run_batch_ensemble, simulate_ensemble
from repro.core.equivalence import (
    SweepBudget,
    check_driver_dispatch_identity,
    check_lockstep_kernel_equivalence,
    forced_native,
)
from repro.core.fast import run_batch
from repro.core.policy import (
    MIN_BINS_PER_LANE,
    dispatch,
    effective_bins,
    expected_free_fraction,
    forced_tier,
    tile_width,
    use_wavefront,
)
from repro.core.simulation import simulate
from repro.core.wavefront import (
    WavefrontStats,
    WavefrontWorkspace,
    run_batch_wavefront,
)
from repro.core.protocol import TIE_BREAKS


class TestKernelBitIdentity:
    def test_randomised_sweep(self):
        """~120 randomised draws: wavefront == per-ball ensemble kernel,
        counts and heights, across d, R, capacity profiles, tie modes, and
        tile widths including the degenerate ones."""
        assert check_lockstep_kernel_equivalence(
            "wavefront", 0xAFE1, SweepBudget(draws=120)
        ) == 120

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_modes_and_d(self, tie_break, d, matches_per_ball):
        rng = np.random.default_rng(hash((tie_break, d)) % 2**32)
        n, m, R = 12, 300, 3
        caps = rng.integers(1, 7, size=n).astype(np.int64)
        matches_per_ball(run_batch_wavefront, caps, rng.integers(0, n, size=(R, m, d)),
                         rng.random((R, m)), tie_break=tie_break)

    def test_all_balls_one_bin(self):
        """Degenerate adversary: every ball probes the same bin, so every
        ball after the first is deferred and the wave chain is as deep as
        the tile."""
        R, n, m = 2, 4, 40
        choices = np.zeros((R, m, 2), dtype=np.int64)
        tie_u = np.random.default_rng(0).random((R, m))
        base = np.zeros((R, n), dtype=np.int64)
        run_batch_ensemble(base, [1] * n, choices, tie_u)
        for tile in (1, 8, m):
            wf = np.zeros((R, n), dtype=np.int64)
            stats = WavefrontStats()
            run_batch_wavefront(wf, [1] * n, choices, tie_u, tile=tile, stats=stats)
            np.testing.assert_array_equal(base, wf, err_msg=f"tile={tile}")
        assert stats.free_fraction < 0.1
        # the 40-deep chain blows the vectorised-round budget: the rest is
        # committed ball-by-ball and accounted as tail work
        assert stats.tail_balls > 0

    def test_within_ball_duplicates(self, matches_per_ball):
        """Balls whose candidate multiset repeats a bin (a == b) must not
        deadlock or double-commit."""
        rng = np.random.default_rng(5)
        R, n, m = 3, 6, 200
        choices = rng.integers(0, n, size=(R, m, 2))
        choices[:, ::3, 1] = choices[:, ::3, 0]  # force a == b on every 3rd ball
        matches_per_ball(run_batch_wavefront, [2] * n, choices, rng.random((R, m)),
                         tile=16)

    def test_per_replication_capacities(self, matches_per_ball):
        rng = np.random.default_rng(11)
        n, m, R = 8, 150, 4
        caps = rng.integers(1, 9, size=(R, n)).astype(np.int64)
        for d in (1, 2, 3):
            matches_per_ball(run_batch_wavefront, caps, rng.integers(0, n, size=(R, m, d)),
                             rng.random((R, m)), tile=8)

    def test_split_invariance_against_scalar(self):
        """Chained wavefront calls on one counts array equal one per-ball
        pass and the scalar loop (the driver's chunking pattern)."""
        rng = np.random.default_rng(21)
        n, m, R = 9, 120, 2
        caps = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5], dtype=np.int64)
        choices = rng.integers(0, n, size=(R, m, 2))
        tie_u = rng.random((R, m))
        whole = np.zeros((R, n), dtype=np.int64)
        run_batch_ensemble(whole, caps, choices, tie_u)
        split = np.zeros((R, n), dtype=np.int64)
        ws = WavefrontWorkspace()
        cut = 47
        run_batch_wavefront(split, caps, choices[:, :cut], tie_u[:, :cut], workspace=ws)
        run_batch_wavefront(split, caps, choices[:, cut:], tie_u[:, cut:], workspace=ws)
        np.testing.assert_array_equal(whole, split)
        for r in range(R):
            fast_counts = [0] * n
            run_batch(fast_counts, caps.tolist(), choices[r], tie_u[r])
            assert np.array_equal(split[r], fast_counts)

    def test_empty_batch_noop(self):
        counts = np.arange(6, dtype=np.int64).reshape(2, 3)
        out = run_batch_wavefront(
            counts.copy(), [1, 1, 1], np.zeros((2, 0, 2), dtype=np.int64),
            np.zeros((2, 0)),
        )
        np.testing.assert_array_equal(out, counts)

    def test_shares_kernel_validation(self):
        with pytest.raises(ValueError, match="unknown tie_break"):
            run_batch_wavefront(
                np.zeros((1, 2), dtype=np.int64), [1, 1],
                np.zeros((1, 1, 2), dtype=np.int64), np.zeros((1, 1)),
                tie_break="nope",
            )
        with pytest.raises(ValueError, match="C-contiguous"):
            run_batch_wavefront(
                np.zeros((4, 6), dtype=np.int64)[:, ::2], [1, 1, 1],
                np.zeros((4, 2, 2), dtype=np.int64), np.zeros((4, 2)),
            )
        with pytest.raises(ValueError, match="tie_uniforms"):
            run_batch_wavefront(
                np.zeros((2, 3), dtype=np.int64), [1, 1, 1],
                np.zeros((2, 4, 2), dtype=np.int64), np.zeros((2, 3)),
            )


class TestDriverIdentity:
    def test_randomised_driver_sweep(self):
        """simulate / simulate_ensemble wavefront forced == unforced, counts,
        heights and snapshots, across tie modes and seed modes."""
        assert check_driver_dispatch_identity(
            ("wavefront",), 0xD1D0, trials=8
        ) == 8

    def test_scalar_runtime_fallback_is_invisible(self, monkeypatch):
        """A run whose realised free fraction trips the runtime guard must
        still produce exactly the forced-off numbers: the fallback converts
        the R = 1 counts row back to a list mid-run, and a slicing bug
        there would corrupt the tail (counts, heights or snapshots)."""
        import repro.core.ensemble as ens

        n = 10_000  # past the R = 1 floor, so dispatch enters the wavefront
        bins = BinArray([1] * n)
        kwargs = dict(m=2000, d=2, seed=9, track_heights=True,
                      snapshot_at=[500, 2000], chunk_size=500)
        with forced_tier("rows"):
            ref = simulate(bins, **kwargs)
        # An impossible threshold trips the guard right after the first
        # chunk, so chunk 1 runs the wavefront and chunks 2-4 the loop.
        monkeypatch.setattr(ens, "RUNTIME_MIN_FREE_FRACTION", 2.0)
        monkeypatch.setattr(policy, "HAVE_NUMBA", False)
        with forced_native(False):
            res = simulate(bins, **kwargs)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_array_equal(res.heights, ref.heights)
        assert [s.max_load for s in res.snapshots] == [
            s.max_load for s in ref.snapshots
        ]

    def test_ensemble_runtime_fallback_is_invisible(self, monkeypatch):
        """Same guarantee for the ensemble driver: tripping the guard after
        the first chunk hands the rest of the run to the per-ball kernels
        without changing a bit."""
        import repro.core.ensemble as ens

        bins = BinArray([1] * 3000)
        kwargs = dict(repetitions=3, m=2000, d=2, seed=11,
                      seed_mode="blocked", track_heights=True, chunk_size=500)
        with forced_tier("lockstep"):
            ref = simulate_ensemble(bins, **kwargs)
        monkeypatch.setattr(ens, "RUNTIME_MIN_FREE_FRACTION", 2.0)
        monkeypatch.setattr(policy, "HAVE_NUMBA", False)
        with forced_native(False):
            res = simulate_ensemble(bins, **kwargs)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_array_equal(res.heights, ref.heights)


class TestDispatch:
    def test_mode_knobs(self):
        """Forced, the wavefront runs at shapes the cost model rejects."""
        assert not use_wavefront(2.0, 256, 5)
        with forced_tier("wavefront"):
            assert dispatch(2.0, 256, 5, native_fits=True) == "wavefront"
            assert dispatch(1e9, 1, 2) == "wavefront"

    def test_auto_keys_on_bins_per_lane(self):
        # large n, scalar: on; same n, very wide ensemble: off
        assert use_wavefront(10_000, 1, 2)
        assert use_wavefront(10_000, 64, 2)
        assert not use_wavefront(10_000, 128, 2)
        # small instances never dispatch (fig02-sized)
        assert not use_wavefront(32, 64, 2)
        assert not use_wavefront(100, 1, 2)
        # the ratio is keyed on n / (R * d * d)
        assert not use_wavefront(10_000, 1, 25)

    def test_scalar_floor_is_set_by_the_list_loop(self):
        """At R = 1 the per-ball tier is the ~20x faster list loop."""
        assert not use_wavefront(2000.0, 1, 2)
        assert not use_wavefront(4000.0, 1, 3)
        assert use_wavefront(10_000.0, 1, 2)  # bench floor config
        assert use_wavefront(2000.0, 5, 2)  # n_eff * R / d^2 = 2500

    def test_effective_bins(self):
        assert effective_bins(np.full(100, 0.01)) == pytest.approx(100.0)
        skew = np.zeros(1000)
        skew[0] = 1.0
        assert effective_bins(skew) == pytest.approx(1.0)

    def test_expected_free_fraction_and_tile_width(self):
        assert expected_free_fraction(10_000, 2, 64) == pytest.approx(
            1.0 - 4 * 64 / 20_000
        )
        assert expected_free_fraction(10, 4, 64) == 0.0
        w = tile_width(10_000, 1, 2)
        assert w & (w - 1) == 0 and 16 <= w <= 4096
        assert tile_width(10_000, 64, 2) < w
        assert MIN_BINS_PER_LANE > 0

    def test_stats_accumulate(self):
        rng = np.random.default_rng(3)
        R, n, m = 2, 500, 400
        choices = rng.integers(0, n, size=(R, m, 2))
        stats = WavefrontStats()
        counts = np.zeros((R, n), dtype=np.int64)
        run_batch_wavefront(counts, [1] * n, choices, rng.random((R, m)), stats=stats)
        assert stats.balls == R * m
        assert stats.chunks == 1
        assert 0.0 <= stats.free_fraction <= 1.0
        assert stats.waves >= 1


class TestWorkspace:
    def test_reuse_across_calls_changes_nothing(self):
        rng = np.random.default_rng(17)
        n, m, R = 50, 300, 3
        caps = rng.integers(1, 5, size=n).astype(np.int64)
        ws = WavefrontWorkspace()
        expected = None
        for trial in range(3):
            choices = rng.integers(0, n, size=(R, m, 2))
            tie_u = rng.random((R, m))
            fresh = np.zeros((R, n), dtype=np.int64)
            run_batch_wavefront(fresh, caps, choices, tie_u)
            shared = np.zeros((R, n), dtype=np.int64)
            run_batch_wavefront(shared, caps, choices, tie_u, workspace=ws)
            np.testing.assert_array_equal(fresh, shared, err_msg=f"trial={trial}")

    def test_per_ball_kernel_workspace(self):
        """The hoisted rbase/offsets path of run_batch_ensemble is
        bit-identical to the ad hoc one."""
        rng = np.random.default_rng(23)
        n, m, R = 20, 200, 5
        caps = rng.integers(1, 5, size=n).astype(np.int64)
        ws = WavefrontWorkspace()
        ws.prepare(R, n)
        for d in (1, 2, 3):
            choices = rng.integers(0, n, size=(R, m, d))
            tie_u = rng.random((R, m))
            plain = np.zeros((R, n), dtype=np.int64)
            run_batch_ensemble(plain, caps, choices, tie_u)
            hoisted = np.zeros((R, n), dtype=np.int64)
            run_batch_ensemble(hoisted, caps, choices, tie_u, workspace=ws)
            np.testing.assert_array_equal(plain, hoisted, err_msg=f"d={d}")

    def test_buffers_are_cached(self):
        ws = WavefrontWorkspace()
        ws.prepare(2, 10)
        assert ws.buf("x", (2, 4), np.int64) is ws.buf("x", (2, 4), np.int64)
        assert ws.rbase(2) is ws.rbase(2)
        assert ws.row_offsets(2, 10) is ws.row_offsets(2, 10)


class TestEnsembleDriverDispatch:
    def test_forced_on_matches_forced_off_large_n(self):
        """At a dispatch-eligible size the auto path must take the
        wavefront and still reproduce the per-ball numbers exactly."""
        bins = BinArray([1] * 3000)
        with forced_tier("lockstep"):
            off = simulate_ensemble(bins, repetitions=3, m=1500, seed=4,
                                    seed_mode="blocked", track_heights=True)
        with forced_native(False):
            assert dispatch(3000.0, 3, 2) in ("wavefront", "compiled")
            auto = simulate_ensemble(bins, repetitions=3, m=1500, seed=4,
                                     seed_mode="blocked", track_heights=True)
        np.testing.assert_array_equal(auto.counts, off.counts)
        np.testing.assert_array_equal(auto.heights, off.heights)
