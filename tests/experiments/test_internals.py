"""Tests for experiment-module internals and edge branches."""

import numpy as np
import pytest

from repro.experiments import run_experiment


class TestFig16Internals:
    def test_capacity_tiling_above_mean_eight(self):
        """CAP multipliers above 8 tile the binomial construction; the
        realised mean capacity must track the multiplier."""
        from repro.experiments.fig16_heavy import _ensemble_block

        gaps = _ensemble_block(
            [np.random.SeedSequence(0)], n=400, cap_multiplier=10, rounds=3, d=2
        ).profile().mean
        assert gaps.shape == (3,)
        assert np.isfinite(gaps).all()

    def test_multiplier_within_range_uses_binomial(self):
        from repro.experiments.fig16_heavy import _ensemble_block

        gaps = _ensemble_block(
            [np.random.SeedSequence(1)], n=400, cap_multiplier=2, rounds=2, d=2
        ).profile().mean
        assert gaps.shape == (2,)


class TestSnapshotHelper:
    def test_normalise_rejects_out_of_range(self):
        from repro.core.ensemble import _normalise_snapshot_points

        with pytest.raises(ValueError):
            _normalise_snapshot_points([5], 4)

    def test_normalise_sorts_and_dedups(self):
        from repro.core.ensemble import _normalise_snapshot_points

        assert _normalise_snapshot_points([3, 1, 3], 5) == [1, 3]

    def test_none_gives_empty(self):
        from repro.core.ensemble import _normalise_snapshot_points

        assert _normalise_snapshot_points(None, 10) == []


class TestMigrationTargets:
    def test_largest_remainder_exactness(self):
        from repro.bins import BinArray
        from repro.core.migration import _targets

        bins = BinArray([1, 1, 1])
        t = _targets(10, bins)
        assert t.sum() == 10
        assert t.max() - t.min() <= 1

    def test_proportionality(self):
        from repro.bins import BinArray
        from repro.core.migration import _targets

        bins = BinArray([1, 9])
        t = _targets(100, bins)
        np.testing.assert_array_equal(t, [10, 90])

    def test_remainder_ties_prefer_larger_capacity(self):
        from repro.bins import BinArray
        from repro.core.migration import _targets

        # exact shares 0.5/0.5 of one ball: the capacity-2 bin gets it
        bins = BinArray([2, 2, 4])
        t = _targets(2, bins)
        assert t.sum() == 2
        assert t[2] >= t[0]


class TestCliRenderEdge:
    def test_run_renders_nan_series(self, capsys):
        """fig13's partial-class NaN padding must render, not crash."""
        from repro.cli import main

        code = main(["run", "fig13", "--scale", "0.0003", "--seed", "3"])
        assert code == 0
        assert "legend" in capsys.readouterr().out


class TestRegistryDuplicateGuard:
    def test_double_registration_rejected(self):
        from repro.experiments.base import register

        with pytest.raises(ValueError, match="twice"):
            register("fig01", "dup", "Figure 1", "dup")(lambda **kw: None)


class TestScalarEnginePlacement:
    """The scalar engine runs one repetition per block, locally: its
    blocks take no checkpoint slot and are leased to no sweep fabric."""

    def test_scalar_blocks_skip_checkpoints_and_fabric(self, monkeypatch):
        from repro.experiments.fig02_05_small_heavy import run_fig02
        from repro.runtime.fabric import FabricSession

        class NoSlots:
            def slot(self):
                raise AssertionError("a scalar-engine run took a checkpoint slot")

        def no_lease(*args, **kwargs):
            raise AssertionError("a scalar-engine run leased fabric blocks")

        reference = run_fig02(engine="scalar", repetitions=3, seed=1)
        monkeypatch.setattr(FabricSession, "run_blocks", no_lease)
        session = FabricSession(0)
        try:
            with session.activate():
                result = run_fig02(
                    engine="scalar", repetitions=3, seed=1, checkpoint=NoSlots()
                )
                # The same session does receive the ensemble engine's blocks.
                with pytest.raises(AssertionError, match="leased fabric"):
                    run_fig02(engine="ensemble", repetitions=3, seed=1)
        finally:
            session.close()
        for name in reference.series:
            assert result.series[name].tobytes() == reference.series[name].tobytes()
