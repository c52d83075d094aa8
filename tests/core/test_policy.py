"""Kernel policy suite: one dispatch, one forcing hook that names the
tier to run, and the cost model that picks each benchmarked shape's tier.

The tiers are bit-identical, so an identity check still passes when a
forcing hook does nothing; the spy tests below check that each forced
tier's entry point is what runs.
"""

from contextlib import nullcontext

import numpy as np
import pytest

import repro.core.ensemble as ens_module
from repro import native
from repro.bins import BinArray
from repro.bins.generators import two_class_bins, two_class_mix_bins
from repro.core import compiled, policy, wavefront
from repro.core.ensemble import simulate_ensemble
from repro.core.equivalence import forced_native
from repro.core.policy import (
    HAVE_NUMBA,
    TIERS,
    dispatch,
    effective_bins,
    expected_free_fraction,
    forced,
    forced_tier,
    tile_width,
    use_rows,
)


def test_forced_tier_restores_on_raise():
    with forced_tier("rows"):
        with pytest.raises(RuntimeError):
            with forced_tier("wavefront"):
                assert forced() == "wavefront"
                raise RuntimeError("boom")
        assert forced() == "rows"
    assert forced() is None


def test_forced_tier_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown tier"):
        with forced_tier("numpy"):
            pass
    assert forced() is None


def test_stamp_getters_default():
    """The benchmark stamp's five reads: numpy (without numba), auto,
    auto, 1, auto."""
    assert compiled.use_compiled() is HAVE_NUMBA
    assert compiled.get_backend() == "auto"
    assert str(compiled.get_threads()) == "auto"
    assert compiled.worker_thread_budget() == "1"
    assert wavefront.get_mode() == "auto"


def _stamp_and_tiers():
    shapes = [(2.0, 5, 2), (2.0, 100, 2), (1e6, 20, 2), (1e6, 1, 1)]
    return ((compiled.use_compiled(), compiled.get_backend(),
             compiled.get_threads(), compiled.worker_thread_budget(),
             wavefront.get_mode()),
            [dispatch(*shape, native_fits=fits) for shape in shapes
             for fits in (False, True)])


def test_environment_changes_nothing(monkeypatch):
    """No variable of the environment steers dispatch or the stamp: the
    variables the retired settings read are inert."""
    for var in ("REPRO_BACKEND", "REPRO_WAVEFRONT"):
        monkeypatch.delenv(var, raising=False)
    before = _stamp_and_tiers()
    monkeypatch.setenv("REPRO_BACKEND", "compiled")
    monkeypatch.setenv("REPRO_WAVEFRONT", "on")
    assert _stamp_and_tiers() == before


#: The plain driver's entry point per tier, as `simulate_ensemble` calls
#: it (the native tier runs fused chunks, or `run_rows` where the draw
#: probe failed).
_ENTRY_POINTS = {
    "native": [(native.FusedChunks, "run"), (native, "run_rows")],
    "compiled": [(ens_module, "run_batch_compiled")],
    "wavefront": [(ens_module, "run_batch_wavefront")],
    "rows": [(ens_module, "run_batch")],
    "lockstep": [(ens_module, "run_batch_ensemble")],
}


def _spy_entry_points(monkeypatch):
    """Count calls of every tier's entry point: ``{tier: calls}``."""
    calls = dict.fromkeys(_ENTRY_POINTS, 0)
    for tier, points in _ENTRY_POINTS.items():
        for owner, name in points:
            real = getattr(owner, name)

            def spy(*args, _tier=tier, _real=real, **kwargs):
                calls[_tier] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
    return calls


class TestForcedTierRuns:
    """On the plain driver, ``forced_tier(t)`` calls t's entry point and
    no other; unforced, the shape picks the tier."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("seed_mode", ["spawn", "blocked"])
    def test_plain_driver_runs_the_named_tier(self, tier, seed_mode, monkeypatch):
        if tier == "native" and not native.available():
            pytest.skip(f"native tier unavailable: {native.status()}")
        calls = _spy_entry_points(monkeypatch)
        # R = 4 on five bins: unforced, the shape would take native, else
        # rows; every chunk must run the forced tier instead.
        with forced_tier(tier):
            simulate_ensemble(BinArray([1, 2, 3, 4, 2]), repetitions=4, m=90,
                              seed=1, seed_mode=seed_mode, chunk_size=40)
        assert calls[tier] > 0, f"{tier} never ran: {calls}"
        assert sum(calls.values()) == calls[tier], f"{tier} forced: {calls}"

    @pytest.mark.parametrize("tier", [None, "native"])
    def test_unforced_or_native_picks_by_shape(self, tier, monkeypatch):
        """Unforced and forced native (where the library does not load)
        both run the shape's choice: native where it loads, else rows at
        R = 4 on five bins."""
        calls = _spy_entry_points(monkeypatch)
        with forced_tier(tier) if tier else nullcontext():
            simulate_ensemble(BinArray([1, 2, 3, 4, 2]), repetitions=4, m=90,
                              seed=1)
        ran = {t for t, n in calls.items() if n}
        expected = ("native" if native.available()
                    else "compiled" if HAVE_NUMBA else "rows")
        assert ran == {expected}
        with forced_native(False):
            assert dispatch(5.0, 4, 2, native_fits=True) == (
                "compiled" if HAVE_NUMBA else "rows")

    def test_forced_tier_skips_the_runtime_guard(self, monkeypatch):
        """The wavefront's runtime guard hands an unforced run to the
        per-ball tier; a forced wavefront runs every chunk."""
        calls = _spy_entry_points(monkeypatch)
        monkeypatch.setattr(ens_module, "RUNTIME_MIN_FREE_FRACTION", 2.0)
        with forced_tier("wavefront"):
            simulate_ensemble(BinArray([1] * 50), repetitions=3, m=200,
                              seed=2, chunk_size=50)
        assert calls["wavefront"] == 4 and sum(calls.values()) == 4


class TestDispatch:
    @pytest.mark.parametrize("tier", TIERS[1:])
    def test_other_tiers_turn_native_off(self, tier):
        with forced_tier(tier):
            assert not policy.use_native(True)
            assert dispatch(100.0, 5, 2, native_fits=True) == tier

    def test_lockstep_at_one_row_runs_rows(self):
        with forced_tier("lockstep"):
            assert dispatch(100.0, 1, 2) == "rows"
            assert dispatch(100.0, 2, 2) == "lockstep"
            assert not use_rows(2, 2, weighted=True)
        with forced_tier("rows"):
            assert use_rows(1000, 2) and use_rows(1000, 2, weighted=True)

    @pytest.mark.parametrize("tier", [None, *TIERS])
    @pytest.mark.parametrize("R", [1, 5, 100])
    def test_inexact_run_takes_rows_whatever_is_forced(self, tier, R):
        with forced_tier(tier) if tier else nullcontext():
            assert dispatch(1e6, R, 2, native_fits=False, exact=False) == "rows"


def _n_eff(caps):
    """Collision-equivalent bin count of proportional selection."""
    from repro.sampling.distributions import probability_model

    sampler = probability_model("proportional").sampler(np.asarray(caps))
    return effective_bins(sampler.probabilities)


def _tier(n_eff, R, d):
    return dispatch(n_eff, R, d)


class TestCostModel:
    """The tier each benchmarked shape takes among the NumPy tiers."""

    @pytest.fixture(autouse=True)
    def _numpy_tiers(self, monkeypatch):
        monkeypatch.setattr(policy, "HAVE_NUMBA", False)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_abl_d_runs_rows(self, d):
        """abl_d: R = 5 on n = 2000 bins of capacity 1 and 8."""
        n_eff = _n_eff(two_class_bins(1000, 1000, 1, 8).capacities)
        assert _tier(n_eff, 5, d) == "rows"

    def test_abl_d_one_choice_keeps_the_wavefront(self):
        n_eff = _n_eff(two_class_bins(1000, 1000, 1, 8).capacities)
        assert _tier(n_eff, 5, 1) == "wavefront"

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_fig04_runs_lockstep(self, capacity):
        """fig04: R = 100 on n = 32 uniform bins."""
        assert _tier(_n_eff([capacity] * 32), 100, 2) == "lockstep"

    @pytest.mark.parametrize("caps", [[1] * 32, [1] * 16 + [2] * 16, [4] * 32])
    def test_sweep_blocks_run_lockstep(self, caps):
        """sweep: fig02/fig03/fig10 in R = 64 blocks of 32 bins."""
        assert _tier(_n_eff(caps), 64, 2) == "lockstep"

    @pytest.mark.parametrize("n_large", [0, 2500, 5000, 7500, 10_000])
    def test_fig11_runs_the_wavefront(self, n_large):
        """fig11: R = 20 on n = 10^4 bins of capacity 1 and 8."""
        caps = two_class_mix_bins(10_000, n_large, 1, 8).capacities
        assert _tier(_n_eff(caps), 20, 2) == "wavefront"

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n_eff", [2.0, 32.0, 500.0, 1999.0, 2000.0, 8000.0,
                                       9000.0, 32_000.0, 1e5, 1e6])
    def test_one_row_is_unchanged(self, n_eff, d):
        """R = 1 (the scalar engine, fig06) keeps its floor:
        ``n_eff / d^2 >= 2000`` plus the free-fraction test, else rows."""
        width = tile_width(n_eff, 1, d)
        wavefront = (n_eff / (d * d) >= 2000.0
                     and expected_free_fraction(n_eff, d, width) >= 0.5)
        assert _tier(n_eff, 1, d) == ("wavefront" if wavefront else "rows")

    def test_crossover(self):
        """Rows below ``ROWS_CROSSOVER + 2 d`` replications, lockstep from
        there; the weighted driver has its own crossover, and R = 1 is
        always rows."""
        for d in (1, 2, 3, 8):
            edge = policy.ROWS_CROSSOVER + 2 * d
            assert use_rows(edge - 1, d) and not use_rows(edge, d)
            assert _tier(2.0, edge - 1, d) == "rows"
            assert _tier(2.0, edge, d) == "lockstep"
        edge = policy.WEIGHTED_ROWS_CROSSOVER
        assert use_rows(edge - 1, 8, weighted=True)
        assert not use_rows(edge, 1, weighted=True)
        assert use_rows(1, 100) and use_rows(1, 1, weighted=True)
