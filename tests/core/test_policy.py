"""Kernel policy suite: one env parser, one override, one dispatch, and
the cost model that picks each benchmarked shape's tier."""

import numpy as np
import pytest

from repro.bins.generators import two_class_bins, two_class_mix_bins
from repro.core import compiled, policy, wavefront
from repro.core.policy import (
    CHOICES,
    ENV_VARS,
    HAVE_NUMBA,
    KernelPolicy,
    current_policy,
    dispatch,
    effective_bins,
    expected_free_fraction,
    forced_policy,
    tile_width,
    use_rows,
)

#: Per field: valid raw values with what they parse to, then invalid ones.
_VALUES = {
    "backend": ({v: v for v in CHOICES["backend"]}, ("fortran",)),
    "wavefront": ({v: v for v in CHOICES["wavefront"]}, ("sometimes",)),
}


@pytest.fixture
def clean_env(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("field", sorted(ENV_VARS))
def test_env_var(monkeypatch, field):
    """Valid values are honoured from the env and from forced_policy; an
    invalid env value reads as auto (a knob degrades, it never crashes a
    run), an invalid forced one raises."""
    valid, invalid = _VALUES[field]
    for raw, parsed in valid.items():
        monkeypatch.setenv(ENV_VARS[field], raw)
        assert getattr(current_policy(), field) == parsed
        with forced_policy(**{field: raw}) as policy:
            assert getattr(policy, field) == parsed
    for raw in invalid:
        monkeypatch.setenv(ENV_VARS[field], raw)
        assert getattr(current_policy(), field) == "auto"
        with pytest.raises(ValueError), forced_policy(**{field: raw}):
            pass


def test_forced_policy_restores_on_raise(clean_env):
    with forced_policy(backend="numpy"):
        with pytest.raises(RuntimeError):
            with forced_policy(backend="compiled", wavefront="off"):
                raise RuntimeError("boom")
        assert current_policy() == KernelPolicy(backend="numpy")
    assert current_policy() == KernelPolicy()


def test_stamp_getters_default(clean_env):
    """The benchmark stamp's five reads: numpy (without numba), auto,
    auto, 1, auto."""
    assert compiled.use_compiled() is HAVE_NUMBA
    assert compiled.get_backend() == "auto"
    assert str(compiled.get_threads()) == "auto"
    assert compiled.worker_thread_budget() == "1"
    assert wavefront.get_mode() == "auto"



def _n_eff(caps):
    """Collision-equivalent bin count of proportional selection."""
    from repro.sampling.distributions import probability_model

    sampler = probability_model("proportional").sampler(np.asarray(caps))
    return effective_bins(sampler.probabilities)


def _tier(n_eff, R, d):
    return dispatch(KernelPolicy(backend="numpy"), n_eff, R, d)


class TestCostModel:
    """The tier each benchmarked shape takes under the default policy."""

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
                     and expected_free_fraction(n_eff, 1, d, width) >= 0.5)
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
