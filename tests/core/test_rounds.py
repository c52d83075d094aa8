"""Tests for batched arrivals with stale loads."""

import numpy as np
import pytest

from repro.bins import two_class_bins, uniform_bins
from repro.core import simulate, simulate_batched


class TestValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            simulate_batched(uniform_bins(4), batch_size=0)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            simulate_batched(uniform_bins(4), d=0)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            simulate_batched(uniform_bins(4), m=-1)


class TestSemantics:
    def test_conservation(self):
        bins = two_class_bins(5, 5, 1, 4)
        res = simulate_batched(bins, m=100, batch_size=7, seed=0)
        assert res.counts.sum() == 100

    def test_default_m_is_capacity(self):
        bins = uniform_bins(10, 3)
        assert simulate_batched(bins, seed=0).m == 30

    def test_batch_one_matches_sequential_statistically(self):
        """batch_size=1 is the sequential protocol; mean max loads agree."""
        bins = uniform_bins(200, 1)
        seq = np.mean([simulate(bins, seed=s).max_load for s in range(20)])
        b1 = np.mean([simulate_batched(bins, batch_size=1, seed=s).max_load for s in range(20)])
        assert b1 == pytest.approx(seq, abs=0.3)

    def test_staleness_degrades_balance(self):
        """Larger batches -> staler views -> higher max load (monotone in
        expectation across the extremes)."""
        bins = uniform_bins(300, 1)
        fresh = np.mean(
            [simulate_batched(bins, batch_size=1, seed=s).max_load for s in range(15)]
        )
        stale = np.mean(
            [simulate_batched(bins, batch_size=300, seed=s).max_load for s in range(15)]
        )
        assert stale > fresh

    def test_full_batch_between_one_and_two_choice(self):
        """Even a fully stale batch retains some benefit over one-choice:
        duplicate candidate pairs still avoid committed collisions only by
        chance, so the max load sits at or above the fresh two-choice value
        and at or below one-choice."""
        from repro.core import one_choice

        bins = uniform_bins(300, 1)
        stale = np.mean(
            [simulate_batched(bins, batch_size=300, seed=s).max_load for s in range(15)]
        )
        single = np.mean([one_choice(bins, seed=s).max_load for s in range(15)])
        assert stale <= single + 0.3

    def test_heterogeneous_batches(self):
        bins = two_class_bins(50, 50, 1, 8)
        res = simulate_batched(bins, batch_size=64, seed=3)
        assert res.counts.sum() == bins.total_capacity
        assert res.max_load < 6.0


class TestBatchedEnsemble:
    """Lockstep counterpart of simulate_batched (simulate_batched_ensemble)."""

    def test_spawn_parity_with_scalar(self):
        """Replication r == simulate_batched(seed=child_r), any batch size."""
        from repro.core import simulate_batched_ensemble
        from repro.sampling.rngutils import spawn_seed_sequences

        bins = two_class_bins(4, 4, 1, 6)
        for batch in (1, 7, 48):
            ens = simulate_batched_ensemble(
                bins, repetitions=3, m=48, batch_size=batch, seed=11
            )
            for r, child in enumerate(spawn_seed_sequences(11, 3)):
                sc = simulate_batched(bins, m=48, batch_size=batch, seed=child)
                np.testing.assert_array_equal(
                    ens.counts[r], sc.counts, err_msg=f"batch={batch} rep={r}"
                )

    def test_blocked_mode_deterministic_and_conserving(self):
        from repro.core import simulate_batched_ensemble

        bins = uniform_bins(6, 2)
        a = simulate_batched_ensemble(
            bins, repetitions=5, m=40, batch_size=8, seed=3, seed_mode="blocked"
        )
        b = simulate_batched_ensemble(
            bins, repetitions=5, m=40, batch_size=8, seed=3, seed_mode="blocked"
        )
        np.testing.assert_array_equal(a.counts, b.counts)
        assert (a.counts.sum(axis=1) == 40).all()
        assert a.tie_break == "max_capacity"

    def test_validation(self):
        from repro.core import simulate_batched_ensemble

        bins = uniform_bins(4)
        with pytest.raises(ValueError, match="repetitions"):
            simulate_batched_ensemble(bins)
        with pytest.raises(ValueError, match="batch_size"):
            simulate_batched_ensemble(bins, repetitions=2, batch_size=0)
        with pytest.raises(ValueError, match="seed_mode"):
            simulate_batched_ensemble(bins, repetitions=2, seed_mode="nope")
        with pytest.raises(ValueError, match="blocked"):
            simulate_batched_ensemble(bins, seeds=[1, 2], seed_mode="blocked")
        with pytest.raises(ValueError, match="contradicts"):
            simulate_batched_ensemble(bins, repetitions=3, seeds=[1, 2])


class TestDecisionKernels:
    """``stale_choice`` (the scalar loop) and ``_resolve_stale_batch`` (its
    lockstep form) make the same decision for every ball."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lockstep_kernel_equals_scalar_loop(self, d):
        from repro.core.rounds import _resolve_stale_batch, stale_choice

        rng = np.random.default_rng(d)
        n, R, k = 6, 3, 200
        # Few bins, small loads and capacities: many exact ties and
        # duplicated candidates, so every branch of the tie pipeline runs.
        counts = rng.integers(0, 4, (R, n))
        caps = rng.integers(1, 4, n)
        choices = rng.integers(0, n, (R, k, d))
        tie_u = rng.random((R, k))
        got = _resolve_stale_batch(counts, caps, choices, tie_u)
        for r in range(R):
            loads, cap_list = counts[r].tolist(), caps.tolist()
            expected = [stale_choice(row, loads, cap_list, u)
                        for row, u in zip(choices[r].tolist(), tie_u[r].tolist())]
            assert got[r].tolist() == expected
