"""Tests for baseline allocation strategies."""

import numpy as np
import pytest

from repro.bins import two_class_bins, uniform_bins
from repro.core import one_choice, standard_greedy


class TestOneChoice:
    def test_conservation(self):
        bins = two_class_bins(10, 10, 1, 4)
        res = one_choice(bins, m=500, seed=0)
        assert res.counts.sum() == 500
        assert res.d == 1

    def test_default_m(self):
        bins = uniform_bins(20, 2)
        assert one_choice(bins, seed=0).m == 40

    def test_proportional_frequencies(self):
        """Big bin (cap 9 of 10 total) receives ~90% of single-choice balls."""
        bins = two_class_bins(1, 1, 1, 9)
        res = one_choice(bins, m=20_000, seed=1)
        assert res.counts[1] / res.m == pytest.approx(0.9, abs=0.02)

    def test_uniform_probability_option(self):
        bins = two_class_bins(1, 1, 1, 9)
        res = one_choice(bins, m=20_000, probabilities="uniform", seed=2)
        assert res.counts[0] / res.m == pytest.approx(0.5, abs=0.02)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            one_choice(uniform_bins(5), m=-1)

    def test_worse_than_two_choice(self):
        """The power of two choices: d=2 beats d=1 on max load (standard
        game, seeded comparison of means)."""
        from repro.core import simulate

        bins = uniform_bins(500, 1)
        ones = np.mean([one_choice(bins, seed=s).max_load for s in range(10)])
        twos = np.mean([simulate(bins, seed=s).max_load for s in range(10)])
        assert twos < ones


class TestStandardGreedy:
    def test_unit_bins(self):
        res = standard_greedy(100, seed=0)
        assert res.bins.is_uniform()
        assert res.bins[0] == 1
        assert res.m == 100

    def test_loglog_regime(self):
        """Max load for n=m=2000, d=2 stays within lnln(n)/ln2 + 3."""
        import math

        res = standard_greedy(2000, seed=1)
        bound = math.log(math.log(2000)) / math.log(2) + 3
        assert res.max_load <= bound
