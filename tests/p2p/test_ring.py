"""Tests for the consistent-hashing ring."""

import math

import numpy as np
import pytest

from repro.p2p import ConsistentHashRing, RingPeer


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one peer"):
            ConsistentHashRing([])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            ConsistentHashRing(["a", "a"])

    def test_accepts_strings(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.n_peers == 3

    def test_virtual_nodes_multiply_positions(self):
        ring = ConsistentHashRing([RingPeer("a", virtual_nodes=5)])
        assert ring.positions.size == 5

    def test_rejects_bad_virtual_nodes(self):
        with pytest.raises(ValueError):
            RingPeer("a", virtual_nodes=0)

    def test_random_factory(self):
        ring = ConsistentHashRing.random(10, seed=0)
        assert ring.n_peers == 10

    def test_random_reproducible(self):
        a = ConsistentHashRing.random(5, seed=3)
        b = ConsistentHashRing.random(5, seed=3)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestLookup:
    def test_positions_sorted(self):
        ring = ConsistentHashRing.random(50, seed=1)
        assert np.all(np.diff(ring.positions) >= 0)

    def test_lookup_returns_valid_peer(self):
        ring = ConsistentHashRing.random(20, seed=2)
        for p in (0.0, 0.3, 0.99999):
            assert 0 <= ring.lookup(p) < 20

    def test_wraparound(self):
        """A point after the last position maps to the first position's
        owner (anti-clockwise successor)."""
        ring = ConsistentHashRing.random(10, seed=3)
        last = float(ring.positions[-1])
        point = (last + 1.0) / 2.0  # strictly beyond every position
        assert ring.lookup(point) == ring.lookup(0.0)

    def test_point_modulo(self):
        ring = ConsistentHashRing.random(10, seed=4)
        assert ring.lookup(1.25) == ring.lookup(0.25)

    def test_lookup_key_stable(self):
        ring = ConsistentHashRing.random(10, seed=5)
        assert ring.lookup_key("file-42") == ring.lookup_key("file-42")

    def test_scalar_lookup_equals_batch_lookup(self):
        """The bisect scalar path and the searchsorted batch path agree on
        random points, exact virtual positions (ties go to that position's
        owner), out-of-range points and the wrap past the last position."""
        ring = ConsistentHashRing.random(25, virtual_nodes=3, seed=6)
        pos = ring.positions
        points = np.concatenate([
            np.random.default_rng(0).random(2000),
            pos, np.nextafter(pos, 1.0), np.nextafter(pos, 0.0),
            [0.0, 1.0, -0.25, 1.75, -1e-300, pos[-1] + 1e-12],
        ])
        scalar = [ring.lookup(float(p)) for p in points]
        assert scalar == ring.lookup_batch(points).tolist()
        assert all(type(i) is int for i in scalar)


class TestArcs:
    def test_lengths_sum_to_one(self):
        ring = ConsistentHashRing.random(30, seed=6)
        assert ring.arc_lengths().sum() == pytest.approx(1.0)

    def test_lengths_positive(self):
        ring = ConsistentHashRing.random(30, seed=7)
        assert (ring.arc_lengths() > 0).all()

    def test_imbalance_at_least_one(self):
        ring = ConsistentHashRing.random(100, seed=8)
        assert ring.arc_imbalance() >= 1.0

    def test_imbalance_log_scale(self):
        """The paper cites max arc up to log(n) times the average; the
        random ring's imbalance should be within a few multiples of ln n."""
        n = 200
        ring = ConsistentHashRing.random(n, seed=9)
        assert ring.arc_imbalance() <= 4 * math.log(n)

    def test_virtual_nodes_reduce_imbalance(self):
        plain = ConsistentHashRing.random(100, virtual_nodes=1, seed=10)
        virt = ConsistentHashRing.random(100, virtual_nodes=32, seed=10)
        assert virt.arc_imbalance() < plain.arc_imbalance()

    def test_single_peer_owns_everything(self):
        ring = ConsistentHashRing(["only"])
        np.testing.assert_allclose(ring.arc_lengths(), [1.0])


class TestAsBinArray:
    def test_total_close_to_resolution(self):
        ring = ConsistentHashRing.random(20, seed=11)
        bins = ring.as_bin_array(resolution=1000)
        assert bins.n == 20
        assert abs(bins.total_capacity - 1000) <= 20  # rounding slack

    def test_min_capacity_one(self):
        ring = ConsistentHashRing.random(50, seed=12)
        bins = ring.as_bin_array(resolution=100)
        assert bins.capacities.min() >= 1

    def test_rejects_low_resolution(self):
        ring = ConsistentHashRing.random(50, seed=13)
        with pytest.raises(ValueError):
            ring.as_bin_array(resolution=10)

    def test_capacities_proportional_to_arcs(self):
        ring = ConsistentHashRing.random(10, seed=14)
        arcs = ring.arc_lengths()
        caps = ring.as_bin_array(resolution=10_000).capacities
        corr = np.corrcoef(arcs, caps)[0, 1]
        assert corr > 0.999


class TestLookupBatch:
    """The vectorised lookup is bit-identical to per-point lookup."""

    def test_randomized_identity_with_lookup(self):
        rng = np.random.default_rng(11)
        for seed, vnodes in [(0, 1), (1, 1), (2, 4)]:
            ring = ConsistentHashRing.random(37, virtual_nodes=vnodes, seed=seed)
            pts = rng.random(2000)
            batch = ring.lookup_batch(pts)
            serial = np.array([ring.lookup(float(p)) for p in pts])
            np.testing.assert_array_equal(batch, serial)

    def test_boundary_points_identity(self):
        ring = ConsistentHashRing.random(25, seed=5)
        pos = ring.positions
        pts = np.concatenate([
            pos,                                   # exactly at a position
            np.nextafter(pos, 1.0),                # just past a position
            [0.0, np.nextafter(1.0, 0.0)],         # interval ends
            [pos[-1] + (1.0 - pos[-1]) / 2],       # past the last position
        ])
        batch = ring.lookup_batch(pts)
        serial = np.array([ring.lookup(float(p)) for p in pts])
        np.testing.assert_array_equal(batch, serial)

    def test_out_of_range_points_wrap_like_lookup(self):
        # The pre-fix inline vectorisation in p2p.workload wrapped every
        # out-of-range point to the first virtual position instead of
        # reducing modulo 1 the way ring.lookup does.
        ring = ConsistentHashRing.random(25, seed=5)
        pts = np.array([1.0, 1.2, 2.7, -0.3, -1e-20, -2.0])
        batch = ring.lookup_batch(pts)
        serial = np.array([ring.lookup(float(p)) for p in pts])
        np.testing.assert_array_equal(batch, serial)

    def test_preserves_shape(self):
        ring = ConsistentHashRing.random(10, seed=1)
        out = ring.lookup_batch(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_single_peer_ring_always_peer_zero(self):
        ring = ConsistentHashRing(["solo"])
        pts = np.linspace(0.0, 0.999, 17)
        assert (ring.lookup_batch(pts) == 0).all()
