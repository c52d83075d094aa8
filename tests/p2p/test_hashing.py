"""Tests for deterministic hashing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p import hash_key, hash_to_unit, point_sequence, splitmix64
from repro.p2p.hashing import _BULK_KEY_BYTES, point_sequences


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_bijective_sample(self):
        outs = {splitmix64(i) for i in range(10_000)}
        assert len(outs) == 10_000

    def test_64_bit_range(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64


class TestHashKey:
    def test_types(self):
        for key in (42, "peer-1", b"raw"):
            v = hash_key(key)
            assert 0 <= v < 2**64

    def test_salt_changes_value(self):
        assert hash_key("k", salt=0) != hash_key("k", salt=1)

    def test_long_strings_mixed(self):
        a = hash_key("a" * 100)
        b = hash_key("a" * 99 + "b")
        assert a != b

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            hash_key(3.14)

    def test_stable_across_runs(self):
        """Values must not depend on PYTHONHASHSEED — pin one output."""
        assert hash_key("chord") == hash_key("chord")
        assert isinstance(hash_key("chord"), int)


class TestHashToUnit:
    def test_range(self):
        vals = [hash_to_unit(i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_approximately_uniform(self):
        vals = np.array([hash_to_unit(i) for i in range(20_000)])
        hist, _ = np.histogram(vals, bins=10, range=(0, 1))
        assert hist.min() > 1500


class TestPointSequence:
    def test_count(self):
        assert len(point_sequence("req", 4)) == 4

    def test_points_distinct(self):
        pts = point_sequence("req", 8)
        assert len(set(pts)) == 8

    def test_deterministic(self):
        assert point_sequence("req", 3) == point_sequence("req", 3)

    def test_prefix_property(self):
        assert point_sequence("req", 5)[:3] == point_sequence("req", 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            point_sequence("req", -1)


#: Values produced by the original per-salt ``hash_to_unit`` implementation,
#: pinning the refactored scalar path (and with it the vectorised one).
GOLDEN_POINTS = {
    "obj-1": [0.4597112854850939, 0.26705794461425486, 0.47341773627567457],
    "obj-123456789": [0.9794847263608218, 0.2225287341659909, 0.3158173077414568],
    "": [0.36818951565166946, 0.39221646242353186, 0.7375181681915192],
    "é漢😀\x00": [0.8211510846074656, 0.06929078129772163, 0.6710416367469514],
    b"raw-bytes-17-long": [0.5170221841068109, 0.2915770520386857, 0.6401842505882276],
    -5: [0.8079644780750674, 0.9733802238340212, 0.9058915080443624],
    2**70: [0.36818951565166946, 0.39221646242353186, 0.7375181681915192],
    True: [0.9140224628703029, 0.8766756214195504, 0.9230401474946464],
}

#: Edge keys of the lane fold: empty, exact 8/16-byte lengths, one byte
#: past a lane, embedded and trailing NULs, multi-byte UTF-8 straddling a
#: lane boundary.
EDGE_KEYS = [
    "", "a", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq",
    "\x00", "\x00" * 8, "\x00" * 16, "abc\x00def", "abcdefg\x00", "abcdefgh\x00",
    "abcdefg€", "abcdefgé", "😀" * 2, "😀" * 4, "漢" * 5 + "\x00",
]


def _bits(points):
    return np.asarray(points, dtype=np.float64).view(np.uint64)


class TestPointSequenceGolden:
    @pytest.mark.parametrize("key", list(GOLDEN_POINTS), ids=repr)
    def test_matches_original_values(self, key):
        assert point_sequence(key, 3) == GOLDEN_POINTS[key]
        assert point_sequence(key, 3) == [hash_to_unit(key, salt=i + 1)
                                          for i in range(3)]

    def test_more_probes_than_cached_salts(self):
        key = "obj-7"
        assert point_sequence(key, 12) == [hash_to_unit(key, salt=i + 1)
                                           for i in range(12)]


class TestPointSequences:
    """The vectorised hash equals the scalar one bit for bit."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 9])
    def test_edge_keys(self, d):
        got = point_sequences(EDGE_KEYS, d)
        assert got.shape == (len(EDGE_KEYS), d)
        expected = [point_sequence(k, d) for k in EDGE_KEYS]
        assert (_bits(got) == _bits(expected).reshape(len(EDGE_KEYS), d)).all()

    def test_golden_keys_in_one_mixed_batch(self):
        keys = list(GOLDEN_POINTS)
        got = point_sequences(keys, 3)
        assert (_bits(got) == _bits([GOLDEN_POINTS[k] for k in keys])).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=40), max_size=60), st.integers(1, 4))
    def test_unicode_strings(self, keys, d):
        expected = np.asarray([point_sequence(k, d) for k in keys]).reshape(len(keys), d)
        assert (_bits(point_sequences(keys, d)) == _bits(expected)).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=40),
        st.integers(min_value=-2**80, max_value=2**80),
        st.booleans(),
        st.binary(max_size=40),
    ), max_size=60), st.integers(1, 4))
    def test_mixed_key_types(self, keys, d):
        expected = np.asarray([point_sequence(k, d) for k in keys]).reshape(len(keys), d)
        assert (_bits(point_sequences(keys, d)) == _bits(expected)).all()

    def test_empty_batch(self):
        assert point_sequences([], 2).shape == (0, 2)

    def test_rejects_bad_key_type_like_scalar(self):
        with pytest.raises(TypeError, match="key must be"):
            point_sequences(["ok", 1.5], 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            point_sequences(["k"], -1)

    def test_keys_past_the_bulk_width_fold_exactly(self):
        n = _BULK_KEY_BYTES
        keys = ["k", "x" * (n - 1), "x" * n, "x" * (n + 1), "é" * n, "y" * 5000, "z"]
        expected = np.asarray([point_sequence(k, 3) for k in keys])
        assert (_bits(point_sequences(keys, 3)) == _bits(expected)).all()
        mixed = keys + [b"b" * 300, 7]
        expected = np.asarray([point_sequence(k, 2) for k in mixed])
        assert (_bits(point_sequences(mixed, 2)) == _bits(expected)).all()

    def test_one_long_key_does_not_widen_the_batch(self):
        """A 16 KiB key among 2048 short ones: scratch stays near the
        short keys' size instead of 2048 padded copies of the long one."""
        keys = [f"obj-{i}" for i in range(2048)]
        keys[1000] = "L" * 16384
        tracemalloc.start()
        try:
            got = point_sequences(keys, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # padded to the long key: 2048 * 16 KiB = 32 MiB
        assert (_bits(got[1000]) == _bits(point_sequence(keys[1000], 2))).all()
