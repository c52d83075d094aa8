"""Deterministic hashing utilities for the P2P substrate.

The ring and Chord simulators need stable, well-mixed hash values that do not
depend on ``PYTHONHASHSEED``.  We use the splitmix64 finaliser — a cheap
bijective mixer with good avalanche behaviour — over explicit 64-bit lanes.

:func:`point_sequences` is the vectorised twin of :func:`point_sequence`:
the same splitmix64 fold over little-endian uint64 lanes, run over a whole
batch of string keys at once, bit for bit equal to the scalar path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KEY_TYPES",
    "check_keys",
    "splitmix64",
    "hash_key",
    "hash_to_unit",
    "point_sequence",
    "point_sequences",
]

_MASK = (1 << 64) - 1
_UNIT = 1.0 / float(1 << 64)


def splitmix64(x: int) -> int:
    """The splitmix64 finaliser: a 64-bit bijection with strong mixing."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _fold(data: bytes) -> int:
    """The first 8-byte lane, with every further lane folded in."""
    material = int.from_bytes(data[:8].ljust(8, b"\0"), "little")
    for off in range(8, len(data), 8):
        lane = int.from_bytes(data[off : off + 8].ljust(8, b"\0"), "little")
        material = splitmix64(material ^ lane)
    return material


#: The key types every hash here accepts (``bool`` is an ``int``).
KEY_TYPES = (int, str, bytes)


def _key_type_error(key_type, types=KEY_TYPES) -> TypeError:
    names = [t.__name__ for t in types]
    allowed = ", ".join(names[:-1]) + " or " + names[-1]
    return TypeError(f"key must be {allowed}, got {key_type.__name__}")


def check_keys(keys, types=KEY_TYPES) -> None:
    """Raise, without hashing anything, the error the hashes raise for the
    first of *keys* they would reject: a ``TypeError`` for a key that is
    not a *types* instance (:data:`KEY_TYPES` or a subset with ``str``), the
    ``UnicodeEncodeError`` of a ``str`` that does not encode as UTF-8
    (a lone surrogate)."""
    for key in keys:
        if isinstance(key, str):
            if not key.isascii():
                key.encode("utf-8")
        elif not isinstance(key, types):
            raise _key_type_error(type(key), types)


def _material(key) -> int:
    """The unsalted 64-bit material of *key* (str, bytes or int)."""
    if isinstance(key, int):
        return key & _MASK
    if isinstance(key, str):
        return _fold(key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fold(key)
    raise _key_type_error(type(key))


def hash_key(key, salt: int = 0) -> int:
    """Hash *key* (str, bytes or int) with *salt* into a 64-bit value."""
    return splitmix64(_material(key) ^ splitmix64(salt & _MASK))


def hash_to_unit(key, salt: int = 0) -> float:
    """Map *key* to a point of the unit interval ``[0, 1)``."""
    return hash_key(key, salt) / float(1 << 64)


def point_sequence(key, count: int) -> list[float]:
    """The first *count* independent ring points of *key* (salted re-hashes).

    Byers et al.'s d-point scheme gives each request ``d`` independent
    positions; salting with the probe index reproduces that determinism.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    material = _material(key)
    salts = _SALT_MIX[:count] if count <= len(_SALT_MIX) else _salt_mix(count)
    return [splitmix64(material ^ s) * _UNIT for s in salts]


def _salt_mix(count: int) -> list[int]:
    """``splitmix64(salt)`` for the probe salts ``1..count``."""
    return [splitmix64(i + 1) for i in range(count)]


#: The mixed salts of the first probes, shared by every key.
_SALT_MIX = _salt_mix(8)


def _splitmix64_lanes(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` over a uint64 array (wrapping arithmetic)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


#: Longest encoded key folded in bulk by :func:`_fold_lanes`.  Longer keys
#: take the scalar :func:`_fold`, so the lane matrix is at most eight lanes
#: wide whatever one key's length (a 64 KiB wire key would otherwise pad
#: every key of its batch to 64 KiB).
_BULK_KEY_BYTES = 64


def _fold_lanes(encoded: list[bytes]) -> np.ndarray:
    """:func:`_fold` over many byte strings at once.

    The strings are NUL-padded into a ``(k, lanes)`` uint64 matrix; lane
    ``j >= 1`` is folded into a key's material only while ``8 * j`` is
    below that key's byte length — the scalar loop's ``range(8, len, 8)``
    — so padding lanes never touch a shorter key.  Strings longer than
    :data:`_BULK_KEY_BYTES` are folded one at a time instead.
    """
    if not encoded:
        return np.empty(0, dtype=np.uint64)
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    long = np.flatnonzero(lengths > _BULK_KEY_BYTES).tolist()
    bulk = list(encoded)
    for i in long:
        bulk[i] = b""
    lengths[long] = 0
    lanes = max(1, -(-int(lengths.max()) // 8))
    padded = np.array(bulk, dtype=f"S{8 * lanes}")
    words = padded.view("<u8").reshape(len(bulk), lanes)
    material = words[:, 0].astype(np.uint64)
    for j in range(1, lanes):
        folded = _splitmix64_lanes(material ^ words[:, j])
        np.copyto(material, folded, where=lengths > 8 * j)
    for i in long:
        material[i] = _fold(encoded[i])
    return material


def point_sequences(keys, count: int) -> np.ndarray:
    """``(len(keys), count)`` ring points: row ``i`` is
    ``point_sequence(keys[i], count)``, bit for bit.

    ``str`` keys are hashed in bulk (:func:`_fold_lanes`); any other key
    takes the scalar :func:`hash_key` material, so ints, bools and bytes
    agree with the scalar path and anything else raises its ``TypeError``.
    Scratch memory grows with the number of keys only (callers bound the
    batch: the service hashes a few thousand keys at a time).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    keys = list(keys)
    if set(map(type, keys)) <= {str}:
        material = _fold_lanes(list(map(str.encode, keys)))
    else:
        material = np.empty(len(keys), dtype=np.uint64)
        text = []
        for i, key in enumerate(keys):
            if isinstance(key, str):
                text.append(i)
            else:
                material[i] = _material(key)
        if text:
            material[text] = _fold_lanes([keys[i].encode("utf-8") for i in text])
    salts = np.array(_salt_mix(count), dtype=np.uint64)
    hashed = _splitmix64_lanes(material[:, None] ^ salts[None, :])
    return hashed.astype(np.float64) * _UNIT
