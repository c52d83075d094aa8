"""Tests for the content-addressed result store and its checkpoints."""

import gc
import pickle
import warnings

import numpy as np
import pytest

from repro.analysis.aggregate import StreamingProfile, StreamingScalar
from repro.experiments import RunRequest
from repro.experiments.base import ExperimentResult
from repro.io.jsonio import to_jsonable
from repro.io.store import (
    STORE_ENV_VAR,
    ResultStore,
    default_store_root,
    resolve_store,
)


def make_result(experiment_id="figx", n=40, nan_tail=7):
    """A result shaped like the registry's: NaN-padded series, mixed extra."""
    rng = np.random.default_rng(99)
    padded = rng.random(n)
    padded[-nan_tail:] = np.nan
    return ExperimentResult(
        experiment_id=experiment_id,
        title="store test",
        x_name="bin_rank",
        x_values=np.arange(n),
        series={"full": rng.random(n), "padded": padded},
        parameters={"n": n, "seed": 1, "engine": "ensemble", "caps": [1, 2, 8]},
        extra={"wall_seconds": 0.5, "per_class": {"c=1": 2.25}},
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestResultStore:
    def test_get_miss_counts(self, store):
        assert store.get("0" * 64) is None
        assert store.stats().misses == 1
        assert store.stats().entries == 0

    def test_put_get_round_trip_bit_identical(self, store):
        result = make_result()
        request = RunRequest("figx", seed=1, engine="ensemble")
        key = request.cache_key(version=1)
        store.put(key, result, request=request)
        stored = store.get(key)
        assert stored is not None and store.stats().hits == 1
        back = stored.result
        assert back.x_values.tobytes() == result.x_values.tobytes()
        assert back.x_values.dtype == result.x_values.dtype
        assert list(back.series) == list(result.series)
        for name in result.series:
            # byte-for-byte, NaN padding included
            assert back.series[name].tobytes() == result.series[name].tobytes()
        assert to_jsonable(back.parameters) == to_jsonable(result.parameters)
        assert to_jsonable(back.extra) == to_jsonable(result.extra)
        assert back.experiment_id == "figx" and back.title == result.title

    def test_entry_records_request_and_provenance(self, store):
        request = RunRequest("figx", seed=1, overrides={"repetitions": 3})
        key = request.cache_key(version=1)
        store.put(key, make_result(), request=request)
        stored = store.get(key)
        assert RunRequest.from_payload(stored.request) == request
        assert stored.provenance["numpy"] == np.__version__
        assert "python" in stored.provenance

    def test_provenance_records_native_status_not_in_the_key(self, store):
        """The native tier is an audit field: it never changes a key."""
        from repro import native
        from repro.core.equivalence import forced_native

        request = RunRequest("figx", seed=1, overrides={"repetitions": 3})
        keys = {}
        for enabled in (True, False):
            with forced_native(enabled):
                keys[enabled] = request.cache_key(version=1)
                store.put(keys[enabled], make_result(), request=request)
                recorded = store.get(keys[enabled]).provenance["native"]
                assert recorded == native.status()
        assert keys[True] == keys[False]
        assert recorded == "disabled"

    def test_contains_and_evict(self, store):
        key = "a" * 64
        assert not store.contains(key)
        store.put(key, make_result())
        assert store.contains(key)
        assert store.evict(key)
        assert not store.contains(key)
        assert not store.evict(key)

    def test_keys_and_stats(self, store):
        assert store.keys() == []
        store.put("b" * 64, make_result())
        store.put("a" * 64, make_result())
        assert store.keys() == ["a" * 64, "b" * 64]
        stats = store.stats()
        assert stats.entries == 2 and stats.total_bytes > 0

    def test_stats_skips_entries_evicted_mid_iteration(self, store, tmp_path):
        """Regression: ``stats()`` called ``p.stat()`` on live glob results,
        so an entry evicted (or any unstatable path appearing) between the
        listing and the stat raised ``FileNotFoundError``.  A dangling
        symlink reproduces that window deterministically."""
        store.put("a" * 64, make_result())
        dangling = store.result_path("b" * 64)
        dangling.symlink_to(tmp_path / "vanished.npz")
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0

    def test_put_is_atomic_no_tmp_left_behind(self, store):
        key = "c" * 64
        store.put(key, make_result())
        leftovers = [p for p in store.root.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []

    def test_put_overwrites(self, store):
        key = "d" * 64
        store.put(key, make_result(n=10, nan_tail=2))
        store.put(key, make_result(n=20, nan_tail=2))
        assert store.get(key).result.x_values.size == 20
        assert store.stats().entries == 1

    def test_corrupt_entry_is_a_miss_not_an_error(self, store):
        """A torn entry (crashed pre-fsync writer, partial copy) must not
        poison every sweep over the store: ``get`` treats it as a miss and
        quarantines the bytes for post-mortem (see ``TestQuarantine``)."""
        key = "e" * 64
        path = store.result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz")
        assert store.get(key) is None
        assert store.stats().misses == 1
        assert path.with_name(path.name + ".corrupt").exists()


class TestCheckpoints:
    def test_slot_save_load_round_trip(self, store):
        ck = store.checkpointer("k" * 64)
        slot = ck.slot()
        reducer = StreamingScalar().update([1.0, 2.0, 3.0])
        slot.save(reducer, 2, "fp")
        loaded, blocks_done, monitor = slot.load("fp")
        assert blocks_done == 2
        assert loaded == reducer  # bit-exact reducer equality
        assert monitor is None  # fixed-budget runs carry no monitor state

    def test_slot_round_trips_monitor_state(self, store):
        slot = store.checkpointer("k" * 64).slot()
        state = {"series": {"mean": [3, 1.5, 0.75]}, "reps_done": 9}
        slot.save(StreamingScalar().update([1.0]), 3, "fp", monitor=state)
        _, _, monitor = slot.load("fp")
        assert monitor == state

    def test_fingerprint_mismatch_ignored(self, store):
        ck = store.checkpointer("k" * 64)
        slot = ck.slot()
        slot.save(StreamingScalar().update([1.0]), 1, "fp-old")
        assert slot.load("fp-new") is None

    def test_torn_checkpoint_ignored(self, store):
        ck = store.checkpointer("k" * 64)
        slot = ck.slot()
        slot.path.parent.mkdir(parents=True, exist_ok=True)
        slot.path.write_bytes(b"\x80garbage")
        assert slot.load("fp") is None

    def test_slots_autonumber_in_call_order(self, store):
        ck = store.checkpointer("k" * 64)
        assert ck.slot().path.name == "slot00000000.pkl"
        assert ck.slot().path.name == "slot00000001.pkl"
        again = store.checkpointer("k" * 64)
        assert again.slot().path.name == "slot00000000.pkl"

    def test_slot_names_order_past_ten_thousand(self, store):
        """Regression: 4-digit padding made ``slot10000`` sort *before*
        ``slot9999``, so anything leaning on name order (directory
        listings, lexicographic discovery) mis-ordered runs with >= 10,000
        checkpointed sub-runs.  New names stay lexicographically aligned
        with call order across the boundary, and discovery orders
        numerically regardless."""
        ck = store.checkpointer("k" * 64)
        names = [ck.slot().path.name for _ in range(10_002)]
        assert names == sorted(names)
        assert names[9_999] == "slot00009999.pkl"
        assert names[10_000] == "slot00010000.pkl"

    def test_legacy_slot_names_stay_resumable(self, store):
        """Checkpoints written with the old 4-digit padding must still be
        found: a fresh Checkpointer maps slot i to the legacy file, loads
        its state under the same fingerprint, and saves back in place."""
        key = "k" * 64
        ck = store.checkpointer(key)
        legacy = ck.directory / "slot0001.pkl"
        from repro.io.store import CheckpointSlot

        reducer = StreamingScalar().update([4.0, 5.0])
        CheckpointSlot(legacy).save(reducer, 7, "fp")

        again = store.checkpointer(key)
        assert again.slot_indices() == [1]
        assert again.slot().path.name == "slot00000000.pkl"  # slot 0: fresh
        slot1 = again.slot()
        assert slot1.path == legacy
        loaded, blocks_done, _ = slot1.load("fp")
        assert blocks_done == 7 and loaded == reducer

    def test_put_clears_checkpoints(self, store):
        key = "k" * 64
        ck = store.checkpointer(key)
        ck.slot().save(StreamingProfile(3).update(np.ones((2, 3))), 1, "fp")
        assert store.has_checkpoints(key)
        store.put(key, make_result())
        assert not store.has_checkpoints(key)

    def test_reducers_pickle_bit_exactly(self):
        profile = StreamingProfile(5).update(np.random.default_rng(1).random((4, 5)))
        assert pickle.loads(pickle.dumps(profile)) == profile
        scalar = StreamingScalar().update([1.5, 2.5])
        assert pickle.loads(pickle.dumps(scalar)) == scalar

    def test_nan_state_reducers_still_round_trip_equal(self):
        """Equality is byte-level, so NaN moments (NaN-padded series fed to
        a reducer) do not break the ``loads(dumps(r)) == r`` invariant."""
        scalar = StreamingScalar().update([1.0, np.nan])
        assert pickle.loads(pickle.dumps(scalar)) == scalar
        profile = StreamingProfile(2).update(np.array([[1.0, np.nan]]))
        assert pickle.loads(pickle.dumps(profile)) == profile


class TestStoreKnob:
    def test_default_root_uses_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        assert default_store_root() == tmp_path / "envstore"

    def test_default_root_fallback(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert str(default_store_root()) == ".repro-store"

    def test_resolve_store_forms(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        assert resolve_store(None) is None
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(True).root == tmp_path / "envstore"
        assert resolve_store(tmp_path / "explicit").root == tmp_path / "explicit"


def _stress_writer(directory, rounds):
    """Subprocess body: keep saving resume state into a namespace that a
    sibling process is concurrently clearing.  Any exception escaping here
    (the pre-fix ``FileNotFoundError`` from ``os.replace``) turns into a
    nonzero exit code the parent asserts on."""
    from repro.io.store import Checkpointer

    reducer = StreamingScalar().update([1.0, 2.0, 3.0])
    for i in range(rounds):
        slot = Checkpointer(directory).slot()
        slot.save(reducer, i, "f" * 64)


def _stress_clearer(directory, rounds):
    from repro.io.store import Checkpointer

    for _ in range(rounds):
        Checkpointer(directory).clear()


class TestQuarantine:
    """Unreadable store entries are misses, not poison (regression: a torn
    ``.npz`` — crashed pre-fsync writer, partial copy — used to raise out
    of ``get`` on every subsequent sweep over the store)."""

    KEY = "c" * 64

    def put_one(self, store):
        store.put(self.KEY, make_result())
        return store.result_path(self.KEY)

    def assert_quarantined_miss(self, store, path):
        misses_before = store.misses
        assert store.get(self.KEY) is None
        assert store.misses == misses_before + 1
        assert not path.exists()
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()
        # the bad entry no longer pollutes listings or stats
        assert store.keys() == []
        assert store.stats().entries == 0
        assert not store.contains(self.KEY)

    def test_truncated_entry_is_a_quarantined_miss(self, store):
        path = self.put_one(store)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        # The failed load must close the file it opened: an unclosed
        # handle shows as a ResourceWarning once it is collected.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            self.assert_quarantined_miss(store, path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_zero_byte_entry_is_a_quarantined_miss(self, store):
        path = self.put_one(store)
        path.write_bytes(b"")
        self.assert_quarantined_miss(store, path)

    def test_foreign_file_entry_is_a_quarantined_miss(self, store):
        path = self.put_one(store)
        path.write_bytes(b"this is not a zip archive at all")
        self.assert_quarantined_miss(store, path)

    def test_npz_without_store_members_is_a_quarantined_miss(self, store):
        path = self.put_one(store)
        np.savez(path, stray=np.arange(3))  # valid .npz, foreign layout
        self.assert_quarantined_miss(store, path)

    def test_recompute_after_quarantine_round_trips(self, store):
        path = self.put_one(store)
        path.write_bytes(b"")
        assert store.get(self.KEY) is None
        store.put(self.KEY, make_result())
        stored = store.get(self.KEY)
        assert stored is not None and stored.result.experiment_id == "figx"

    def test_readable_entries_are_never_quarantined(self, store):
        path = self.put_one(store)
        assert store.get(self.KEY) is not None
        assert path.exists()
        assert not path.with_name(path.name + ".corrupt").exists()


class TestCheckpointerConcurrency:
    def test_directory_swept_mid_scan_reads_as_empty(self, tmp_path):
        """A concurrent ``clear`` can remove the directory while the slot
        scan lists it; that is an empty namespace, not a crash."""
        from pathlib import Path
        from unittest import mock

        from repro.io.store import Checkpointer

        directory = tmp_path / "ckpt"
        Checkpointer(directory).slot().save(StreamingScalar().update([1.0]), 1,
                                            "f" * 64)

        def swept(self, pattern):
            raise FileNotFoundError(str(self))

        with mock.patch.object(Path, "glob", swept):
            ckpt = Checkpointer(directory)
            assert ckpt.slot_indices() == []
            assert not ckpt.has_state()

    def test_multiprocess_save_clear_stress(self, tmp_path):
        """Writers hammering ``slot.save`` while another process rmtrees the
        namespace (``Checkpointer.clear``) — the fabric's steady state.
        Pre-fix, a writer whose parent directory vanished around the mkdir,
        the ``open``, the ``os.replace`` or the slot scan crashed; post-fix
        every process exits clean and the namespace stays usable.
        ``scripts/ci.sh`` loops :func:`save_clear_stress` 50 times."""
        save_clear_stress(tmp_path)


def save_clear_stress(root, rounds=60):
    """One storm of the checkpointer stress test under *root*: three
    writer processes and one clearer, then a save/load round trip."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    directory = root / "ckpt"
    procs = [
        ctx.Process(target=_stress_writer, args=(directory, rounds))
        for _ in range(3)
    ] + [ctx.Process(target=_stress_clearer, args=(directory, rounds))]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    exit_codes = [p.exitcode for p in procs]
    assert exit_codes == [0, 0, 0, 0]
    # the namespace survived the storm: a fresh save/load round-trips
    slot = ResultStore(root / "s2").checkpointer("d" * 64).slot()
    reducer = StreamingScalar().update([4.0])
    slot.save(reducer, 1, "g" * 64)
    loaded = slot.load("g" * 64)
    assert loaded is not None and loaded[0] == reducer
