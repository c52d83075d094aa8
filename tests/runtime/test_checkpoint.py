"""Executor resume (checkpoint hook) and fail-fast pool error tests.

The resume contract: ``run_ensemble_reduced`` persists the merged-so-far
reducer after every completed block; a rerun of the same call skips the
checkpointed blocks and produces a reducer **bit-identical** to an
uninterrupted run — sound because block boundaries and each block's child
seeds are functions of ``(seed, repetitions, block_size)`` alone, and
blocks merge left-to-right on both paths.
"""

import numpy as np
import pytest

from repro.analysis.aggregate import StreamingScalar
from repro.analysis.precision import PrecisionTarget
from repro.io.store import ResultStore
from repro.runtime import run_ensemble_reduced
from repro.runtime.executor import TaskError, _iter_block_seeds
from repro.sampling.rngutils import spawn_seed_sequences

#: Serial-path call counter (workers=1 runs tasks in-process).
CALLS = {"blocks": 0}

#: Out-of-band kill switch: fail any block whose first repetition index is
#: >= this value.  A module global rather than a task kwarg so the
#: interrupted attempt and the resume attempt are *the same call* (same
#: checkpoint fingerprint), exactly like a real mid-run kill; forked pool
#: workers inherit it.
FAIL = {"from": None}


def scalar_block(seeds, *, fail_from=None):
    """Top-level (picklable) reducer task; fails on the block whose first
    repetition index (= the first child's spawn key, per the executor seed
    contract) is >= ``fail_from`` (kwarg) or ``FAIL['from']`` (global)."""
    CALLS["blocks"] += 1
    first_rep = seeds[0].spawn_key[-1]
    threshold = fail_from if fail_from is not None else FAIL["from"]
    if threshold is not None and first_rep >= threshold:
        raise RuntimeError(f"injected kill at repetition {first_rep}")
    values = [float(np.random.default_rng(s).random()) for s in seeds]
    return StreamingScalar().update(values)


def failing_block(seeds):
    raise ValueError("block task boom")


def unpicklable_block(seeds):
    return lambda: None  # lambdas cannot travel back through the pool


@pytest.fixture
def checkpoints(tmp_path):
    """A fresh checkpointer factory over one persistent directory."""
    store = ResultStore(tmp_path / "store")

    def make():
        return store.checkpointer("k" * 64)

    make.store = store
    return make


REPS, BLOCK = 20, 3  # 7 blocks: [0,3) ... [18,20)


class TestResume:
    def run(self, checkpoint, workers=1):
        return run_ensemble_reduced(
            scalar_block, REPS, seed=42, workers=workers, block_size=BLOCK,
            checkpoint=checkpoint, label="unit",
        )

    def kill_at(self, checkpoints, rep, workers=1, exc=RuntimeError, match="injected kill"):
        FAIL["from"] = rep
        try:
            with pytest.raises(exc, match=match):
                self.run(checkpoints(), workers=workers)
        finally:
            FAIL["from"] = None

    def test_interrupted_run_resumes_bit_identically(self, checkpoints):
        reference = run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
        )
        self.kill_at(checkpoints, 9)
        assert checkpoints.store.has_checkpoints("k" * 64)
        CALLS["blocks"] = 0
        resumed = self.run(checkpoints())
        # blocks [0,3) [3,6) [6,9) were checkpointed; only 4 of 7 re-run
        assert CALLS["blocks"] == 4
        assert resumed == reference
        agg_a, agg_b = resumed.aggregate(), reference.aggregate()
        assert (agg_a.mean, agg_a.std, agg_a.minimum, agg_a.maximum) == (
            agg_b.mean, agg_b.std, agg_b.minimum, agg_b.maximum
        )

    def test_completed_run_replays_from_checkpoint_without_work(self, checkpoints):
        first = self.run(checkpoints())
        CALLS["blocks"] = 0
        second = self.run(checkpoints())
        assert CALLS["blocks"] == 0  # fully checkpointed: nothing recomputed
        assert second == first

    def test_pool_interrupt_then_pool_resume(self, checkpoints):
        reference = run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
        )
        self.kill_at(
            checkpoints, 9, workers=2, exc=TaskError,
            match=r"unit ensemble block \[9, 12\)",
        )
        resumed = self.run(checkpoints(), workers=2)
        assert resumed == reference

    def test_changed_kwargs_invalidate_checkpoint(self, checkpoints):
        self.kill_at(checkpoints, 9)
        # different kwargs -> different fingerprint -> fresh start
        CALLS["blocks"] = 0
        fresh = run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
            kwargs={"fail_from": 10**9}, checkpoint=checkpoints(),
        )
        assert CALLS["blocks"] == 7
        assert fresh == run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=BLOCK,
        )

    def test_changed_block_size_invalidates_checkpoint(self, checkpoints):
        self.kill_at(checkpoints, 9)
        CALLS["blocks"] = 0
        run_ensemble_reduced(
            scalar_block, REPS, seed=42, block_size=4,
            checkpoint=checkpoints(),
        )
        assert CALLS["blocks"] == 5  # ceil(20/4): all blocks, none resumed

    def test_seed_none_never_checkpoints(self, checkpoints):
        run_ensemble_reduced(
            scalar_block, REPS, seed=None, block_size=BLOCK,
            checkpoint=checkpoints(),
        )
        assert not checkpoints.store.has_checkpoints("k" * 64)

    def test_without_checkpoint_matches_with_checkpoint(self, checkpoints):
        plain = run_ensemble_reduced(scalar_block, REPS, seed=42, block_size=BLOCK)
        assert self.run(checkpoints()) == plain


#: Adaptive target for the early-stop × resume tests: on the uniform(0,1)
#: toy statistic it converges well inside the 60-repetition budget.
ADAPTIVE_TARGET = PrecisionTarget(absolute=0.1, confidence=0.9, min_blocks=4)


class TestFingerprintCompat:
    def test_fixed_budget_fingerprint_keeps_legacy_5_tuple_form(self):
        """A fixed-budget run's fingerprint must stay in the pre-adaptive
        5-tuple form, so checkpoints written before the early-stop hook
        existed still resume after an upgrade."""
        from repro.runtime.executor import _checkpoint_fingerprint

        fp = _checkpoint_fingerprint(scalar_block, REPS, BLOCK, 42, {})
        assert fp == repr((
            "scalar_block", REPS, BLOCK, "42", [],
        ))
        adaptive = _checkpoint_fingerprint(
            scalar_block, REPS, BLOCK, 42, {}, ADAPTIVE_TARGET.monitor()
        )
        assert adaptive != fp and "SequentialMonitor" in adaptive

    def test_large_arrays_differing_mid_vector_get_distinct_fingerprints(self):
        """Regression: ``repr`` truncates >1000-element arrays with ``...``,
        so two runs differing only in the middle of a long capacity vector
        used to share a fingerprint — and resume from each other's
        checkpoints unsoundly.  Array kwargs must be hashed over their full
        ``(dtype, shape, bytes)`` content."""
        from repro.runtime.executor import _checkpoint_fingerprint

        a = np.ones(5000, dtype=np.int64)
        b = a.copy()
        b[2500] = 7  # deep inside the repr-elided middle
        assert repr(a) == repr(b)  # the pre-fix collision condition
        fp_a = _checkpoint_fingerprint(scalar_block, REPS, BLOCK, 42, {"capacities": a})
        fp_b = _checkpoint_fingerprint(scalar_block, REPS, BLOCK, 42, {"capacities": b})
        assert fp_a != fp_b
        # Content-addressed: an equal copy (even non-contiguous source,
        # different dtype object) fingerprints identically.
        assert fp_a == _checkpoint_fingerprint(
            scalar_block, REPS, BLOCK, 42, {"capacities": a[::1].copy()}
        )
        # dtype and shape are part of the identity, not just the bytes.
        assert fp_a != _checkpoint_fingerprint(
            scalar_block, REPS, BLOCK, 42, {"capacities": a.astype(np.uint64)}
        )
        assert fp_a != _checkpoint_fingerprint(
            scalar_block, REPS, BLOCK, 42, {"capacities": a.reshape(50, 100)}
        )

    def test_arrays_nested_in_containers_are_content_hashed(self):
        from repro.runtime.executor import _checkpoint_fingerprint

        a = np.ones(5000)
        b = a.copy()
        b[400] = 3.0
        fp = lambda v: _checkpoint_fingerprint(scalar_block, REPS, BLOCK, 1, {"x": v})
        assert fp((a, 2)) != fp((b, 2))
        assert fp({"inner": [a]}) != fp({"inner": [b]})
        # Array-free kwargs keep the legacy repr form verbatim.
        assert "(1, 2)" in fp((1, 2))


class TestLazyBlockSeeds:
    """The adaptive path's lazy seed iterator honors the spawn contract."""

    BOUNDS = [(0, 3), (3, 6), (6, 8)]

    def assert_streams_equal(self, lazy, eager):
        for a, b in zip(lazy, eager):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_matches_eager_spawn_for_int_seed(self):
        lazy = [s for blk in _iter_block_seeds(7, self.BOUNDS) for s in blk]
        self.assert_streams_equal(lazy, spawn_seed_sequences(7, 8))

    def test_honors_prior_spawn_offset_without_mutating_parent(self):
        parent = np.random.SeedSequence(99)
        parent.spawn(5)
        reference_parent = np.random.SeedSequence(99)
        reference_parent.spawn(5)
        lazy = [s for blk in _iter_block_seeds(parent, self.BOUNDS) for s in blk]
        self.assert_streams_equal(lazy, reference_parent.spawn(8))
        assert parent.n_children_spawned == 5  # untouched by laziness


class TestAdaptiveResume:
    """Early stop × resume: a killed adaptive run reaches the same stopping
    block and a bit-identical reducer as an uninterrupted run."""

    BUDGET = 60  # 20 blocks of BLOCK=3

    def run(self, checkpoint=None, workers=1):
        monitor = ADAPTIVE_TARGET.monitor()
        reducer = run_ensemble_reduced(
            scalar_block, self.BUDGET, seed=42, workers=workers,
            block_size=BLOCK, checkpoint=checkpoint, until=monitor,
            label="unit",
        )
        return reducer, monitor

    def test_stops_early_and_serial_equals_pool(self):
        serial, monitor = self.run()
        assert BLOCK * ADAPTIVE_TARGET.min_blocks <= serial.repetitions < self.BUDGET
        assert monitor.should_stop()
        pooled, _ = self.run(workers=2)
        assert pooled == serial  # same stopping block, bit-identical state

    def test_killed_adaptive_run_resumes_to_same_stop(self, checkpoints):
        reference, ref_monitor = self.run()
        stop_rep = reference.repetitions
        # Kill two blocks before the stopping block (mid-flight).
        FAIL["from"] = stop_rep - 2 * BLOCK
        try:
            with pytest.raises(RuntimeError, match="injected kill"):
                self.run(checkpoints())
        finally:
            FAIL["from"] = None
        assert checkpoints.store.has_checkpoints("k" * 64)
        CALLS["blocks"] = 0
        resumed, monitor = self.run(checkpoints())
        # Only the blocks past the kill point ran again — the monitor state
        # was restored, not re-observed.
        assert CALLS["blocks"] == 2
        assert resumed == reference
        assert resumed.repetitions == stop_rep
        assert monitor.summary() == ref_monitor.summary()

    def test_converged_checkpoint_replays_without_work(self, checkpoints):
        first, _ = self.run(checkpoints())
        CALLS["blocks"] = 0
        again, monitor = self.run(checkpoints())
        assert CALLS["blocks"] == 0  # restored monitor already satisfied
        assert again == first
        assert monitor.should_stop()

    def test_pool_kill_then_pool_resume(self, checkpoints):
        reference, _ = self.run()
        FAIL["from"] = reference.repetitions - 2 * BLOCK
        try:
            with pytest.raises(TaskError, match="unit ensemble block"):
                self.run(checkpoints(), workers=2)
        finally:
            FAIL["from"] = None
        resumed, _ = self.run(checkpoints(), workers=2)
        assert resumed == reference

    def test_different_target_invalidates_checkpoint(self, checkpoints):
        """A checkpoint written under one precision target must not seed a
        run with another (the monitor joins the fingerprint)."""
        reference, _ = self.run()
        FAIL["from"] = reference.repetitions - 2 * BLOCK
        try:
            with pytest.raises(RuntimeError, match="injected kill"):
                self.run(checkpoints())
        finally:
            FAIL["from"] = None
        CALLS["blocks"] = 0
        other = PrecisionTarget(absolute=0.2, confidence=0.9, min_blocks=4)
        reducer = run_ensemble_reduced(
            scalar_block, self.BUDGET, seed=42, block_size=BLOCK,
            checkpoint=checkpoints(), until=other.monitor(), label="unit",
        )
        # Fresh start: the first checkpointed block would otherwise be
        # skipped, so re-running it proves the fingerprint mismatched.
        fresh = run_ensemble_reduced(
            scalar_block, self.BUDGET, seed=42, block_size=BLOCK,
            until=other.monitor(),
        )
        assert reducer == fresh

    def test_fixed_budget_checkpoint_not_resumed_by_adaptive_run(self, checkpoints):
        self.kill_fixed_budget_at(checkpoints, 9)
        CALLS["blocks"] = 0
        adaptive, _ = self.run(checkpoints())
        # No block skipped: the adaptive fingerprint differs from the
        # fixed-budget one, so all blocks up to the stop point re-ran.
        assert CALLS["blocks"] == adaptive.repetitions // BLOCK

    def kill_fixed_budget_at(self, checkpoints, rep):
        FAIL["from"] = rep
        try:
            with pytest.raises(RuntimeError, match="injected kill"):
                run_ensemble_reduced(
                    scalar_block, self.BUDGET, seed=42, block_size=BLOCK,
                    checkpoint=checkpoints(), label="unit",
                )
        finally:
            FAIL["from"] = None


class TestFailFast:
    def test_pool_scalar_failure_names_repetition(self):
        # A scalar-engine repetition is a one-repetition block.
        with pytest.raises(TaskError, match=r"lab ensemble block \[0, 1\)") as err:
            run_ensemble_reduced(
                failing_block, 4, seed=0, workers=2, block_size=1, label="lab"
            )
        assert "block task boom" in str(err.value)
        assert "worker traceback" in str(err.value)

    def test_pool_block_failure_names_block_bounds(self):
        with pytest.raises(TaskError, match=r"exp ensemble block \[\d+, \d+\)"):
            run_ensemble_reduced(
                scalar_block, REPS, seed=1, workers=2, block_size=BLOCK,
                kwargs={"fail_from": 0}, label="exp",
            )

    def test_pool_unpicklable_result_wrapped(self):
        with pytest.raises(TaskError, match="worker pool failed"):
            run_ensemble_reduced(
                unpicklable_block, 4, seed=0, workers=2, block_size=1
            )

    def test_serial_failure_wrapped_like_pool(self):
        # Regression: the serial path used to let exceptions escape bare,
        # losing the describe(i) label the pool path reports — serial and
        # pool failures must now produce the same TaskError shape.
        with pytest.raises(TaskError, match=r"lab ensemble block \[0, 1\)") as err:
            run_ensemble_reduced(
                failing_block, 3, seed=0, workers=1, block_size=1, label="lab"
            )
        assert "block task boom" in str(err.value)
        assert "task traceback" in str(err.value)
        # The original exception stays reachable for callers that care.
        assert isinstance(err.value.__cause__, ValueError)

    def test_serial_block_failure_names_block_bounds(self):
        with pytest.raises(TaskError, match=r"exp ensemble block \[0, 2\)"):
            run_ensemble_reduced(
                failing_block, 4, seed=0, workers=1, block_size=2, label="exp",
            )
