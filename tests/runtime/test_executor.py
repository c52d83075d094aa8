"""Tests for the repetition executor, including the seed contract.

The seed contract (see the executor's module docstring): the master seed is
spawned into ``repetitions`` child sequences exactly once, child ``i`` is
repetition ``i``'s, and blocks receive contiguous slices of that child
list — so one-repetition blocks (the scalar engine) and wider lockstep
blocks of a stream-matched task agree bit-for-bit for any ``workers`` /
``block_size``.
"""

import os

import numpy as np
import pytest

from repro.bins import uniform_bins
from repro.core import simulate, simulate_ensemble
from repro.core.policy import ENV_VARS, current_policy, forced_policy
from repro.runtime import block_parameter_rng, run_ensemble_reduced
from repro.sampling.rngutils import spawn_seed_sequences


def draw_task(seed, scale=1.0):
    """One repetition's draw."""
    return float(np.random.default_rng(seed).random() * scale)


def identity_seed_entropy(seed):
    """Returns a stable fingerprint of the received seed."""
    return np.random.default_rng(seed).integers(0, 2**32)


class _Collect:
    """Mergeable reducer keeping per-repetition values in merge order."""

    def __init__(self, values):
        self.values = list(values)

    def merge(self, other):
        self.values.extend(other.values)
        return self


def collect(task, repetitions, **kwargs):
    """Run a block task; return its values in block order."""
    return run_ensemble_reduced(task, repetitions, **kwargs).values


def draw_block_task(seeds, scale=1.0):
    """Top-level (picklable) block task: one draw per child seed."""
    return _Collect(draw_task(s, scale=scale) for s in seeds)


def ensemble_counts_task(seeds, n=6, c=2, m=30):
    """Stream-matched lockstep block: per-replication count rows."""
    res = simulate_ensemble(uniform_bins(n, c), m=m, seeds=seeds)
    return _Collect(res.counts)


def block_fingerprint_task(seeds):
    """Records which child seeds the block received, as one entry."""
    return _Collect([[identity_seed_entropy(s) for s in seeds]])


def shared_param_block_task(seeds, draws=5):
    """Blocked-mode task using the shared-params-per-block hook: draws the
    block's parameters from block_parameter_rng(seeds), then fingerprints
    the child seeds it received."""
    rng = block_parameter_rng(seeds)
    params = rng.random(draws).tolist()
    return _Collect([{
        "params": params,
        "fingerprints": [identity_seed_entropy(s) for s in seeds],
    }])


class _SumReducer:
    """Minimal mergeable reducer for run_ensemble_reduced tests."""

    def __init__(self, total=0.0):
        self.total = total

    def merge(self, other):
        self.total += other.total
        return self


def sum_block_task(seeds):
    return _SumReducer(sum(draw_task(s) for s in seeds))


class TestSerial:
    """One repetition per block: the scalar engine's path."""

    def test_count(self):
        out = collect(draw_block_task, 5, seed=0, block_size=1)
        assert len(out) == 5

    def test_deterministic(self):
        a = collect(draw_block_task, 8, seed=42, block_size=1)
        b = collect(draw_block_task, 8, seed=42, block_size=1)
        assert a == b

    def test_streams_independent(self):
        out = collect(draw_block_task, 10, seed=1, block_size=1)
        assert len(set(out)) == 10

    def test_kwargs_forwarded(self):
        out = collect(draw_block_task, 3, seed=0, block_size=1,
                      kwargs={"scale": 0.0})
        assert out == [0.0, 0.0, 0.0]

    def test_zero_repetitions(self):
        with pytest.raises(ValueError, match="at least one repetition"):
            run_ensemble_reduced(draw_block_task, 0, seed=0, block_size=1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            run_ensemble_reduced(draw_block_task, -1, block_size=1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_ensemble_reduced(draw_block_task, 1, workers=0, block_size=1)


class TestEnsembleSeedContract:
    def test_flat_results_match_scalar_path(self):
        """Any block width yields the one-repetition blocks' results
        exactly: same spawn order, same per-repetition values, same
        positions."""
        scalar = collect(draw_block_task, 9, seed=42, block_size=1)
        assert scalar == [draw_task(c) for c in spawn_seed_sequences(42, 9)]
        for block_size in (2, 4, 9, 100):
            ens = collect(draw_block_task, 9, seed=42, block_size=block_size)
            assert ens == scalar, f"block_size={block_size}"

    def test_lockstep_engine_reproduces_scalar_repetitions(self):
        """A simulate_ensemble(seeds=...) block is bit-identical to single
        simulate() runs on the same children, for one-repetition blocks
        (the scalar engine) and wider lockstep blocks alike."""
        scalar = [
            simulate(uniform_bins(6, 2), m=30, seed=c).counts
            for c in spawn_seed_sequences(123, 7)
        ]
        for block_size in (1, 2, 3, 7):
            ens = collect(ensemble_counts_task, 7, seed=123, block_size=block_size)
            assert len(ens) == 7
            for a, b in zip(scalar, ens):
                np.testing.assert_array_equal(a, b)

    def test_pool_matches_serial_ensemble(self):
        for block_size in (1, 3):
            serial = collect(draw_block_task, 8, seed=7, block_size=block_size,
                             workers=1)
            pooled = collect(draw_block_task, 8, seed=7, block_size=block_size,
                             workers=2)
            assert serial == pooled

    def test_default_block_bounds_independent_of_workers(self):
        """Block boundaries come from block_size alone, so changing the pool
        size can never change a blocked-mode task's streams (regression for
        the workers-coupled default partitioning)."""
        serial = collect(block_fingerprint_task, 10, seed=5, workers=1)
        pooled = collect(block_fingerprint_task, 10, seed=5, workers=3)
        assert serial == pooled

    def test_blocks_receive_contiguous_seed_slices(self):
        """Concatenated block fingerprints equal the per-repetition
        fingerprints: block b covering [i0, i1) got children[i0:i1]."""
        per_rep = [identity_seed_entropy(c) for c in spawn_seed_sequences(99, 10)]
        blocks = collect(block_fingerprint_task, 10, seed=99, block_size=4)
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert [fp for block in blocks for fp in block] == per_rep

    def test_reduced_merges_blocks(self):
        """run_ensemble_reduced merges block reducers into one; the merged
        total equals the per-repetition sum for any block_size."""
        expected = sum(draw_task(c) for c in spawn_seed_sequences(31, 9))
        for block_size in (1, 2, 9):
            reducer = run_ensemble_reduced(
                sum_block_task, 9, seed=31, block_size=block_size
            )
            assert reducer.total == pytest.approx(expected)

    def test_zero_repetitions(self):
        with pytest.raises(ValueError, match="at least one repetition"):
            run_ensemble_reduced(sum_block_task, 0, seed=31)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            run_ensemble_reduced(draw_block_task, 4, seed=0, block_size=0)

    def test_run_tasks_rejects_mismatched_weights(self):
        from repro.runtime import run_tasks

        payloads = [(draw_task, s, {}) for s in range(3)]
        with pytest.raises(ValueError, match="weights"):
            run_tasks(payloads, weights=[1, 1])


class TestBlockParameterHook:
    """Seed-order regression for the shared-params-per-block convention:
    drawing shared parameters inside a block (random caps, ball sizes,
    rings) must not perturb the documented SeedSequence.spawn contract."""

    def test_rng_derives_from_first_child_only(self):
        """The parameter generator is a pure function of seeds[0]."""
        from repro.sampling.rngutils import spawn_seed_sequences

        children = spawn_seed_sequences(123, 5)
        hooked = block_parameter_rng(children).random(4)
        direct = np.random.default_rng(children[0]).random(4)
        np.testing.assert_array_equal(hooked, direct)
        # The remaining children of the slice are irrelevant to the draw.
        partial = block_parameter_rng(children[:1]).random(4)
        np.testing.assert_array_equal(hooked, partial)

    def test_param_draws_do_not_perturb_seed_contract(self):
        """A block that consumes parameter draws still receives exactly
        children[i0:i1]: concatenated fingerprints equal the per-repetition
        ones, for every block size."""
        per_rep = [identity_seed_entropy(c) for c in spawn_seed_sequences(77, 10)]
        for block_size in (1, 3, 4, 10):
            blocks = collect(
                shared_param_block_task, 10, seed=77, block_size=block_size
            )
            flat = [fp for b in blocks for fp in b["fingerprints"]]
            assert flat == per_rep, f"block_size={block_size}"

    def test_param_draws_deterministic_in_seed_and_block_size(self):
        """Shared parameter draws are fixed by (seed, block_size) alone —
        the pool size can never change which parameters a block sees."""
        serial = collect(
            shared_param_block_task, 9, seed=5, block_size=3, workers=1
        )
        pooled = collect(
            shared_param_block_task, 9, seed=5, block_size=3, workers=3
        )
        assert [b["params"] for b in serial] == [b["params"] for b in pooled]
        # Distinct blocks own distinct first children, hence distinct params.
        assert serial[0]["params"] != serial[1]["params"]

    def test_rejects_empty_slice(self):
        with pytest.raises(ValueError, match="non-empty"):
            block_parameter_rng([])


def thread_env_task(seeds):
    """Reports the thread setup a pool child sees: the env var the
    initializer pinned, its policy's thread setting, and the concrete
    budget a compiled-parallel-sized batch would get."""
    policy = current_policy()
    return _Collect([{
        "env": os.environ.get(ENV_VARS["threads"]),
        "setting": policy.threads,
        "resolved": policy.thread_budget(64, 1 << 30),
    }] * len(seeds))


class TestThreadBudgetGuard:
    """Oversubscription guard: pool children are pinned to one compiled
    thread unless the driver explicitly forced a budget, so
    ``workers × threads`` never exceeds the core budget."""

    def test_pool_children_pinned_to_one_thread(self):
        out = collect(thread_env_task, 4, seed=0, workers=2, block_size=1)
        for child in out:
            assert child["env"] == "1"
            assert child["setting"] == 1
            assert child["resolved"] == 1

    def test_workers_4_compiled_parallel_stays_within_core_budget(self):
        """workers=4 + compiled-parallel: each child resolves to exactly 1
        thread even for a batch far beyond the work-size floor, so the
        fleet runs workers × 1 = 4 threads, never workers × cores."""
        workers = 4
        with forced_policy(backend="compiled"):
            out = collect(thread_env_task, workers, seed=0, workers=workers,
                          block_size=1)
        total_threads = sum(child["resolved"] for child in out)
        assert total_threads == workers

    def test_pool_children_inherit_forced_budget(self):
        """The guard is overridable: an explicit parent budget propagates
        (the escape hatch for few-worker fleets on many-core machines)."""
        with forced_policy(threads=3):
            out = collect(thread_env_task, 2, seed=0, workers=2, block_size=1)
        for child in out:
            assert child["env"] == "3"
            assert child["setting"] == 3
            assert child["resolved"] == 3

    def test_parent_env_untouched(self):
        before = os.environ.get(ENV_VARS["threads"])
        collect(thread_env_task, 2, seed=0, workers=2, block_size=1)
        assert os.environ.get(ENV_VARS["threads"]) == before


class TestPool:
    def test_pool_matches_serial(self):
        """workers=2 returns identical results in identical order."""
        serial = collect(block_fingerprint_task, 6, seed=7, workers=1, block_size=1)
        pooled = collect(block_fingerprint_task, 6, seed=7, workers=2, block_size=1)
        assert serial == pooled

    def test_pool_single_payload_falls_back(self):
        out = collect(draw_block_task, 1, seed=3, workers=4, block_size=1)
        assert len(out) == 1

    def test_workers_none_uses_all_cpus(self):
        out = collect(draw_block_task, 4, seed=9, workers=None, block_size=1)
        assert len(out) == 4
