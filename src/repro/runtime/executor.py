"""Repetition fan-out: lockstep replication blocks, serial or in a pool.

Monte-Carlo repetitions are embarrassingly parallel.  The executor runs a
picklable block task ``task(seed_sequences, **kwargs) -> reducer`` once per
contiguous block of repetitions, with independent
:class:`~numpy.random.SeedSequence` streams, and merges the returned
reducers in block order (:func:`run_ensemble_reduced`).  ``workers=1`` (the
default) runs in-process; ``workers>1`` fans out over a ``multiprocessing``
pool; ``workers=None`` uses all CPUs; an activated sweep fabric leases the
blocks to its worker fleet.

For a task with extra parameters, pass a top-level function plus ``kwargs``
(lambdas and closures do not pickle under the default ``spawn``/``fork``
start methods on all platforms).

Seed contract
-------------
The master seed is spawned into ``repetitions`` child sequences exactly
once, and child ``i`` always belongs to repetition ``i``: block ``b``
covering repetitions ``[i0, i1)`` receives exactly ``children[i0:i1]``.

A block task that feeds its seed slice to
:func:`repro.core.ensemble.simulate_ensemble` via ``seeds=`` therefore
reproduces single runs on those children bit-for-bit; a task that instead
runs in ``seed_mode="blocked"`` uses ``seeds[0]`` of its slice as the
block master (fast path — statistically equivalent, not stream-matched).
With one repetition per block the two coincide: the block's master *is*
its repetition's child, which is how the scalar engine runs
(:func:`repro.experiments.base.one_repetition_per_block`).  Neither
``workers`` nor ``block_size`` changes which child seed a repetition owns,
and block boundaries are derived from ``block_size`` alone — never from
``workers`` — so ``workers`` cannot change any result, and blocked-mode
results are deterministic in ``(seed, block_size)``.

Shared parameters per block
---------------------------
Experiments whose single runs each draw random *parameters* (a
capacity vector, a ball-size multiset, a hashing ring) before simulating
use the blocked-mode corollary of the contract: the block derives **one**
generator from its first child seed via :func:`block_parameter_rng`, draws
the block's shared parameters from it, and hands the *same* generator to
the lockstep engine as the block master.  Parameter randomness is then
sampled once per block instead of once per repetition; blocks are
independent (disjoint children of one spawn), so the estimator over
replications stays unbiased — see :mod:`repro.core.ensemble` for the full
argument.  Crucially the hook never re-spawns or reorders children: which
child a repetition owns is fixed before any parameter draw happens, so
adding or removing parameter draws inside a block cannot perturb another
block's streams.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import traceback
from collections.abc import Callable, Sequence

import numpy as np

from ..sampling.rngutils import spawn_seed_sequences
from .progress import make_reporter

__all__ = [
    "run_ensemble_reduced",
    "run_tasks",
    "block_parameter_rng",
    "block_seed_spec",
    "seeds_from_spec",
    "shared_param_block_size",
    "TaskError",
]


def _active_fabric():
    """The activated fabric session, if any (lazy import: fabric → executor
    is the module-level direction; the reverse would cycle)."""
    try:
        from .fabric.launcher import current_fabric
    except Exception:  # pragma: no cover — fabric package half-imported
        return None
    return current_fabric()


class TaskError(RuntimeError):
    """A repetition task failed, serially or inside the worker pool.

    Raised by :func:`run_tasks` in place of the bare traceback the task (or
    ``multiprocessing.Pool.imap``) would otherwise surface; the message names
    the failing task (experiment label and block bounds where the caller
    provided them) and carries the task-side traceback text.  Serial and
    pool failures wrap identically, so error reports do not change shape
    with ``workers``; the original exception stays reachable as
    ``__cause__`` on the serial path.
    """


class _TaskFailure:
    """Picklable capture of a worker-side exception (internal sentinel)."""

    __slots__ = ("message", "traceback")

    def __init__(self, message: str, tb: str):
        self.message = message
        self.traceback = tb

#: Default replications per lockstep block: wide enough to amortise the
#: per-ball vectorisation, small enough to bound the ``(R, n)`` working set.
#: Deliberately *not* derived from ``workers``: block boundaries determine
#: which child seed a blocked-mode task draws from, so a workers-dependent
#: default would make ``--workers`` change results at a fixed seed.  Pass an
#: explicit smaller ``block_size`` when a pool needs more blocks to chew on.
DEFAULT_BLOCK_SIZE = 128


def block_parameter_rng(seeds) -> np.random.Generator:
    """The block's parameter-and-stream master generator (see module docs).

    A blocked-mode ensemble task that needs shared random parameters calls
    this exactly once on its seed slice, draws the parameters from the
    returned generator, and passes the same generator on as
    ``simulate_ensemble(..., seed=rng, seed_mode="blocked")``, so a
    one-repetition block derives both its parameters and its simulation
    stream from its repetition's generator.  The generator is a function of
    ``seeds[0]`` alone, so the executor's spawn contract (child ``i`` belongs
    to repetition ``i``, blocks get contiguous slices) is untouched by any
    number of parameter draws.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("a parameter rng needs a non-empty block seed slice")
    return np.random.default_rng(seeds[0])


def shared_param_block_size(
    repetitions: int, block_size: int | None = None, *, min_blocks: int = 8
) -> int:
    """Block width for shared-params-per-block experiments.

    Those runners (fig08/09, fig16, ``rw_ring``, ``abl_weighted``) draw one
    random parameter set per block, so the parameter randomness is averaged
    over the number of blocks: keep at least ``min_blocks`` of them instead
    of taking the width-optimised :data:`DEFAULT_BLOCK_SIZE`.  An explicit
    ``block_size`` (e.g. pinned by a RunRequest) always wins.
    """
    if block_size is not None:
        return block_size
    return min(DEFAULT_BLOCK_SIZE, max(1, repetitions // min_blocks))


def _invoke(payload):
    task, seed, kwargs = payload
    return task(seed, **kwargs)


def _invoke_captured(payload):
    """Pool-side wrapper: capture task exceptions instead of letting the
    pool machinery re-raise them bare in the parent (satisfying callers who
    need the failing task identified — see :class:`TaskError`)."""
    try:
        return _invoke(payload)
    except Exception as exc:  # noqa: BLE001 — re-raised with context parent-side
        return _TaskFailure(repr(exc), traceback.format_exc())


def _resolve_blocks(repetitions: int, block_size: int | None) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` block bounds covering all repetitions."""
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        (start, min(start + block_size, repetitions))
        for start in range(0, repetitions, block_size)
    ]


def _block_describer(label: str | None, bounds: Sequence[tuple[int, int]]):
    """Error-message namer for block payloads: experiment label + bounds."""

    def describe(i: int) -> str:
        start, stop = bounds[i]
        prefix = f"{label} " if label else ""
        return f"{prefix}ensemble block [{start}, {stop})"

    return describe


def _contains_ndarray(value) -> bool:
    """Whether *value* is — or transitively holds — a numpy array."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_contains_ndarray(v) for v in value)
    if isinstance(value, dict):
        return any(_contains_ndarray(v) for v in value.values())
    return False


def _fingerprint_value(value) -> str:
    """Canonical fingerprint text for one kwargs value.

    Plain values keep their legacy ``repr`` form (so pre-existing
    checkpoints of array-free runs still resume).  Arrays — bare or nested
    in containers — are hashed over their full ``(dtype, shape, bytes)``
    content instead: ``repr`` truncates large arrays (``...``), so two runs
    differing only in the middle of a long capacity vector would otherwise
    share a fingerprint and resume from each other's checkpoints unsoundly.
    """
    if not _contains_ndarray(value):
        return repr(value)
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return f"ndarray[{arr.dtype.str}{arr.shape}]:{digest}"
    if isinstance(value, (list, tuple)):
        kind = "list" if isinstance(value, list) else "tuple"
        return f"{kind}({','.join(_fingerprint_value(v) for v in value)})"
    if isinstance(value, (set, frozenset)):
        inner = sorted(_fingerprint_value(v) for v in value)
        return f"set({','.join(inner)})"
    # dict (the only remaining container _contains_ndarray recurses into)
    items = sorted(
        (repr(k), _fingerprint_value(v)) for k, v in value.items()
    )
    return f"dict({','.join(f'{k}:{v}' for k, v in items)})"


def _checkpoint_fingerprint(task, repetitions, block_size, seed, kwargs, until=None) -> str:
    """Identity of one reduced ensemble run, for checkpoint validity.

    A checkpoint written under a different task, repetition count, block
    layout, seed, kwargs, or early-stop rule must never be resumed from;
    the fingerprint is a cheap text guard (checkpoints are already
    namespaced per cache key, so a mismatch only happens when experiment
    internals changed without a ``version`` bump — in which case the run
    silently starts fresh rather than resuming unsoundly).  Values are
    fingerprinted via :func:`_fingerprint_value`: ``repr`` for plain
    values, full content hashes for numpy arrays.
    """
    if isinstance(seed, np.random.SeedSequence):
        seed_repr = f"ss:{seed.entropy!r}:{tuple(seed.spawn_key)!r}"
    else:
        seed_repr = repr(seed)
    kw_repr = sorted((k, _fingerprint_value(v)) for k, v in (kwargs or {}).items())
    task_name = getattr(task, "__qualname__", repr(task))
    if until is None:
        # Keep the pre-adaptive 5-tuple form so fixed-budget checkpoints
        # written before the early-stop hook existed still resume.
        return repr((task_name, int(repetitions), block_size, seed_repr, kw_repr))
    describe = getattr(until, "fingerprint", None)
    until_repr = describe() if callable(describe) else repr(until)
    return repr((task_name, int(repetitions), block_size, seed_repr, kw_repr, until_repr))


def block_seed_spec(seed) -> dict:
    """Picklable description of the master seed's child-spawn geometry.

    The returned dict — ``{"entropy", "spawn_key", "pool_size", "base"}`` —
    is everything :func:`seeds_from_spec` needs to rebuild any block's child
    seeds, anywhere: the same ``(entropy, spawn_key + (base + j,))``
    construction ``SeedSequence.spawn`` would use, honoring a
    caller-supplied parent's ``n_children_spawned`` offset.  This is how the
    sweep fabric ships the seed contract to worker processes as plain data
    instead of a live ``SeedSequence``.  A ``seed=None`` parent resolves to
    fresh OS entropy here, exactly once, so all consumers of one spec share
    one (irreproducible but consistent) stream family.
    """
    parent = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return {
        "entropy": parent.entropy,
        "spawn_key": tuple(parent.spawn_key),
        "pool_size": parent.pool_size,
        "base": parent.n_children_spawned,
    }


def seeds_from_spec(spec: dict, i0: int, i1: int) -> list[np.random.SeedSequence]:
    """Child seeds of repetitions ``[i0, i1)`` under a :func:`block_seed_spec`.

    Bit-equivalent to slicing ``spawn_seed_sequences(seed, repetitions)``
    at ``[i0:i1]`` — repetition ``j`` always owns child ``base + j`` of the
    parent, regardless of which process asks.
    """
    spawn_key = tuple(spec["spawn_key"])
    base = int(spec["base"])
    return [
        np.random.SeedSequence(
            entropy=spec["entropy"],
            spawn_key=spawn_key + (base + j,),
            pool_size=int(spec["pool_size"]),
        )
        for j in range(i0, i1)
    ]


def _iter_block_seeds(seed, bounds):
    """Lazily yield each block's child-seed slice (executor seed contract).

    Children are constructed directly from the parent's
    ``(entropy, spawn_key)`` — exactly what ``SeedSequence.spawn`` slices
    would contain, block ``[i0, i1)`` getting children ``i0..i1-1`` — so an
    early-stopped adaptive run never pays for spawning children of blocks
    it does not reach, and a caller-supplied ``SeedSequence`` parent is not
    mutated (its ``n_children_spawned`` offset is still honored, matching
    :func:`repro.sampling.rngutils.spawn_seed_sequences` semantics).
    """
    spec = block_seed_spec(seed)
    for i0, i1 in bounds:
        yield seeds_from_spec(spec, i0, i1)


def run_ensemble_reduced(
    task: Callable,
    repetitions: int,
    *,
    seed=None,
    workers: int | None = 1,
    block_size: int | None = None,
    kwargs: dict | None = None,
    progress=None,
    chunksize: int = 1,
    label: str | None = None,
    checkpoint=None,
    until=None,
):
    """Run a reducer-returning ensemble task and merge the block reducers.

    ``task`` must return an object with a ``merge(other)`` method (e.g. a
    :class:`repro.analysis.aggregate.StreamingProfile`); the merged reducer
    over all blocks is returned.  Requires ``repetitions >= 1``.

    Resume hook
    -----------
    ``checkpoint`` is a slot provider (duck-typed; in practice a
    :class:`repro.io.store.Checkpointer`): each ``run_ensemble_reduced``
    call claims the next slot via ``checkpoint.slot()`` — call order inside
    an experiment is deterministic, so slot numbering is stable across
    retries — and after every completed block the merged-so-far reducer is
    persisted with ``slot.save(reducer, blocks_done, fingerprint)``.  (On
    an activated fabric the parked blocks are the per-block state, so the
    merged reducer is saved once, with every block done, before the
    fabric drops its parks.)  On the
    next attempt ``slot.load(fingerprint)`` hands back that state and only
    the remaining blocks run.  Soundness rests on the seed contract (module
    docstring): block boundaries and each block's child seeds are functions
    of ``(seed, repetitions, block_size)`` alone, so the skipped blocks'
    contribution is exactly what the checkpoint recorded, and blocks are
    merged left-to-right either way — the resumed result is bit-identical
    to an uninterrupted run.  A literal ``seed=None`` run is not
    reproducible and therefore never checkpointed.

    Early-stop hook
    ---------------
    ``until`` (duck-typed; in practice a
    :class:`repro.analysis.precision.SequentialMonitor`) turns
    ``repetitions`` from a fixed budget into a *maximum*: after every
    completed block the merged-so-far pipeline calls
    ``until.observe(block_reducer, reps_done)`` and stops consuming blocks
    as soon as it returns ``True``.  Blocks are then generated lazily —
    child seeds for unreached blocks are never spawned — and the pool path
    dispatches bounded look-ahead waves (one pool-width at a time), so at
    most one wave of extra blocks is ever computed past the stopping
    point (and never merged).  The stop decision is a pure function of the
    observed block prefix, so serial and pool runs stop at the same block
    and yield bit-identical reducers.  With a ``checkpoint``, the
    monitor's state is persisted next to the merged reducer
    (``until.state_dict()`` / ``until.load_state_dict(...)``) and the
    monitor identity joins the fingerprint (``until.fingerprint()``), so a
    killed adaptive run resumes to the same stopping block bit-identically.
    """
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1 or None, got {workers}")
    kwargs = kwargs or {}
    bounds = _resolve_blocks(repetitions, block_size)
    slot = None
    fingerprint = None
    merged = None
    start_block = 0
    if checkpoint is not None and seed is not None:
        slot = checkpoint.slot()
        fingerprint = _checkpoint_fingerprint(
            task, repetitions, block_size, seed, kwargs, until
        )
        state = slot.load(fingerprint)
        if state is not None:
            merged, start_block, monitor_state = state
            start_block = min(int(start_block), len(bounds))
            if until is not None and monitor_state is not None:
                until.load_state_dict(monitor_state)
    pending = bounds[start_block:]

    holder = {"reducer": merged}

    def _merge(block_reducer) -> None:
        if holder["reducer"] is None:
            holder["reducer"] = block_reducer
        else:
            holder["reducer"].merge(block_reducer)

    def _absorb(i: int, block_reducer) -> bool:
        """Merge pending block *i*; observe + checkpoint; report stop."""
        _merge(block_reducer)
        stop = False
        if until is not None:
            # pending[i] ends at global repetition index i1 == reps done.
            stop = bool(until.observe(block_reducer, pending[i][1]))
        if slot is not None:
            slot.save(
                holder["reducer"],
                start_block + i + 1,
                fingerprint,
                monitor=None if until is None else until.state_dict(),
            )
        return stop

    if until is None:
        fabric = _active_fabric()
        if fabric is not None and pending:
            # Fixed-budget blocks are leased to fabric workers; the parked
            # block reducers come back in deterministic block order and are
            # merged exactly as the serial path merges them, so the result
            # is bit-identical regardless of worker placement or deaths.
            # The parks are the per-block resume state, so the driver
            # checkpoints once, before the fabric drops them.
            def _collected(reducers) -> None:
                for block_reducer in reducers:
                    _merge(block_reducer)
                if slot is not None:
                    slot.save(holder["reducer"], len(bounds), fingerprint)

            fabric.run_blocks(
                task,
                pending,
                seed=seed,
                repetitions=repetitions,
                block_size=block_size,
                kwargs=kwargs,
                label=label,
                progress=progress,
                on_collected=_collected,
            )
            return holder["reducer"]
        children = spawn_seed_sequences(seed, repetitions)
        payloads = [(task, children[i0:i1], kwargs) for i0, i1 in pending]
        run_tasks(
            payloads,
            workers=workers,
            progress=progress,
            chunksize=chunksize,
            weights=[i1 - i0 for i0, i1 in pending],
            total=sum(i1 - i0 for i0, i1 in pending),
            describe=_block_describer(label, pending),
            on_result=_absorb,
        )
        return holder["reducer"]

    # Adaptive path: a resumed run whose restored monitor is already
    # satisfied stopped at an earlier block — return without running more.
    if not pending or until.should_stop():
        return holder["reducer"]
    _run_adaptive_blocks(
        task,
        pending,
        seed=seed,
        workers=workers,
        kwargs=kwargs,
        progress=progress,
        chunksize=chunksize,
        label=label,
        absorb=_absorb,
    )
    return holder["reducer"]


def _run_adaptive_blocks(
    task,
    pending: Sequence[tuple[int, int]],
    *,
    seed,
    workers,
    kwargs,
    progress,
    chunksize,
    label,
    absorb,
):
    """Consume pending blocks in order until *absorb* reports a stop.

    Serial execution is fully lazy (one block at a time); pool execution
    submits bounded waves of one pool-width so the stop signal is honored
    within at most one wave of look-ahead (wasted blocks are computed but
    never merged — results stay bit-identical to the serial path).
    """
    reporter = make_reporter(progress)
    reporter.start(sum(i1 - i0 for i0, i1 in pending), label="repetitions")
    describe = _block_describer(label, pending)
    seed_iter = _iter_block_seeds(seed, pending)
    if workers == 1 or len(pending) <= 1:
        for i, ((i0, i1), seeds) in enumerate(zip(pending, seed_iter)):
            try:
                block_reducer = task(seeds, **kwargs)
            except Exception as exc:
                raise TaskError(
                    f"{describe(i)} failed in a serial task: {exc!r}\n"
                    f"--- task traceback ---\n{traceback.format_exc()}"
                ) from exc
            stop = absorb(i, block_reducer)
            reporter.advance(i1 - i0)
            if stop:
                break
    else:
        pool_size = workers if workers is not None else multiprocessing.cpu_count()
        pool_size = min(pool_size, len(pending))
        stopped = False
        with multiprocessing.Pool(pool_size) as pool:
            idx = 0
            while idx < len(pending) and not stopped:
                wave = pending[idx:idx + pool_size]
                payloads = [(task, next(seed_iter), kwargs) for _ in wave]
                iterator = pool.imap(
                    _invoke_captured, payloads, chunksize=max(chunksize, 1)
                )
                for j, (i0, i1) in enumerate(wave):
                    try:
                        res = next(iterator)
                    except Exception as exc:  # pool plumbing failure
                        raise TaskError(
                            f"{describe(idx + j)}: worker pool failed before "
                            f"returning a result: {exc!r}"
                        ) from exc
                    if isinstance(res, _TaskFailure):
                        raise TaskError(
                            f"{describe(idx + j)} failed in a pool worker: "
                            f"{res.message}\n--- worker traceback ---\n"
                            f"{res.traceback}"
                        ) from None
                    stopped = absorb(idx + j, res)
                    reporter.advance(i1 - i0)
                    if stopped:
                        break
                idx += len(wave)
    reporter.finish()


def run_tasks(
    payloads: Sequence,
    *,
    workers: int | None = 1,
    progress=None,
    chunksize: int = 1,
    weights: Sequence[int] | None = None,
    total: int | None = None,
    describe: Callable[[int], str] | None = None,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Execute ``(task, seed, kwargs)`` payloads, serially or in a pool.

    ``weights``/``total`` let a caller whose payloads cover several
    repetitions each (ensemble blocks) report progress in repetitions
    rather than payloads.

    ``describe(i)`` names payload ``i`` for error messages (experiment id
    plus block bounds); when a pool worker raises, the run fails fast with a
    :class:`TaskError` carrying that name and the worker traceback instead
    of the pool's bare pickling/traceback noise.  ``on_result(i, result)``
    is invoked in payload order as each result arrives (parent-side), which
    is what lets :func:`run_ensemble_reduced` merge and checkpoint blocks
    incrementally instead of after the fact.
    """
    if weights is not None and len(weights) != len(payloads):
        raise ValueError(
            f"weights has {len(weights)} entries for {len(payloads)} payloads"
        )

    def _name(i: int) -> str:
        if describe is not None:
            return describe(i)
        return f"task {i + 1}/{len(payloads)}"

    reporter = make_reporter(progress)
    reporter.start(total if total is not None else len(payloads), label="repetitions")
    steps = weights if weights is not None else [1] * len(payloads)
    results: list = []
    if workers == 1 or len(payloads) <= 1:
        for i, (p, step) in enumerate(zip(payloads, steps)):
            try:
                res = _invoke(p)
            except Exception as exc:
                raise TaskError(
                    f"{_name(i)} failed in a serial task: {exc!r}\n"
                    f"--- task traceback ---\n{traceback.format_exc()}"
                ) from exc
            results.append(res)
            if on_result is not None:
                on_result(i, res)
            reporter.advance(step)
    else:
        pool_size = workers if workers is not None else multiprocessing.cpu_count()
        pool_size = min(pool_size, max(len(payloads), 1))
        with multiprocessing.Pool(pool_size) as pool:
            iterator = pool.imap(_invoke_captured, payloads, chunksize=max(chunksize, 1))
            for i, step in enumerate(steps):
                try:
                    res = next(iterator)
                except Exception as exc:  # pool plumbing (e.g. unpicklable result)
                    raise TaskError(
                        f"{_name(i)}: worker pool failed before returning a "
                        f"result: {exc!r}"
                    ) from exc
                if isinstance(res, _TaskFailure):
                    raise TaskError(
                        f"{_name(i)} failed in a pool worker: {res.message}\n"
                        f"--- worker traceback ---\n{res.traceback}"
                    ) from None
                results.append(res)
                if on_result is not None:
                    on_result(i, res)
                reporter.advance(step)
    reporter.finish()
    return results
