"""Execute experiments as declarative requests, through the result store.

This module is the execution stage of the run pipeline:

1. **Plan** — the caller describes the run as a
   :class:`~repro.experiments.request.RunRequest` (or passes the same
   fields as keyword arguments and one is built here);
2. **Store** — with ``store=`` given, :func:`run_experiment` is
   cache-hit-or-compute against the content-addressed
   :class:`~repro.io.store.ResultStore` under the request's cache key;
3. **Resume** — computed runs execute with a checkpointer from the same
   store, so an interrupted ensemble run restarts from its last completed
   block slab instead of from scratch.

Every registered experiment runs on both repetition engines; an unknown
engine name is an error, never a silent fallback.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..io.store import resolve_store
from .base import (
    ExperimentResult,
    ExperimentSpec,
    get_experiment,
    list_experiments,
)
from .request import RunRequest

__all__ = ["run_experiment", "run_all", "RunOutcome"]

#: Sentinel distinguishing "caller did not pass workers" from an explicit
#: value (``None`` itself is meaningful: it means all CPUs).
_UNSET = object()


class RunOutcome:
    """A result plus how it was obtained (for front ends that report cache
    behaviour; :func:`run_experiment` returns just the result)."""

    __slots__ = ("request", "key", "result", "cache_hit", "resumed", "wall_seconds")

    def __init__(self, *, request, key, result, cache_hit, resumed, wall_seconds):
        self.request = request
        self.key = key
        self.result = result
        self.cache_hit = cache_hit
        self.resumed = resumed
        self.wall_seconds = wall_seconds


def as_run_request(
    experiment,
    *,
    scale=None,
    seed=None,
    engine=None,
    workers=_UNSET,
    block_size=None,
    overrides=None,
    precision=None,
) -> RunRequest:
    """Build the canonical request for *experiment* (id string or an
    already-built :class:`RunRequest`, which is returned unchanged provided
    no conflicting fields are given)."""
    if isinstance(experiment, RunRequest):
        if overrides or workers is not _UNSET or any(
            v is not None for v in (scale, seed, engine, block_size, precision)
        ):
            raise ValueError(
                "pass run parameters either inside the RunRequest or as "
                "keyword arguments, not both"
            )
        return experiment
    return RunRequest(
        experiment_id=experiment,
        scale=scale,
        seed=seed,
        engine=engine,
        workers=1 if workers is _UNSET else workers,
        block_size=block_size,
        overrides=overrides or (),
        precision=precision,
    )


def execute_request(
    request: RunRequest,
    *,
    progress=None,
    out_dir=None,
    store=None,
    fabric=None,
) -> RunOutcome:
    """Run one request through the store; the full-fidelity entry point.

    With a store: a present key is a pure lookup (zero simulation work);
    a missing key computes with block checkpoints namespaced under the key,
    stores the result, and drops the checkpoints.  Without a store the run
    always computes (and cannot resume).

    ``fabric`` (a :class:`~repro.runtime.fabric.FabricSession`) routes the
    run's fixed-budget ensemble blocks over the session's worker fleet
    instead of the in-process paths — bit-identical by the fabric clause of
    the seed contract, and deliberately **not** part of the cache key, like
    ``workers``: execution placement never changes a number.  Adaptive
    (precision-targeted) runs ignore it and execute locally.
    """
    spec: ExperimentSpec = get_experiment(request.experiment_id)
    store = resolve_store(store)
    key = request.cache_key(version=spec.version)
    started = time.perf_counter()
    if store is not None:
        cached = store.get(key)
        if cached is not None:
            result = cached.result
            if out_dir is not None:
                result.save(Path(out_dir))
            return RunOutcome(
                request=request,
                key=key,
                result=result,
                cache_hit=True,
                resumed=False,
                wall_seconds=time.perf_counter() - started,
            )
    checkpoint = store.checkpointer(key) if store is not None else None
    resumed = bool(checkpoint is not None and checkpoint.has_state())
    if fabric is not None:
        with fabric.activate():
            result = spec.execute(request, progress=progress, checkpoint=checkpoint)
    else:
        result = spec.execute(request, progress=progress, checkpoint=checkpoint)
    wall = time.perf_counter() - started
    result.extra.setdefault("wall_seconds", round(wall, 3))
    if store is not None:
        store.put(key, result, request=request)  # also clears checkpoints
    if out_dir is not None:
        result.save(Path(out_dir))
    return RunOutcome(
        request=request,
        key=key,
        result=result,
        cache_hit=False,
        resumed=resumed,
        wall_seconds=wall,
    )


def run_experiment(
    experiment,
    *,
    scale: float | None = None,
    seed=None,
    workers=_UNSET,  # int | None; sentinel so a passed RunRequest wins
    progress=None,
    out_dir=None,
    engine: str | None = None,
    block_size: int | None = None,
    store=None,
    precision=None,
    **overrides,
) -> ExperimentResult:
    """Run one experiment by id (or :class:`RunRequest`) and optionally save
    CSV/JSON to *out_dir*.

    ``scale``/``seed`` fall back to the experiment's own defaults when
    ``None``; ``overrides`` become part of the request (e.g.
    ``repetitions=50``, ``n=1000``) and must be JSON-canonicalizable.
    ``engine`` selects the repetition engine
    (:data:`repro.experiments.base.ENGINES`); every registered experiment
    runs on both, and an unknown name raises ``ValueError``.  ``store`` (``ResultStore`` | path |
    ``True`` for the ``REPRO_STORE`` knob) makes the call
    cache-hit-or-compute with resume checkpoints.  ``precision`` (a
    :class:`~repro.analysis.precision.PrecisionTarget` or its payload)
    turns the repetition budget into a maximum: an adaptive experiment
    under ``engine="ensemble"`` stops as soon as the target CI half-widths
    are met, reporting replications-used in ``result.extra["adaptive"]``.
    """
    request = as_run_request(
        experiment,
        scale=scale,
        seed=seed,
        engine=engine,
        workers=workers,
        block_size=block_size,
        overrides=overrides,
        precision=precision,
    )
    return execute_request(
        request, progress=progress, out_dir=out_dir, store=store
    ).result


def run_all(
    *,
    scale: float | None = None,
    seed=None,
    workers: int | None = 1,
    progress=None,
    out_dir=None,
    only=None,
    engine: str | None = None,
    block_size: int | None = None,
    store=None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment (or the ids in *only*).

    ``engine`` applies to every experiment; a name outside
    :data:`~repro.experiments.base.ENGINES` is an error before any runs.
    """
    from .base import resolve_engine

    if engine is not None:
        engine = resolve_engine(engine)
    wanted = set(only) if only is not None else None
    results: dict[str, ExperimentResult] = {}
    for spec in list_experiments():
        if wanted is not None and spec.experiment_id not in wanted:
            continue
        request = RunRequest(
            experiment_id=spec.experiment_id,
            scale=scale,
            seed=seed,
            engine=engine,
            workers=workers,
            block_size=block_size,
        )
        results[spec.experiment_id] = execute_request(
            request, progress=progress, out_dir=out_dir, store=store
        ).result
    return results
