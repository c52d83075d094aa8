"""Where the traced run wraps the program, and the per-layer metrics.

Each ``install_*`` function patches the public functions of one group of
layers at the place their caller looks them up (see :mod:`spans`).  The
benchmark process installs all groups; the ``serve`` launcher installs the
service group in the server process.  :func:`layer_metrics` turns the span
summaries and counters of a traced run into the per-layer metrics named in
``BENCHMARK.json``; a layer the workload never calls reports 0.
"""

from __future__ import annotations

import numpy as np

#: Experiment modules whose block tasks call the ensemble driver.
_EXPERIMENT_MODULES = (
    "repro.experiments.fig02_05_small_heavy",
    "repro.experiments.fig10_13_mixed_profiles",
    "repro.experiments.ablations",
)


def _kernel_balls(counts, args, kwargs, result):
    choices = args[2]
    counts["core.balls"] += int(choices.shape[0] * choices.shape[1])


def _wavefront_factory():
    last = {}

    def count(counts, args, kwargs, result):
        _kernel_balls(counts, args, kwargs, result)
        stats = kwargs.get("stats")
        if stats is None:
            return
        # The driver's WavefrontStats accumulates over a run; count deltas.
        _, balls0, deferred0 = last.get(id(stats), (stats, 0, 0))
        last[id(stats)] = (stats, stats.balls, stats.deferred)
        counts["core.wavefront.balls"] += stats.balls - balls0
        counts["core.wavefront.deferred"] += stats.deferred - deferred0

    return count


def _alias_draws(counts, args, kwargs, result):
    counts["sampling.alias.draws"] += int(np.asarray(result).size)


def _run_tasks_blocks(counts, args, kwargs, result):
    counts["runtime.executor.blocks"] += len(args[0])


def _fabric_blocks(counts, args, kwargs, result):
    counts["runtime.fabric.blocks"] += len(result)
    counts.setdefault("runtime.fabric.call_blocks", []).append(len(result))


def _put_bytes(counts, args, kwargs, result):
    counts["io.store.put.bytes_written"] += result.stat().st_size


def install_experiments(tracer) -> None:
    """``experiments``, ``runtime.executor``, ``core``, ``sampling``,
    ``analysis``."""
    import importlib

    import repro.core.ensemble as ensemble
    import repro.experiments as experiments
    import repro.runtime.executor as executor
    from repro.analysis.aggregate import StreamingProfile, StreamingScalar
    from repro.sampling.alias import AliasSampler

    tracer.patch(experiments, "execute_request", "experiments.execute")
    for name in _EXPERIMENT_MODULES:
        mod = importlib.import_module(name)
        tracer.patch(mod, "simulate_ensemble", "core.simulate_ensemble")
        tracer.patch(mod, "run_ensemble_reduced", "runtime.executor")
    tracer.patch(executor, "run_tasks", "runtime.executor", _run_tasks_blocks)
    tracer.patch(ensemble, "run_batch_ensemble", "core.per_ball", _kernel_balls)
    tracer.patch(ensemble, "run_batch_wavefront", "core.wavefront",
                 _wavefront_factory())
    tracer.patch(ensemble, "run_batch_compiled", "core.compiled", _kernel_balls)
    tracer.patch(AliasSampler, "sample", "sampling.alias", _alias_draws)
    for cls in (StreamingProfile, StreamingScalar):
        tracer.patch(cls, "update", "analysis.reduce")
        tracer.patch(cls, "merge", "analysis.reduce")


def install_fabric_store(tracer) -> None:
    """``runtime.fabric`` and ``io.store``."""
    from repro.io.store import CheckpointSlot, ResultStore
    from repro.runtime.fabric import FabricSession

    tracer.patch(FabricSession, "run_blocks", "runtime.fabric", _fabric_blocks)
    tracer.patch(ResultStore, "get", "io.store.get")
    tracer.patch(ResultStore, "put", "io.store.put", _put_bytes)
    tracer.patch(CheckpointSlot, "save", "io.store.checkpoint")


def install_service(tracer) -> None:
    """``service.*`` and ``p2p`` on the placement path, plus the WAL."""
    import repro.service.views as views
    from repro.p2p.ring import ConsistentHashRing
    from repro.service.metrics import LatencyRecorder
    from repro.service.server import AllocationService
    from repro.service.wal import WriteAheadLog

    tracer.patch(AllocationService, "allocate", "service.allocate")
    tracer.patch(AllocationService, "apply_churn", "service.churn")
    tracer.patch(views.DChoicePlacer, "place", "service.views.place")
    tracer.patch(views, "point_sequence", "p2p.hashing")
    tracer.patch(ConsistentHashRing, "lookup_batch", "p2p.ring.lookup")
    tracer.patch(views.StaleLoadView, "refresh", "service.views.refresh")
    tracer.patch(LatencyRecorder, "record", "service.metrics.record")
    tracer.patch(WriteAheadLog, "append", "service.wal.append")
    tracer.patch(WriteAheadLog, "flush", "service.wal.flush")


def install_recovery(tracer) -> None:
    """Offline recovery: ``service.wal`` scan and the replay around it."""
    from repro.service.server import AllocationService
    from repro.service.wal import WriteAheadLog

    tracer.patch(AllocationService, "recover", "service.recover.replay")
    tracer.patch(WriteAheadLog, "scan", "service.wal.scan")


#: Per-layer metrics: (name, unit).  Order is the order of BENCHMARK.json.
PER_LAYER = (
    ("core.balls", "count"),
    ("core.simulate_ensemble.calls", "count"),
    ("core.simulate_ensemble.self_s", "s"),
    ("core.per_ball.calls", "count"),
    ("core.per_ball.self_s", "s"),
    ("core.wavefront.calls", "count"),
    ("core.wavefront.self_s", "s"),
    ("core.wavefront.free_fraction", "ratio"),
    ("core.compiled.calls", "count"),
    ("core.compiled.self_s", "s"),
    ("sampling.alias.calls", "count"),
    ("sampling.alias.draws", "count"),
    ("sampling.alias.self_s", "s"),
    ("analysis.reduce.calls", "count"),
    ("analysis.reduce.self_s", "s"),
    ("runtime.executor.blocks", "count"),
    ("runtime.executor.self_s", "s"),
    ("experiments.execute.self_s", "s"),
    ("service.allocate.calls", "count"),
    ("service.allocate.self_s", "s"),
    ("service.views.place.self_s", "s"),
    ("p2p.hashing.self_s", "s"),
    ("p2p.ring.lookup.calls", "count"),
    ("p2p.ring.lookup.self_s", "s"),
    ("service.views.refresh.calls", "count"),
    ("service.views.refresh.self_s", "s"),
    ("service.churn.calls", "count"),
    ("service.churn.self_s", "s"),
    ("service.metrics.record.self_s", "s"),
    ("service.wal.appends", "count"),
    ("service.wal.append.self_s", "s"),
    ("service.wal.fsyncs", "count"),
    ("service.wal.flush.self_s", "s"),
    ("service.wal.bytes", "B"),
    ("service.frontend.self_s", "s"),
    ("serve.gen.late_ms", "ms"),
    ("serve.backlog.max", "count"),
    ("service.wal.scan.self_s", "s"),
    ("service.recover.replay.self_s", "s"),
    ("runtime.fabric.blocks", "count"),
    ("runtime.fabric.wait_s", "s"),
    ("runtime.fabric.wait_ms.p50", "ms"),
    ("io.store.put.calls", "count"),
    ("io.store.put.self_s", "s"),
    ("io.store.put.bytes_written", "B"),
    ("io.store.checkpoint.saves", "count"),
    ("io.store.checkpoint.self_s", "s"),
    ("io.store.get.calls", "count"),
    ("io.store.get.self_s", "s"),
    ("io.store.hits", "count"),
    ("io.store.misses", "count"),
    ("tracing.overhead_pct", "%"),
)


def layer_metrics(summaries, counts, extra) -> dict:
    """Per-layer metric values from merged span summaries and counters.

    *summaries* maps span name to ``{calls, self_s, durations}`` (merged
    over every traced process); *counts* holds the counters; *extra* the
    values measured outside spans (WAL bytes, generator lateness, ...).
    """
    def span(name, field):
        return summaries.get(name, {}).get(field, 0)

    values = dict(extra)
    routed = counts.get("core.wavefront.balls", 0)
    if routed:
        values["core.wavefront.free_fraction"] = (
            1.0 - counts.get("core.wavefront.deferred", 0) / routed)
    values["service.wal.appends"] = span("service.wal.append", "calls")
    values["io.store.checkpoint.saves"] = span("io.store.checkpoint", "calls")
    fabric = summaries.get("runtime.fabric")
    if fabric:
        values["runtime.fabric.wait_s"] = fabric["total_s"]
        # run_blocks hands back a whole batch at once: the driver's wait
        # per block of a call is the call's duration over its block count.
        per_call = np.asarray(counts["runtime.fabric.call_blocks"], dtype=np.float64)
        per_block = fabric["durations"] / np.maximum(per_call, 1.0)
        values["runtime.fabric.wait_ms.p50"] = float(np.median(per_block)) * 1e3

    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = span(name[:-len(".calls")], "calls")
        elif name.endswith(".self_s"):
            value = span(name[:-len(".self_s")], "self_s")
        else:
            value = counts.get(name, 0)
        out[name] = {"value": float(value), "unit": unit}
    return out
