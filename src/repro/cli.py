"""Command-line interface.

Commands
--------
``repro list``
    Show every registered figure experiment.
``repro run <id> [--scale S] [--seed N] [--workers W] [--engine E] [--block-size B]
[--precision SPEC] [--store [DIR]] [--out DIR] [--no-plot]``
    Run an experiment; print the ASCII rendition and save CSV/JSON.
    ``--engine ensemble`` selects the lockstep replication engine.
    ``--precision rel=0.01,conf=0.95`` makes the repetition budget a
    maximum: an adaptive experiment stops at the first block boundary
    where every monitored series' batch-means CI half-width meets the
    target (requires ``--engine ensemble``).
    ``--store`` routes the run through the content-addressed result store
    (``DIR``, else ``$REPRO_STORE``, else ``./.repro-store``): a repeated
    request is a cache hit doing zero simulation work, and an interrupted
    ensemble run resumes from its block checkpoints.
    ``--threads N`` (also on ``sweep`` and ``simulate``) sets the
    compiled-tier thread budget — ``auto`` (default) or a positive
    integer; the prange kernels parallelise over replications only, so no
    budget can change a number.
``repro sweep <ids|all> [--scales S1,S2] [--seeds N1,N2] [--engines E1,E2] ...``
    Run a grid of run requests (ids × scales × seeds × engines) through the
    store and print a hit/miss/resume summary table (with an
    early-stopped-at-R column under ``--precision``).  Killing a sweep
    loses nothing: completed cells are cache hits on the rerun and the
    interrupted cell resumes from its last completed block slab.  A grid
    cell whose run raises is reported as ``error`` in the table and the
    sweep exits nonzero after finishing the remaining cells.
    ``--fabric N`` leases each cell's ensemble blocks to ``N``
    broker-managed worker processes (one fleet for the whole sweep) —
    bit-identical to local execution by the executor seed contract, with
    dead workers' blocks re-queued and parked block results surviving a
    killed sweep.
``repro describe <spec>``
    Parse a bin-array spec (``"1x500,10x500"`` = 500 bins of capacity 1 and
    500 of capacity 10), report its structure and which theorems apply.
``repro simulate <spec> [--balls M] [--d D] [--seed N]``
    One allocation run on the given array; print load statistics.
``repro tune <spec> [--reps R] [--seed N]``
    Search the power family ``p ~ c^t`` for the exponent minimising the
    mean maximum load on the given array (Section 4.5 / future work).
``repro replay [--requests M] [--peers N] [--d D] [--refresh-every T] ...``
    Deterministically replay a generated open-loop trace (heavy-tailed
    popularity, diurnal rate) against the live allocation service with
    optional churn; print the replay report (``--json`` for machines).
    Same seed + spec ⇒ bit-identical placement digest and final counts.
``repro serve [--host H] [--port P] [--peers N] [--d D] ...``
    Run the allocation service as a line-delimited-JSON TCP endpoint
    with ``alloc`` / ``stats`` / ``churn`` / ``ping`` operations until
    interrupted.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.stats import load_stats, per_class_max_loads
from .core.compiled import set_threads
from .core.simulation import simulate
from .experiments.base import list_experiments
from .experiments.runner import run_experiment
from .runtime.progress import ProgressReporter
from .theory.conditions import applicable_theorems

__all__ = ["main", "parse_bin_spec"]


def parse_bin_spec(spec: str):
    """Parse a bin spec string (full grammar in :mod:`repro.bins.spec`).

    Supports explicit classes (``"1x500,10x500"``) and generators
    (``"binom:n=1000,c=4"``); errors surface as ``SystemExit`` with a
    user-facing message.
    """
    from .bins.spec import BinSpecError
    from .bins.spec import parse_bin_spec as _parse

    try:
        return _parse(spec)
    except BinSpecError as exc:
        raise SystemExit(f"bad bin spec: {exc}") from None


def _parse_precision(text):
    """Parse a ``--precision`` spec with a user-facing error."""
    if text is None:
        return None
    from .analysis.precision import PrecisionError, PrecisionTarget

    try:
        return PrecisionTarget.parse(text)
    except PrecisionError as exc:
        raise SystemExit(f"bad --precision: {exc}") from None


def _adaptive_summary(result):
    """The ``extra['adaptive']`` provenance block, if the run carried one."""
    info = result.extra.get("adaptive")
    return info if isinstance(info, dict) else None


def _cmd_list(_args) -> int:
    for spec in list_experiments():
        print(f"{spec.experiment_id:8s} {spec.figure:10s} {spec.title}")
        print(f"{'':8s} {'':10s} {spec.description}")
    return 0


def _cmd_run(args) -> int:
    from .experiments.base import EngineNotSupportedError, PrecisionNotSupportedError
    from .experiments.runner import as_run_request, execute_request

    progress = ProgressReporter() if args.progress else None
    request = as_run_request(
        args.experiment,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        workers=args.workers,
        block_size=args.block_size,
        precision=_parse_precision(args.precision),
    )
    try:
        outcome = execute_request(
            request, progress=progress, out_dir=args.out, store=args.store
        )
    except (EngineNotSupportedError, PrecisionNotSupportedError) as exc:
        raise SystemExit(str(exc)) from None
    result = outcome.result
    if args.store is not None:
        status = "hit" if outcome.cache_hit else (
            "miss (resumed from checkpoints)" if outcome.resumed else "miss"
        )
        print(f"store: cache {status} [{outcome.key[:12]}]")
    adaptive = _adaptive_summary(result)
    if adaptive is not None:
        used = adaptive["replications_used"]
        budget = adaptive["replication_budget"]
        if adaptive["early_stopped"]:
            print(f"adaptive: early-stopped at R={used} of {budget} budgeted "
                  f"replications")
        else:
            print(f"adaptive: spent the full budget (R={used}) without "
                  f"meeting every target")
    if not args.no_plot:
        print(result.render())
    else:
        print(f"{result.experiment_id}: {result.title}")
        for name, lo, hi, first, last in result.summary_rows():
            print(f"  {name}: min={lo:.4f} max={hi:.4f} first={first:.4f} last={last:.4f}")
    if args.out:
        print(f"\nsaved {result.experiment_id}.csv / .json under {args.out}")
    if "wall_seconds" in result.extra:
        print(f"wall time: {result.extra['wall_seconds']}s")
    return 0


def _cmd_describe(args) -> int:
    bins = parse_bin_spec(args.spec)
    print(bins)
    print(f"total capacity C = {bins.total_capacity}, average = {bins.average_capacity():.3f}")
    for report in applicable_theorems(bins, d=args.d):
        print()
        print(report.explain())
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from .experiments.runner import run_all
    from .io.markdown import results_to_report

    progress = ProgressReporter() if args.progress else None
    results = run_all(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        progress=progress,
        out_dir=args.out,
        only=args.only.split(",") if args.only else None,
        engine=args.engine,
        store=args.store,
    )
    report = results_to_report(results, title=args.title)
    path = Path(args.out or ".") / "REPORT.md"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report)
    print(f"wrote {path} covering {len(results)} experiment(s)")
    return 0


def _parse_csl(text, convert, what):
    """Parse a comma-separated option list with a clear error."""
    items = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            items.append(convert(part))
        except ValueError:
            raise SystemExit(f"bad {what} value: {part!r}") from None
    if not items:
        raise SystemExit(f"empty {what} list")
    return items


def _cmd_sweep(args) -> int:
    from itertools import product
    from pathlib import Path

    from .experiments.base import (
        ENGINES,
        EngineNotSupportedError,
        PrecisionNotSupportedError,
        get_experiment,
    )
    from .experiments.request import RunRequest
    from .experiments.runner import execute_request
    from .io.asciiplot import ascii_table
    from .io.store import resolve_store

    if args.experiments == "all":
        ids = [spec.experiment_id for spec in list_experiments()]
    else:
        ids = _parse_csl(args.experiments, str, "experiment id")
    scales = _parse_csl(args.scales, float, "scale") if args.scales else [None]
    seeds = _parse_csl(args.seeds, int, "seed") if args.seeds else [None]
    engines = _parse_csl(args.engines, str, "engine") if args.engines else [None]
    for engine in engines:
        if engine is not None and engine not in ENGINES:
            raise SystemExit(f"unknown engine {engine!r}; expected one of {ENGINES}")
    precision = _parse_precision(args.precision)
    overrides = {}
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    store = resolve_store(args.store if args.store is not None else True)
    progress = ProgressReporter() if args.progress else None
    fabric = None
    if getattr(args, "fabric", None) is not None:
        if args.fabric < 1:
            raise SystemExit(f"--fabric needs at least 1 worker, got {args.fabric}")
        from .runtime.fabric import FabricSession

        # One fleet for the whole sweep: the store is the shared medium, so
        # a killed sweep's parked blocks are found again on the rerun.
        fabric = FabricSession(args.fabric, store=store)

    rows = []
    failures = []
    try:
        for eid, scale, seed, engine in product(ids, scales, seeds, engines):
            request = RunRequest(
                experiment_id=eid,
                scale=scale,
                seed=seed,
                engine=engine,
                workers=args.workers,
                block_size=args.block_size,
                overrides=overrides,
                precision=precision,
            )
            spec_version = get_experiment(eid).version
            out_dir = None
            if args.out is not None:
                # One subdirectory per grid cell: flat <id>.csv naming would
                # let cells differing only in seed/scale/engine overwrite
                # each other.
                cell = request.cache_key(version=spec_version)[:12]
                out_dir = Path(args.out) / f"{eid}-{cell}"
            cell_row = [
                eid,
                "-" if scale is None else f"{scale:g}",
                "-" if seed is None else seed,
                engine or "scalar",
            ]
            try:
                outcome = execute_request(
                    request, progress=progress, out_dir=out_dir, store=store,
                    fabric=fabric,
                )
            except (EngineNotSupportedError, PrecisionNotSupportedError) as exc:
                # A request the registry can never satisfy is a usage error:
                # abort the whole sweep with the message, like before.
                raise SystemExit(str(exc)) from None
            except Exception as exc:  # noqa: BLE001 — reported per cell below
                # One bad grid cell must not take down the rest of the sweep,
                # but it must not hide behind a zero exit either.
                failures.append((cell_row[:4], exc))
                rows.append([*cell_row, "error", 0.0, "-", "-"])
                continue
            status = "hit" if outcome.cache_hit else (
                "resumed" if outcome.resumed else "miss"
            )
            adaptive = _adaptive_summary(outcome.result)
            if adaptive is None:
                stopped = "-"
            elif adaptive["early_stopped"]:
                stopped = f"early@R={adaptive['replications_used']}"
            else:
                stopped = f"full@R={adaptive['replications_used']}"
            rows.append([
                *cell_row,
                status,
                outcome.wall_seconds,
                stopped,
                outcome.key[:12],
            ])
    finally:
        if fabric is not None:
            fabric.close()
    print(ascii_table(
        ["experiment", "scale", "seed", "engine", "status", "wall_s",
         "stopped", "key"],
        rows,
        float_format="{:.3f}",
    ))
    stats = store.stats()
    hits = sum(1 for r in rows if r[4] == "hit")
    print(
        f"\n{len(rows)} run(s): {hits} cache hit(s), {len(rows) - hits} "
        f"computed; store {stats.root} holds {stats.entries} entr"
        f"{'y' if stats.entries == 1 else 'ies'} "
        f"({stats.total_bytes / 1024:.1f} KiB)"
    )
    if failures:
        print(f"\n{len(failures)} grid cell(s) FAILED:", file=sys.stderr)
        for cell, exc in failures:
            name = "/".join(str(c) for c in cell)
            print(f"  {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from .io.asciiplot import ascii_table
    from .theory.selfcheck import verify_all

    outcomes = verify_all(n=args.n, seed=args.seed if args.seed is not None else 20260612)
    print(ascii_table(
        ["claim", "predicted", "measured", "status"],
        [o.row() for o in outcomes],
        float_format="{:.3f}",
    ))
    failed = [o for o in outcomes if not o.passed]
    if failed:
        print(f"\n{len(failed)} check(s) FAILED")
        return 1
    print(f"\nall {len(outcomes)} checks passed")
    return 0


def _cmd_tune(args) -> int:
    from .analysis.optimize import optimal_exponent

    bins = parse_bin_spec(args.spec)
    print(bins)
    result = optimal_exponent(
        bins,
        t_min=args.t_min,
        t_max=args.t_max,
        repetitions=args.reps,
        seed=args.seed,
        d=args.d,
    )
    print("\ncoarse sweep (mean max load per exponent):")
    for t, load in sorted(result.coarse_curve.items()):
        marker = "  <- proportional" if abs(t - 1.0) < 1e-9 else ""
        print(f"  t = {t:5.2f}: {load:.4f}{marker}")
    print(f"\nbest exponent t* = {result.best_t:.3f} "
          f"(mean max load {result.best_load:.4f})")
    gain = result.improvement_over_proportional()
    print(f"improvement over proportional selection: {gain:+.4f}")
    return 0


def _service_from_args(args):
    from .service import AllocationService

    return AllocationService(
        [f"peer-{i}" for i in range(args.peers)],
        d=args.d,
        refresh_every=args.refresh_every,
        virtual_nodes=args.virtual_nodes,
        seed=args.seed,
    )


def _cmd_replay(args) -> int:
    import json as _json

    from .service import TraceSpec, generate_churn_schedule, generate_trace

    if args.peers < 1:
        raise SystemExit(f"--peers must be positive, got {args.peers}")
    try:
        spec = TraceSpec(
            requests=args.requests,
            users=args.users,
            objects=args.objects,
            zipf_s=args.zipf,
            rate=args.rate,
            diurnal_amplitude=args.amplitude,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    trace = generate_trace(spec)
    schedule = generate_churn_schedule(
        args.churn_events, trace.duration, seed=args.seed
    )
    service = _service_from_args(args)
    report = service.replay(trace, schedule, pace=args.pace)
    if args.json:
        payload = {
            "requests": report.requests,
            "placement_digest": report.placement_digest,
            "trace_digest": report.trace_digest,
            "max_load": report.max_load,
            "mean_load": report.mean_load,
            "max_over_mean": report.max_over_mean,
            "joins": report.joins,
            "leaves": report.leaves,
            "skips": report.skips,
            "view_refreshes": report.view_refreshes,
            "wall_seconds": report.wall_seconds,
            "stats": service.stats(),
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"replayed {report.requests} requests over {args.peers} starting "
          f"peers (d={args.d}, refresh_every={args.refresh_every})")
    print(f"trace digest     = {report.trace_digest}")
    print(f"placement digest = {report.placement_digest}")
    print(f"max load         = {report.max_load}")
    print(f"mean load        = {report.mean_load:.4f}")
    print(f"max/mean         = {report.max_over_mean:.4f}")
    print(f"churn            = {report.joins} join(s), {report.leaves} "
          f"leave(s), {report.skips} skip(s)")
    print(f"view refreshes   = {report.view_refreshes}")
    stats = service.stats()
    p50, p99 = stats["latency"]["p50_ms"], stats["latency"]["p99_ms"]
    if p50 is None:
        print("placement latency: no samples")
    else:
        print(f"placement latency p50 = {p50:.4f} ms, p99 = {p99:.4f} ms")
    print(f"wall time        = {report.wall_seconds:.3f}s")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .service import AllocationService, FaultPlan, WalError, WriteAheadLog, run_server

    if args.peers < 1:
        raise SystemExit(f"--peers must be positive, got {args.peers}")

    faults = None
    if args.fault_plan:
        try:
            faults = FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            raise SystemExit(f"bad --fault-plan: {exc}") from None

    recovered = 0
    if args.wal:
        wal = WriteAheadLog(args.wal, sync_every=args.wal_sync_every)
        try:
            if wal.scan().records:
                # Restart: the log's meta record wins over --peers/--d/...
                service = AllocationService.recover(
                    wal, sync_every=args.wal_sync_every)
                recovered = service.recovered_records
            else:
                service = AllocationService(
                    [f"peer-{i}" for i in range(args.peers)],
                    d=args.d,
                    refresh_every=args.refresh_every,
                    virtual_nodes=args.virtual_nodes,
                    seed=args.seed,
                    wal=wal,
                )
        except WalError as exc:
            raise SystemExit(str(exc)) from None
    else:
        service = _service_from_args(args)

    def announce(addr):
        host, port = addr
        extras = ""
        if args.wal:
            extras = (f", wal={args.wal}"
                      + (f" ({recovered} record(s) recovered, digest "
                         f"{service.placement_digest()[:16]}...)" if recovered else ""))
        print(f"allocation service on {host}:{port} "
              f"({len(service.peer_ids)} peers, d={service.d}, "
              f"refresh_every={service.refresh_every}{extras}); ops: "
              f"alloc/stats/churn/ping, one JSON object per line",
              flush=True)

    async def serve():
        # SIGTERM (a supervisor's stop) and SIGINT both end the serve loop
        # the same way: the WAL is flushed and closed below, exit status 0.
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, task.cancel)
        try:
            await run_server(service, args.host, args.port, ready=announce,
                             faults=faults)
        except asyncio.CancelledError:
            print("\nshutting down", flush=True)

    try:
        asyncio.run(serve())
    finally:
        service.close_wal()
    return 0


def _cmd_recover(args) -> int:
    import json as _json

    from .service import AllocationService, WalError

    try:
        service = AllocationService.recover(args.wal)
    except (WalError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    service.close_wal()  # offline inspection only: never append
    stats = service.stats()
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"recovered {service.recovered_records} record(s) from {args.wal}")
    print(f"requests         = {stats['requests']}")
    print(f"placement digest = {stats['placement_digest']}")
    print(f"churn            = {service.joins} join(s), {service.leaves} "
          f"leave(s), {service.skips} skip(s)")
    print(f"peers ({stats['peers']}):")
    for pid, count in stats["load"]["per_peer"].items():
        print(f"  {pid:<12} {count}")
    return 0


def _cmd_simulate(args) -> int:
    bins = parse_bin_spec(args.spec)
    m = args.balls if args.balls is not None else bins.total_capacity
    result = simulate(bins, m=m, d=args.d, seed=args.seed)
    stats = load_stats(result.counts, bins.capacities)
    print(bins)
    print(f"m = {m} balls, d = {args.d}")
    print(f"max load      = {stats.max_load:.4f}")
    print(f"average load  = {stats.average_load:.4f}")
    print(f"gap           = {stats.gap:.4f}")
    print(f"min load      = {stats.min_load:.4f}")
    print("per-class max loads:")
    for cap, ml in sorted(per_class_max_loads(result.counts, bins.capacities).items()):
        print(f"  capacity {cap}: {ml:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Balls into Non-uniform Bins' — experiments and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered figure experiments")

    p_run = sub.add_parser("run", help="run one figure experiment")
    p_run.add_argument("experiment", help="experiment id, e.g. fig06")
    p_run.add_argument("--scale", type=float, default=None,
                       help="repetition scale (1.0 = paper scale)")
    p_run.add_argument("--seed", type=int, default=None, help="master seed")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")
    p_run.add_argument("--engine", choices=["scalar", "ensemble"], default=None,
                       help="repetition engine: scalar loop or lockstep ensemble")
    p_run.add_argument("--block-size", type=int, default=None,
                       help="replications per lockstep block (ensemble engine)")
    p_run.add_argument("--precision", default=None, metavar="SPEC",
                       help="adaptive early-stop target, e.g. "
                            "'rel=0.01,conf=0.95' (requires --engine ensemble; "
                            "keys: rel, abs, conf, min_reps, max_reps, "
                            "min_blocks)")
    p_run.add_argument("--store", nargs="?", const=True, default=None, metavar="DIR",
                       help="cache through the result store at DIR "
                            "(default: $REPRO_STORE or ./.repro-store)")
    p_run.add_argument("--threads", default=None, metavar="N",
                       help="compiled-tier thread budget: 'auto' "
                            "(min(cores, R), tiny batches stay serial) or a "
                            "positive integer — never changes a number "
                            "(default: $REPRO_THREADS, else auto)")
    p_run.add_argument("--out", default=None, help="directory for CSV/JSON results")
    p_run.add_argument("--no-plot", action="store_true", help="skip the ASCII plot")
    p_run.add_argument("--progress", action="store_true", help="print progress to stderr")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a grid of requests through the result store (resumable)",
    )
    p_sweep.add_argument("experiments",
                         help="comma-separated experiment ids, or 'all'")
    p_sweep.add_argument("--scales", default=None,
                         help="comma-separated repetition scales")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    p_sweep.add_argument("--engines", default=None,
                         help="comma-separated engines (scalar,ensemble)")
    p_sweep.add_argument("--repetitions", type=int, default=None,
                         help="repetition-count override for every cell")
    p_sweep.add_argument("--workers", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--block-size", type=int, default=None,
                         help="replications per lockstep block (ensemble engine)")
    p_sweep.add_argument("--precision", default=None, metavar="SPEC",
                         help="adaptive early-stop target applied to every "
                              "cell, e.g. 'rel=0.01,conf=0.95' (requires "
                              "--engines ensemble)")
    p_sweep.add_argument("--store", nargs="?", const=True, default=None, metavar="DIR",
                         help="result store location (default: $REPRO_STORE or "
                              "./.repro-store); the sweep always uses a store")
    p_sweep.add_argument("--fabric", type=int, default=None, metavar="N",
                         help="lease ensemble blocks to N broker-managed "
                              "worker processes (bit-identical to local "
                              "execution; killed workers re-queue)")
    p_sweep.add_argument("--threads", default=None, metavar="N",
                         help="compiled-tier thread budget for the driver "
                              "process: 'auto' or a positive integer "
                              "(pool/fabric workers stay at 1 thread unless "
                              "an explicit budget is set here)")
    p_sweep.add_argument("--out", default=None,
                         help="also save CSV/JSON per run, one "
                              "<id>-<key> subdirectory per grid cell")
    p_sweep.add_argument("--progress", action="store_true", help="print progress")

    p_desc = sub.add_parser("describe", help="analyse a bin-array spec against the theorems")
    p_desc.add_argument("spec", help="bin spec like '1x500,10x500'")
    p_desc.add_argument("--d", type=int, default=2, help="choices per ball")

    p_sim = sub.add_parser("simulate", help="run one allocation and print statistics")
    p_sim.add_argument("spec", help="bin spec like '1x500,10x500'")
    p_sim.add_argument("--balls", type=int, default=None, help="number of balls (default C)")
    p_sim.add_argument("--d", type=int, default=2, help="choices per ball")
    p_sim.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_sim.add_argument("--threads", default=None, metavar="N",
                       help="compiled-tier thread budget: 'auto' or a "
                            "positive integer (a scalar run auto-resolves "
                            "to 1; explicit budgets are honored)")

    p_report = sub.add_parser("report", help="run experiments and write a markdown report")
    p_report.add_argument("--scale", type=float, default=None, help="repetition scale")
    p_report.add_argument("--seed", type=int, default=None, help="master seed")
    p_report.add_argument("--workers", type=int, default=1, help="worker processes")
    p_report.add_argument("--engine", choices=["scalar", "ensemble"], default=None,
                          help="repetition engine where supported (see ROADMAP engine matrix)")
    p_report.add_argument("--store", nargs="?", const=True, default=None, metavar="DIR",
                          help="cache runs through the result store at DIR "
                               "(default: $REPRO_STORE or ./.repro-store)")
    p_report.add_argument("--out", default="results", help="output directory")
    p_report.add_argument("--only", default=None, help="comma-separated experiment ids")
    p_report.add_argument("--title", default="Balls into non-uniform bins — experiment report")
    p_report.add_argument("--progress", action="store_true", help="print progress")

    p_verify = sub.add_parser("verify", help="check every analytical claim against simulation")
    p_verify.add_argument("--n", type=int, default=1000, help="problem size for the checks")
    p_verify.add_argument("--seed", type=int, default=None, help="master seed")

    def add_service_options(p):
        p.add_argument("--peers", type=int, default=16,
                       help="initial peer count (default 16)")
        p.add_argument("--d", type=int, default=2, help="choices per request")
        p.add_argument("--refresh-every", type=int, default=64, metavar="T",
                       help="staleness bound: placements per load snapshot")
        p.add_argument("--virtual-nodes", type=int, default=1,
                       help="virtual positions per peer")
        p.add_argument("--seed", type=int, default=0,
                       help="root seed (traces, tie-breaking, churn victims)")

    p_replay = sub.add_parser(
        "replay", help="deterministically replay an open-loop trace"
    )
    add_service_options(p_replay)
    p_replay.add_argument("--requests", type=int, default=10_000,
                          help="trace length (default 10000)")
    p_replay.add_argument("--users", type=int, default=1_000_000,
                          help="simulated user universe")
    p_replay.add_argument("--objects", type=int, default=100_000,
                          help="object universe for popularity")
    p_replay.add_argument("--zipf", type=float, default=1.1,
                          help="Zipf popularity exponent")
    p_replay.add_argument("--rate", type=float, default=10_000.0,
                          help="mean arrival rate (req/s of simulated time)")
    p_replay.add_argument("--amplitude", type=float, default=0.5,
                          help="diurnal modulation amplitude in [0,1)")
    p_replay.add_argument("--churn-events", type=int, default=0,
                          help="membership changes spread over the trace")
    p_replay.add_argument("--pace", type=float, default=0.0,
                          help="replay speed multiple of real time (0 = flat out)")
    p_replay.add_argument("--json", action="store_true",
                          help="print the report as JSON")

    p_serve = sub.add_parser(
        "serve", help="run the allocation service over TCP until interrupted"
    )
    add_service_options(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=7421,
                         help="bind port (0 = ephemeral)")
    p_serve.add_argument("--wal", default=None, metavar="PATH",
                         help="write-ahead log for crash-safe serving; an "
                              "existing log restarts the service from it "
                              "(service options then come from the log)")
    p_serve.add_argument("--wal-sync-every", type=int, default=1, metavar="N",
                         help="fsync once per N appends (1 = every record "
                              "durable before its reply)")
    p_serve.add_argument("--fault-plan", default=None, metavar="JSON|PATH",
                         help="inject a deterministic fault plan "
                              "(service.faults.FaultPlan JSON, inline or a "
                              "file) into the server loop")

    p_recover = sub.add_parser(
        "recover", help="rebuild service state from a write-ahead log and print it"
    )
    p_recover.add_argument("wal", help="path to the write-ahead log")
    p_recover.add_argument("--json", action="store_true",
                           help="print the recovered stats as JSON")

    p_tune = sub.add_parser("tune", help="search for the optimal probability exponent")
    p_tune.add_argument("spec", help="bin spec like '1x50,3x50'")
    p_tune.add_argument("--reps", type=int, default=100, help="simulations per grid point")
    p_tune.add_argument("--t-min", type=float, default=0.0, help="lower end of the sweep")
    p_tune.add_argument("--t-max", type=float, default=4.0, help="upper end of the sweep")
    p_tune.add_argument("--d", type=int, default=2, help="choices per ball")
    p_tune.add_argument("--seed", type=int, default=None, help="RNG seed")

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is not None:
        try:
            set_threads(args.threads)
        except ValueError as exc:
            parser.error(str(exc))
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "describe": _cmd_describe,
        "simulate": _cmd_simulate,
        "tune": _cmd_tune,
        "verify": _cmd_verify,
        "report": _cmd_report,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
