"""``serve``: the WAL-backed TCP service under an open-loop generator.

A server process (``serve_launcher.py``) runs the ``replay`` service
configuration with a write-ahead log at the server default ``sync_every=1``
(one fsync per record).  One pipelined asyncio connection drives it from
the same trace shape:

* phase A — open loop at a fixed offered rate (:data:`RATE`, Poisson
  arrivals from the seed, about half of saturation here) for half the run;
  latency is timed from each request's due time;
* phase B — flat out over the same connection (at most :data:`WINDOW`
  requests in flight) for the other half: completions per second.

The server is then stopped with SIGINT (so it closes its WAL) and
:meth:`AllocationService.recover` rebuilds the log offline.  The check: the
wire ``stats`` digest and per-peer counts, an in-process reference fed the
same operations, and the recovered service all agree.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from common import (CheckFailed, SpeedMeter, iqm_ms, median, metric, out_dir,
                    percentile_ms, speed_factor, windowed_percentile_ms)
from replay import CHURN_EVENTS, balance_probe, churn_positions, make_service, make_trace

#: Offered rate of phase A, requests per second.
RATE = 1000.0
#: Phase B's bound on requests in flight.
WINDOW = 128
#: Offline recoveries of the run's WAL; the recovery rate is over all.
RECOVERIES = 2
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


def _ops(seed, phase_a_allocs):
    """Operation sequence: trace allocations with 8 churn events spread over
    phase A's stretch of the trace, in :meth:`replay` order."""
    from repro.service import generate_churn_schedule

    trace = make_trace(seed)
    churn = generate_churn_schedule(
        CHURN_EVENTS, float(trace.times[phase_a_allocs - 1]), seed=seed)
    at = churn_positions(trace, churn)
    ops, c = [], 0
    for j, obj in enumerate(trace.objects.tolist()):
        while c < len(churn) and at[c] <= j:
            ops.append(("churn", churn[c].kind))
            c += 1
        ops.append(("alloc", f"obj-{obj}"))
    return ops


def _line(op) -> bytes:
    kind, arg = op
    if kind == "alloc":
        return b'{"op":"alloc","key":"%s"}\n' % arg.encode()
    return b'{"op":"churn","kind":"%s"}\n' % arg.encode()


def _launch(ctx, wal_dir):
    summary = wal_dir / "summary.json"
    cmd = [sys.executable, str(LAUNCHER), "--wal", str(wal_dir / "service.wal"),
           "--seed", str(ctx.seed), "--summary", str(summary)]
    if ctx.traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ctx.root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline().split()
    if len(line) != 3 or line[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start (said {line!r})")
    return proc, (line[1], int(line[2])), summary


def _ping(addr) -> None:
    """Untimed warm-up request over a throwaway connection."""
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(b'{"op":"ping"}\n')
        if b"pong" not in sock.makefile("rb").readline():
            raise RuntimeError("server did not answer ping")


def setup(ctx):
    phase_a_allocs = int(RATE * ctx.seconds / 2)
    ops = _ops(ctx.seed, phase_a_allocs)
    # Every churn event falls inside phase A's stretch of the trace.
    n_a = phase_a_allocs + CHURN_EVENTS
    rng = np.random.default_rng([ctx.seed, 1])
    due = np.cumsum(rng.exponential(1.0 / RATE, n_a))
    wal_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir(ctx.root)))
    state = {"ops": ops, "lines": [_line(op) for op in ops], "n_a": n_a,
             "due": due, "wal_dir": wal_dir, "proc": None}
    state["proc"], state["addr"], state["summary"] = _launch(ctx, wal_dir)
    _ping(state["addr"])
    return state


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def teardown(state) -> None:
    _stop(state["proc"])
    shutil.rmtree(state["wal_dir"], ignore_errors=True)


async def _drive(addr, lines, due, n_a, seconds_b):
    """Phase A on schedule, phase B flat out; returns timings and replies."""
    reader, writer = await asyncio.open_connection(*addr, limit=1 << 20)
    n = len(lines)
    done_t = np.zeros(n)
    late = np.zeros(n_a)
    st = {"sent": 0, "done": 0, "bad": 0, "backlog": 0}
    progress = asyncio.Event()

    async def read_replies():
        while True:
            line = await reader.readline()
            if not line:
                return
            done_t[st["done"]] = perf_counter()
            if b'"ok":true' not in line:
                st["bad"] += 1
            st["done"] += 1
            progress.set()

    replies = asyncio.create_task(read_replies())
    t0 = perf_counter() + 0.05
    ta = t0 + due[0]
    for i in range(n_a):
        # Sleep to within 2 ms of the due time (the event loop's timer is
        # coarse), then spin, still yielding so replies are stamped on time.
        while (wait := t0 + due[i] - perf_counter()) > 0:
            await asyncio.sleep(wait - 0.002 if wait > 0.002 else 0)
        late[i] = -wait
        writer.write(lines[i])
        st["sent"] += 1
        st["backlog"] = max(st["backlog"], st["sent"] - st["done"])
        await writer.drain()
    tb = perf_counter()
    i = n_a
    while i < n and perf_counter() - tb < seconds_b:
        while st["sent"] - st["done"] >= WINDOW:
            progress.clear()
            await progress.wait()
        writer.write(lines[i])
        st["sent"] += 1
        i += 1
        await writer.drain()
    while st["done"] < st["sent"]:
        progress.clear()
        await progress.wait()
    t_end = perf_counter()
    replies.cancel()
    try:
        await replies
    except asyncio.CancelledError:
        pass
    writer.write(b'{"op":"stats"}\n')
    await writer.drain()
    stats = json.loads(await reader.readline())["stats"]
    writer.close()
    await writer.wait_closed()
    return {
        "latency": done_t[:n_a] - (t0 + due),
        "due": t0 + due,
        "late": late,
        "sent": st["sent"],
        "bad": st["bad"],
        "backlog": st["backlog"],
        "phase_a": (ta, tb),
        "phase_b": (st["sent"] - n_a, tb, t_end),
        "stats": stats,
    }


def _reference(seed, ops):
    """Stats of an in-process service fed the same operations."""
    from repro.service.traces import ChurnAction

    svc = make_service(seed)
    for kind, arg in ops:
        if kind == "alloc":
            svc.allocate(arg)
        else:
            svc.apply_churn(ChurnAction(time=0.0, kind=arg))
    return svc.stats()


def _server_layers(ctx, server) -> None:
    """Fold the server's spans into the run's and derive its front-end
    time: server CPU outside placement, churn and the WAL (fsync waits are
    wall time, not CPU, so they come back out of the subtraction)."""
    from spans import load_dump, summarize

    names, counts, arrays = load_dump(server["spans"])
    spans = summarize(names, *arrays)
    busy = sum(spans.get(n, {}).get("total_s", 0.0)
               for n in ("service.allocate", "service.churn"))
    fsync_wait = spans.get("service.wal.flush", {}).get("total_s", 0.0)
    ctx.layer_extra["service.frontend.self_s"] = max(
        0.0, server["cpu_s"] - (busy - fsync_wait))
    ctx.other_spans.append((spans, counts))


def measure(ctx, state, seconds):
    from repro.service import AllocationService, WriteAheadLog

    # Start from a quiet disk: write back what earlier runs left dirty, so
    # their writeback does not land in this run's fsyncs.
    os.sync()
    run = asyncio.run(_drive(state["addr"], state["lines"], state["due"],
                             state["n_a"], seconds / 2))
    _stop(state["proc"])
    with open(state["summary"]) as fh:
        server = json.load(fh)

    wal_path = state["wal_dir"] / "service.wal"
    recover_s, recover_norm = [], []
    with SpeedMeter() as meter:
        for _ in range(RECOVERIES):
            t0, probed = perf_counter(), meter.total
            recovered = AllocationService.recover(WriteAheadLog(wal_path))
            t1 = perf_counter()
            recover_s.append(t1 - t0 - (meter.total - probed))
            recover_norm.append(recover_s[-1] / meter.factor(t0, t1))
            recovered.close_wal()
    with ctx.paused():
        ref_stats = _reference(ctx.seed, state["ops"][:run["sent"]])
        balance = balance_probe(ctx.seed)

    views = {"wire": run["stats"], "reference": ref_stats,
             "recovered": recovered.stats()}
    keys = {name: (s["placement_digest"], s["load"]["per_peer"], s["requests"])
            for name, s in views.items()}
    mismatched = [name for name, k in keys.items() if k != keys["reference"]]
    failed = run["bad"] + len(mismatched)
    if mismatched:
        ctx.fail(CheckFailed(f"serve: {mismatched} disagree with the reference"))
    if run["bad"]:
        ctx.fail(CheckFailed(f"serve: {run['bad']} request(s) answered not ok"))

    # Server-side speed over each phase (see common.SpeedMeter).
    speed = server["speed"]
    sent_b, tb, t_end = run["phase_b"]
    sat_raw = sent_b / (t_end - tb)
    # Phase B's time at reference speed, summed over half-second windows.
    edges = np.linspace(tb, t_end, max(2, int((t_end - tb) / 0.5) + 1))
    b_time = sum((hi - lo) / speed_factor(speed["times"], speed["probes"], lo, hi)
                 for lo, hi in zip(edges[:-1], edges[1:]))
    records = recovered.recovered_records
    lat = run["latency"].copy()
    for part in np.array_split(np.arange(lat.size), max(1, lat.size // int(RATE))):
        due = run["due"][part]
        lat[part] /= speed_factor(speed["times"], speed["probes"], due[0], due[-1])
    ctx.layer_extra.update({
        "service.wal.fsyncs": server["wal"]["fsyncs"],
        "service.wal.bytes": wal_path.stat().st_size,
        "serve.gen.late_ms": percentile_ms(run["late"], 99),
        "serve.backlog.max": run["backlog"],
    })
    if server["spans"]:
        _server_layers(ctx, server)
    return {
        "attempted": run["sent"],
        "failed": failed,
        "metrics": {
            "throughput_per_s": metric(sent_b / b_time, "1/s", sent_b),
            "secondary_per_s": metric(records * RECOVERIES / sum(recover_norm), "1/s",
                                      records * RECOVERIES),
            "latency_mid_ms": metric(iqm_ms(lat), "ms", lat.size),
            "latency_tail_ms": metric(windowed_percentile_ms(lat, 90, int(RATE)),
                                      "ms", lat.size),
            "max_over_mean": metric(balance, "ratio"),
            "peak_rss_mb": metric(server["peak_rss_mb"], "MB"),
        },
        "report": {
            "serve.latency_ms.p50": (percentile_ms(lat, 50), "ms"),
            "serve.latency_ms.p90": (percentile_ms(lat, 90), "ms"),
            "serve.latency_ms.p99.windowed": (windowed_percentile_ms(lat, 99, int(RATE)), "ms"),
            "serve.latency_ms.p99": (percentile_ms(lat, 99), "ms"),
            "serve.latency_ms.p99.raw": (percentile_ms(run["latency"], 99), "ms"),
            "serve.offered_rps": (RATE, "1/s"),
            "serve.sat_rps": (sent_b / b_time, "1/s"),
            "serve.sat_rps.raw": (sat_raw, "1/s"),
            "serve.recover_s": (median(recover_s), "s"),
            "serve.wal_records": (records, "count"),
            "serve.gen.late_ms.p99": (percentile_ms(run["late"], 99), "ms"),
            "serve.backlog.max": (run["backlog"], "count"),
        },
    }
