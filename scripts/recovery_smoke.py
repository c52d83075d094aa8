#!/usr/bin/env python
"""Crash-recovery smoke: SIGKILL mid-trace, WAL restart, bit-identical digest.

The end-to-end gate for the crash-safe serving layer (``make check``):

1. replay the request/churn sequence **in process** — the uninterrupted
   reference digest and per-peer counts;
2. start ``repro serve --wal`` as a subprocess with a fault plan that
   (a) drops the connection after applying one request (the lost-reply
   case) and (b) ``SIGKILL``s the server at a later request — no
   shutdown handler, no flush-on-exit, connections torn mid-flight;
3. a watchdog restarts ``repro serve`` on the same port from the same
   WAL the instant the first process dies;
4. the retrying client drives the whole trace through the outage —
   timeouts, reconnects, and sequence-id dedup are what keep the
   transcript exactly-once;
5. require the final placement digest and per-peer counts **bit-for-bit
   equal** to the uninterrupted reference, and an offline
   ``AllocationService.recover`` of the final WAL to agree again;
6. group commit under a crash: at pipeline depths 1, 16 and 128 a driver
   keeps that many idempotent allocs in flight (rotating over several
   client ids, since a batch carries each client once) against a fresh
   ``repro serve --wal`` that SIGKILLs itself at a seeded request index.
   Every reply the driver received must be among the placements of the
   log (expanded from its window frames by ``logged_events``) that
   ``AllocationService.recover`` rebuilds (acked => durable), and the
   recovered service must hold exactly the requests before the kill, with
   the uninterrupted reference's digest at that point.

Exit code 0 means every check passed.  Budgeted at ~5 seconds (five
subprocess interpreter start-ups dominate).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(SRC))

from repro.service import (
    AllocationService,
    ChurnAction,
    RetryingClient,
    TraceSpec,
    WriteAheadLog,
    generate_trace,
    logged_events,
)
from repro.sampling.rngutils import make_rng

SEED = 20260808
PEERS = 8
SPEC = TraceSpec(
    requests=420, users=1_000, objects=400, zipf_s=1.1, rate=1_000.0, seed=SEED
)
D = 2
REFRESH_EVERY = 32
#: Churn ops the client issues before the request at these trace indices.
CHURN_AT = {100: "join", 180: "leave"}
#: Wire-request index whose reply is dropped after applying (lost reply —
#: the retry must be answered from the dedup table, not re-placed).
DROP_AFTER = 140
#: Wire-request index at which server 1 SIGKILLs itself.
KILL_AT = 260
#: Pipeline depths of the group-commit crash pass.
DEPTHS = (1, 16, 128)
#: Client ids the pipelined driver rotates through.
PIPELINE_CLIENTS = 8


def _reference(keys):
    """The uninterrupted in-process run."""
    service = AllocationService(
        [f"peer-{i}" for i in range(PEERS)],
        d=D, refresh_every=REFRESH_EVERY, seed=SEED,
    )
    for i, key in enumerate(keys):
        if i in CHURN_AT:
            service.apply_churn(ChurnAction(time=0.0, kind=CHURN_AT[i]))
        service.allocate(key)
    stats = service.stats()
    return stats["placement_digest"], stats["load"]["per_peer"]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _serve_cmd(port: int, wal: Path, fault_plan: dict | None) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--peers", str(PEERS), "--d", str(D),
        "--refresh-every", str(REFRESH_EVERY), "--seed", str(SEED),
        "--wal", str(wal),
    ]
    if fault_plan is not None:
        cmd += ["--fault-plan", json.dumps(fault_plan)]
    return cmd


def _pipelined_requests(keys):
    """``(line, client, seq)`` per alloc, clients in rotation."""
    out = []
    for i, key in enumerate(keys):
        client, seq = f"p{i % PIPELINE_CLIENTS}", i // PIPELINE_CLIENTS + 1
        line = json.dumps({"op": "alloc", "key": key, "client": client, "seq": seq})
        out.append(((line + "\n").encode(), client, seq))
    return out


async def _pipeline(port: int, lines, depth: int) -> list[dict]:
    """Keep up to *depth* requests in flight until the server dies; return
    the replies received, in request order."""
    for _ in range(200):
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            break
        except OSError:
            await asyncio.sleep(0.02)
    else:
        raise RuntimeError(f"server on port {port} never listened")
    replies, progress = [], asyncio.Event()

    async def read_replies():
        try:
            while line := await reader.readline():
                replies.append(json.loads(line))
                progress.set()
        except ConnectionError:
            pass
        finally:
            progress.set()

    reading = asyncio.create_task(read_replies())
    sent = 0
    try:
        while sent < len(lines) and not reading.done():
            if sent - len(replies) >= depth:
                progress.clear()
                await progress.wait()
                continue
            writer.write(lines[sent])
            sent += 1
            await writer.drain()
    except ConnectionError:
        pass
    await asyncio.wait_for(reading, timeout=10)
    writer.close()
    return replies


def _pipelined_crash_pass(keys, env, tmp: Path) -> bool:
    """Acked => durable at pipeline depths :data:`DEPTHS` (module doc, 6)."""
    requests = _pipelined_requests(keys)
    reference = AllocationService(
        [f"peer-{i}" for i in range(PEERS)],
        d=D, refresh_every=REFRESH_EVERY, seed=SEED,
    )
    ref_digests = [reference.placement_digest()]
    for key, (_, client, seq) in zip(keys, requests):
        reference.allocate(key, client=client, seq=seq)
        ref_digests.append(reference.placement_digest())
    kill_rng = make_rng(SEED)
    for depth in DEPTHS:
        kill_at = int(kill_rng.integers(200, len(requests)))
        wal = tmp / f"pipelined-{depth}.wal"
        port = _free_port()
        proc = subprocess.Popen(
            _serve_cmd(port, wal, {"kill_at": kill_at}), env=env,
            stdout=subprocess.DEVNULL)
        try:
            held = asyncio.run(_pipeline(port, [r[0] for r in requests], depth))
        finally:
            if proc.wait(timeout=10) != -signal.SIGKILL:
                print(f"RECOVERY SMOKE FAILURE: depth {depth}: server exited "
                      f"{proc.returncode!r}, expected -SIGKILL", file=sys.stderr)
                return False
        logged = {(e["c"], e["s"]): e["p"]
                  for e in logged_events(WriteAheadLog(wal).scan().records[1:])
                  if e["t"] == "alloc"}
        lost = [i for i, reply in enumerate(held)
                if not reply.get("ok")
                or logged.get(requests[i][1:]) != reply.get("peer")]
        recovered = AllocationService.recover(wal)
        recovered.close_wal()
        if lost or len(held) < kill_at - depth:
            print(f"RECOVERY SMOKE FAILURE: depth {depth}: {len(lost)} of "
                  f"{len(held)} acknowledged replies missing from the "
                  f"recovered log (kill at request {kill_at})", file=sys.stderr)
            return False
        if (recovered.requests, recovered.placement_digest()) != (
                kill_at, ref_digests[kill_at]):
            print(f"RECOVERY SMOKE FAILURE: depth {depth}: recovered "
                  f"{recovered.requests} placements, expected the "
                  f"uninterrupted reference's first {kill_at}", file=sys.stderr)
            return False
        print(f"depth {depth:3d}: SIGKILL at request {kill_at}; all "
              f"{len(held)} acknowledged replies are in the recovered log, "
              f"whose digest is the reference's at {kill_at}")
    return True


def main() -> int:
    started = time.perf_counter()
    trace = generate_trace(SPEC)
    keys = list(trace.keys())
    ref_digest, ref_loads = _reference(keys)
    print(f"uninterrupted reference: digest {ref_digest[:16]}...")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    with tempfile.TemporaryDirectory(prefix="recovery-smoke-") as tmp:
        wal = Path(tmp) / "service.wal"
        port = _free_port()
        plan = {"drop_after": [DROP_AFTER], "kill_at": KILL_AT}
        proc1 = subprocess.Popen(_serve_cmd(port, wal, plan), env=env)

        # The watchdog restarts from the WAL the moment server 1 dies —
        # the client meanwhile retries into the outage window.
        outage = {}

        def watchdog():
            proc1.wait()
            outage["rc"] = proc1.returncode
            outage["proc2"] = subprocess.Popen(
                _serve_cmd(port, wal, None), env=env)

        threading.Thread(target=watchdog, daemon=True).start()

        proc2 = None
        try:
            with RetryingClient(
                ("127.0.0.1", port), client_id="smoke", timeout=1.0,
                max_attempts=60, backoff_base=0.05, backoff_cap=0.5,
                jitter_seed=SEED,
            ) as client:
                for i, key in enumerate(keys):
                    if i in CHURN_AT:
                        client.churn(CHURN_AT[i])
                    client.alloc(key)
                stats = client.stats()
                retries = client.retries
                dups = client.dup_replies
            proc2 = outage.get("proc2")

            if outage.get("rc") != -signal.SIGKILL:
                print(f"RECOVERY SMOKE FAILURE: server 1 exited {outage.get('rc')!r}, "
                      f"expected -SIGKILL", file=sys.stderr)
                return 1
            if retries < 1 or dups < 1:
                print(f"RECOVERY SMOKE FAILURE: expected retries and a dedup "
                      f"hit through the outage (retries={retries}, "
                      f"dup_replies={dups})", file=sys.stderr)
                return 1
            wire = (stats["placement_digest"], stats["load"]["per_peer"])
            if wire != (ref_digest, ref_loads):
                print("RECOVERY SMOKE FAILURE: post-crash transcript diverged "
                      f"from the uninterrupted reference (digest "
                      f"{wire[0][:16]}... vs {ref_digest[:16]}...)",
                      file=sys.stderr)
                return 1
            print(f"crashed-and-recovered == uninterrupted: digest and "
                  f"per-peer counts bit-identical through {retries} "
                  f"retries ({dups} dedup hit(s); "
                  f"{stats['wal']['recovered']} WAL record(s) recovered)")
        finally:
            proc2 = proc2 or outage.get("proc2")
            if proc2 is not None:
                proc2.terminate()
                proc2.wait(timeout=10)
            if proc1.poll() is None:
                proc1.kill()
                proc1.wait(timeout=10)

        # Offline cross-check: recovering the final WAL in this process
        # must reproduce the same digest and counts a third way.
        offline = AllocationService.recover(wal)
        offline.close_wal()
        if offline.placement_digest() != ref_digest:
            print("RECOVERY SMOKE FAILURE: offline WAL recovery digest "
                  f"{offline.placement_digest()[:16]}... != reference",
                  file=sys.stderr)
            return 1
        offline_loads = offline.stats()["load"]["per_peer"]
        if offline_loads != ref_loads:
            print("RECOVERY SMOKE FAILURE: offline WAL recovery loads diverged",
                  file=sys.stderr)
            return 1
        print("offline recover of the final WAL agrees")

        if not _pipelined_crash_pass(keys, env, Path(tmp)):
            return 1
    print(f"total {time.perf_counter() - started:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
