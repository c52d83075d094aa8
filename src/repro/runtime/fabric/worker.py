"""Fabric worker process: lease blocks, run them, park the reducers.

Run as ``python -m repro.runtime.fabric.worker --address HOST:PORT``.  The
worker is deliberately dumb: it holds no scheduling state.  It sends one
``request``, then loops over the broker's instructions:

    lease    → load spec → rebuild the block's child seeds → run the task
             → park the reducer → done (or failed, with the traceback)
    idle     → sleep ``delay`` → request
    shutdown → exit 0

The reply to ``done``/``failed`` *is* the next instruction, so a block
costs one round trip; the broker holds a request (or a ``done``) while
its queue is empty, so an idle worker waits in ``recv`` rather than
polling, and is woken by the lease itself.

Parks are rename-atomic but not fsynced (``atomic_write(durable=False)``):
a park is a pure function of ``(work_token, block)``, and one lost to a
machine crash reads as "not done" and is recomputed.

A heartbeat daemon thread keeps the broker's lease deadline ahead of a
long-running block; it sends on the shared :class:`~.protocol.Wire` under
the wire's send lock and, per the protocol contract, never reads — only
the main loop consumes replies, so the request/reply pairing cannot skew.

Crash safety needs no code here: a worker killed mid-block simply never
parks, the lease expires, and the broker re-queues; a worker killed
*after* the atomic park but before ``done`` is detected by the broker's
park-file check.  A stale worker (e.g. resumed from ``SIGSTOP`` after its
lease was re-assigned) may park a duplicate — harmless, because the block
is a pure function of its seed slice, so the duplicate is bit-identical
and the park write is atomic either way.

The reverse direction — the *broker* dying under a live worker — is
handled by :func:`_recv_patiently`: every reply wait polls in short ticks
and, between ticks, probes the broker pid (``--broker-pid``, passed by the
launcher) with signal 0; a dead broker or an exhausted deadline raises
``ConnectionError`` and the worker exits 1 instead of blocking on ``recv``
forever (a SIGKILLed broker leaves the TCP connection half-open with no
RST, so without the probe the old blocking read could hang indefinitely).
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import threading
import time
import traceback

from .protocol import Wire, park_fingerprint, park_path, spec_path

__all__ = ["main", "run_worker"]


def _load_spec(directory) -> dict:
    """Unpickle the work set's ``{task, kwargs, seed_spec, label}``."""
    with open(spec_path(directory), "rb") as fh:
        return pickle.load(fh)


def _run_lease(lease: dict, spec: dict):
    """Execute one leased block; return its reducer (exceptions propagate)."""
    from ..executor import seeds_from_spec  # import after spec unpickling

    i0, i1 = int(lease["i0"]), int(lease["i1"])
    seeds = seeds_from_spec(spec["seed_spec"], i0, i1)
    return spec["task"](seeds, **(spec["kwargs"] or {}))


def _park(lease: dict, reducer) -> None:
    from ...io.store import CheckpointSlot

    i0, i1 = int(lease["i0"]), int(lease["i1"])
    slot = CheckpointSlot(park_path(lease["dir"], i0), durable=False)
    slot.save(reducer, 1, park_fingerprint(lease["token"], i0, i1))


def _run_and_report(lease: dict, spec_cache: dict, worker_id: str) -> dict:
    """Run and park one leased block; the ``done`` or ``failed`` report."""
    report = {"worker": worker_id, "token": lease["token"], "i0": lease["i0"]}
    try:
        spec = spec_cache.get(lease["token"])
        if spec is None:
            spec = spec_cache[lease["token"]] = _load_spec(lease["dir"])
        _park(lease, _run_lease(lease, spec))
    except Exception as exc:  # noqa: BLE001 — reported to the broker
        return {**report, "type": "failed",
                "error": f"{exc!r}\n--- worker traceback ---\n"
                         f"{traceback.format_exc()}"}
    return {**report, "type": "done"}


def _heartbeat_loop(wire: Wire, worker_id: str, interval: float, stop) -> None:
    while not stop.wait(interval):
        try:
            wire.send({"type": "heartbeat", "worker": worker_id})
        except OSError:
            return  # main loop will notice the dead socket and exit


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _recv_patiently(
    wire: Wire,
    *,
    broker_pid: int | None,
    tick: float,
    deadline: float,
) -> dict:
    """One broker reply, or ``ConnectionError`` once the broker is gone.

    Waits in *tick*-second slices; after each empty slice, probes the
    broker pid (when known) and gives up outright once *deadline* seconds
    have passed with no reply — a broker that is alive but unresponsive
    for that long (wedged, or SIGSTOPped with the worker's lease long
    re-assigned) is as gone as a dead one.
    """
    waited = 0.0
    while True:
        try:
            return wire.recv(timeout=tick)
        except TimeoutError:
            waited += tick
            if broker_pid is not None and not _pid_alive(broker_pid):
                raise ConnectionError(
                    f"broker process {broker_pid} died") from None
            if waited >= deadline:
                raise ConnectionError(
                    f"no broker reply in {waited:.1f}s "
                    f"(deadline {deadline:g}s)") from None


def run_worker(
    address: tuple[str, int],
    *,
    worker_id: str | None = None,
    broker_pid: int | None = None,
    recv_tick: float = 1.0,
    recv_deadline: float = 30.0,
) -> int:
    """Connect to the broker at *address* and serve leases until shutdown.

    Returns the process exit code (0 = clean shutdown; 1 = lost broker).
    """
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    try:
        sock = socket.create_connection(address, timeout=10.0)
    except OSError as exc:
        print(f"fabric worker: cannot reach broker at {address}: {exc}",
              file=sys.stderr)
        return 1
    sock.settimeout(None)  # reply waits are bounded by _recv_patiently, not the socket
    wire = Wire(sock)
    stop_heartbeats = threading.Event()

    def recv() -> dict:
        return _recv_patiently(
            wire, broker_pid=broker_pid, tick=recv_tick, deadline=recv_deadline)

    try:
        wire.send({"type": "hello", "worker": worker_id})
        welcome = recv()
        interval = float(welcome.get("heartbeat", 2.0))
        threading.Thread(
            target=_heartbeat_loop,
            args=(wire, worker_id, interval, stop_heartbeats),
            name="fabric-heartbeat",
            daemon=True,
        ).start()
        spec_cache: dict[str, dict] = {}
        wire.send({"type": "request", "worker": worker_id})
        while True:
            message = recv()
            kind = message.get("type")
            if kind == "shutdown":
                return 0
            if kind != "lease":  # idle, or a future type: ask again
                time.sleep(float(message.get("delay", 0)))
                wire.send({"type": "request", "worker": worker_id})
                continue
            wire.send(_run_and_report(message, spec_cache, worker_id))
    except (ConnectionError, OSError) as exc:
        print(f"fabric worker {worker_id}: broker lost ({exc}); exiting",
              file=sys.stderr)
        return 1  # broker went away: nothing left to serve
    finally:
        stop_heartbeats.set()
        wire.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro fabric worker")
    parser.add_argument(
        "--address", required=True, metavar="HOST:PORT",
        help="broker address to connect to",
    )
    parser.add_argument(
        "--worker-id", default=None,
        help="identity reported to the broker (default: host-pid)",
    )
    parser.add_argument(
        "--broker-pid", type=int, default=None,
        help="broker process id; probed between recv ticks so a dead "
             "broker is detected even when its socket never resets",
    )
    parser.add_argument(
        "--recv-tick", type=float, default=1.0,
        help="seconds per reply-wait slice between liveness probes",
    )
    parser.add_argument(
        "--recv-deadline", type=float, default=30.0,
        help="give up after this many reply-less seconds even if the "
             "broker pid still exists (keep it above the broker's hold on "
             "an idle request: the heartbeat interval, at most 10 s)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"bad --address {args.address!r}; expected HOST:PORT")
    return run_worker(
        (host, int(port)),
        worker_id=args.worker_id,
        broker_pid=args.broker_pid,
        recv_tick=args.recv_tick,
        recv_deadline=args.recv_deadline,
    )


if __name__ == "__main__":
    sys.exit(main())
