"""Fabric session: broker + worker fleet + the executor activation hook.

:class:`FabricSession` owns one :class:`~.broker.Broker` (daemon thread in
the driver process) and N worker subprocesses.  While a session is
*activated* (``with session.activate(): ...``),
:func:`~repro.runtime.executor.run_ensemble_reduced` routes every
fixed-budget block batch through :meth:`FabricSession.run_blocks` instead
of its local serial/pool paths — no experiment signature changes, the
dispatch is ambient, exactly like ``forced_tier``.

Bit-identity argument (the fabric clause of the seed contract): block
boundaries and child seeds are pure functions of ``(seed, repetitions,
block_size)``; workers rebuild each block's seeds from the pickled spawn
spec, so block ``[i0, i1)`` computes the same reducer on any worker; the
driver merges the parked reducers in block order, exactly as the serial
path merges its blocks, and saves its checkpoint once for the whole run
(the parks are the per-block resume state).  Which worker ran a block,
how many workers there were, and how many died are all invisible to the
numbers.

Adaptive (``until=``) runs do **not** dispatch to the fabric — their
stopping decision consumes the block stream sequentially, which is what
the local bounded-look-ahead path is for — and runs without pending blocks
skip the fabric trivially (checkpoint-complete resumes stay pure lookups).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ...io.atomicio import atomic_write
from ...io.store import CheckpointSlot, ResultStore, resolve_store
from ..progress import make_reporter
from .broker import Broker
from .protocol import park_fingerprint, park_path, spec_path, work_token

__all__ = ["FabricSession", "current_fabric"]

#: Activation stack (module-level, like ``forced_tier``'s pin): the executor
#: asks :func:`current_fabric` before every fixed-budget reduced run.
_ACTIVE: list["FabricSession"] = []


def current_fabric() -> "FabricSession | None":
    """The innermost activated session, or ``None`` (local execution)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def local_execution():
    """Run the enclosed reduced runs in-process, even inside an activated
    session (the sessions are active again on exit)."""
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE[:] = saved


class FabricSession:
    """One broker plus a fleet of local worker processes.

    ``store`` is the shared medium (any :func:`~repro.io.store.resolve_store`
    argument); without one the session owns a temporary store that vanishes
    on :meth:`close` — pass the sweep's store to get cross-restart resume
    of parked blocks.  ``lease_ttl`` is the silent-worker re-queue horizon
    (keep the default for real runs; tests shrink it to exercise expiry).

    Worker subprocesses inherit the driver's ``sys.path`` via
    ``PYTHONPATH`` so any task the driver can pickle, a worker can
    unpickle — including tasks defined in test modules.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store=None,
        lease_ttl: float = 10.0,
        spawn_workers: bool = True,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._own_root: Path | None = None
        if store is None:
            self._own_root = Path(tempfile.mkdtemp(prefix="repro-fabric-"))
            store = ResultStore(self._own_root)
        self.store = resolve_store(store)
        self.broker = Broker(lease_ttl=lease_ttl).start()
        self._procs: list[subprocess.Popen] = []
        self._closed = False
        if spawn_workers:
            self.spawn_workers(workers)

    # -- fleet management -------------------------------------------------

    def spawn_workers(self, count: int) -> list[int]:
        """Start *count* worker subprocesses; return their pids."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p or os.getcwd() for p in sys.path)
        host, port = self.broker.address
        pids = []
        for _ in range(count):
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.fabric.worker",
                    "--address",
                    f"{host}:{port}",
                    # Let workers probe for a dead broker instead of
                    # blocking on recv forever (the broker thread lives
                    # in this driver process).
                    "--broker-pid",
                    str(os.getpid()),
                ],
                env=env,
            )
            self._procs.append(proc)
            pids.append(proc.pid)
        return pids

    @property
    def worker_pids(self) -> list[int]:
        """Pids of the workers this session spawned that are still alive."""
        return [p.pid for p in self._procs if p.poll() is None]

    def _fleet_is_gone(self) -> bool:
        """No spawned worker alive and nothing external connected."""
        return (
            all(p.poll() is not None for p in self._procs)
            and self.broker.worker_count() == 0
        )

    # -- activation -------------------------------------------------------

    @contextlib.contextmanager
    def activate(self):
        """Route fixed-budget reduced runs through this session's fleet."""
        if self._closed:
            raise RuntimeError("fabric session is closed")
        _ACTIVE.append(self)
        try:
            yield self
        finally:
            _ACTIVE.remove(self)

    # -- the work ---------------------------------------------------------

    def run_blocks(
        self,
        task,
        pending,
        *,
        seed,
        repetitions: int,
        block_size,
        kwargs,
        label=None,
        progress=None,
        on_collected=None,
    ) -> list:
        """Run *pending* blocks on the fleet; return reducers in block order.

        Content-addressed end to end: blocks already parked under this
        work set's token (an earlier attempt that died, another driver of
        the same run) are collected without recomputation, and the rest
        are leased out.  Once every reducer is in hand,
        ``on_collected(reducers)`` (the executor's merge and its one
        checkpoint save) runs, and only after it returns is the work set's
        scratch namespace dropped — a driver that dies or raises in
        between leaves the parks for its rerun to collect.  Raises
        :class:`~repro.runtime.executor.TaskError` when a block's task
        keeps failing or the whole fleet dies.
        """
        from ..executor import TaskError, block_seed_spec

        pending = [(int(i0), int(i1)) for i0, i1 in pending]
        spec = block_seed_spec(seed)
        token = work_token(task, repetitions, block_size, spec, kwargs)
        directory = self.store.fabric_dir(token)
        prefix = f"{label} " if label else ""

        reporter = make_reporter(progress)
        reporter.start(sum(i1 - i0 for i0, i1 in pending), label="repetitions")
        results: dict[int, object] = {}
        todo = []
        for i0, i1 in pending:
            state = CheckpointSlot(park_path(directory, i0)).load(
                park_fingerprint(token, i0, i1)
            )
            if state is not None:
                results[i0] = state[0]
                reporter.advance(i1 - i0)
            else:
                todo.append((i0, i1))

        if todo:
            # Token-determined, so attempts agree on it; rewritten on every
            # submission because it is not fsynced (a crash may tear it).
            with atomic_write(spec_path(directory), "wb", durable=False) as fh:
                pickle.dump(
                    {
                        "task": task,
                        "kwargs": kwargs or {},
                        "seed_spec": spec,
                        "label": label,
                    },
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            ws = self.broker.submit(token, directory, todo)
            try:
                self._wait(ws, reporter, prefix)
            finally:
                self.broker.finish(token)
            for i0, i1 in todo:
                state = CheckpointSlot(park_path(directory, i0)).load(
                    park_fingerprint(token, i0, i1)
                )
                if state is None:
                    raise TaskError(
                        f"{prefix}ensemble block [{i0}, {i1}) reported done "
                        f"but its parked result is missing or invalid"
                    )
                results[i0] = state[0]
        reporter.finish()
        reducers = [results[i0] for i0, _ in pending]
        if on_collected is not None:
            on_collected(reducers)
        self.store.clear_fabric(token)
        return reducers

    def stats(self) -> dict[str, int]:
        """The broker's lease-health counters as a plain dict (see
        :data:`~.broker.STAT_NAMES`): leases granted, blocks done, task
        failures, lease expiries, re-queues, disconnects while holding a
        lease, and requests held / woken by work / released idle.  They
        count messages and leases, never repetitions, and enter no digest,
        work token or cache key."""
        return self.broker.stats()

    def _wait(self, ws, reporter, prefix: str) -> None:
        """Block until the work set completes; surface progress + failures."""
        from ..executor import TaskError

        reported = 0
        while not ws.event.wait(0.05):
            done = ws.done_repetitions()
            if done > reported:
                reporter.advance(done - reported)
                reported = done
            if self._fleet_is_gone():
                # Give the broker loop one tick to reap in-flight parks
                # before declaring the fleet dead.
                time.sleep(self.broker.tick * 2)
                if not ws.event.is_set() and self._fleet_is_gone():
                    self.broker.abort(
                        ws.token, "every fabric worker exited mid-flight"
                    )
        done = ws.done_repetitions()
        if done > reported:
            reporter.advance(done - reported)
        if ws.error is not None:
            raise TaskError(f"{prefix}fabric work set failed: {ws.error}")

    # -- teardown ---------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Drain the fleet (held workers are told to shut down at once,
        busy ones after their block), stop the broker, and drop a
        session-owned temporary store."""
        if self._closed:
            return
        self._closed = True
        self.broker.drain()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining or 0.1)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.broker.stop()
        if self._own_root is not None:
            shutil.rmtree(self._own_root, ignore_errors=True)

    def __enter__(self) -> "FabricSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
