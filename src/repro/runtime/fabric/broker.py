"""The fabric's lease server.

A single-threaded ``selectors`` event loop (running in a daemon thread)
owns all connection state, the work queue, and the lease table — worker
messages and lease-expiry ticks are serialised through it, so there are no
locks around the scheduling decisions themselves, and every socket write
happens on the loop thread.  Driver-side calls (:meth:`Broker.submit`,
:meth:`Broker.finish`, :meth:`Broker.drain`) touch the shared structures
under one re-entrant lock and, where the loop has something new to say,
wake it through a self-pipe (a ``socketpair`` registered in the selector)
instead of writing to a worker themselves.

A ``request`` (or the ``done``/``failed`` that ends a block, whose reply is
the worker's next instruction) that finds the queue empty is *held*: the
worker gets no reply until work arrives — a :meth:`~Broker.submit` or a
re-queue answers it with a lease at once — or the fleet drains
(``shutdown``).  A request held for one heartbeat interval is answered
``idle {delay: 0}``, so an idle worker re-asks once per heartbeat
interval and never trips its reply deadline.  ``tick`` is only the
lease-expiry granularity.

Lease lifecycle::

    queued --request/done--> leased --done/park-detected--> done
       ^                       |
       +-----expiry/death------+   (park file valid? -> done, else re-queue)

Two failure ledgers are kept per block, because death and failure mean
different things:

* a *lost* lease (worker died, socket closed, heartbeats stopped) is
  normal fabric weather — the block re-queues, up to ``max_requeues``
  times, and the broker first checks the park file (the work may have
  completed with only the ``done`` message lost);
* an explicit ``failed`` message means the task itself raised — that is a
  bug in the task, not the fabric, so it caps out at ``max_task_failures``
  and aborts the whole work set with the worker's traceback.

:meth:`Broker.stats` counts leases, completions, failures, expiries,
re-queues, lease-holding disconnects and held requests — per message or
per lease, never per repetition.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

from ...io.store import CheckpointSlot
from .protocol import encode, park_fingerprint, park_path, split_lines

__all__ = ["Broker", "WorkSet"]

#: Per-block cap on explicit task failures before the work set aborts.
MAX_TASK_FAILURES = 3

#: Per-block cap on lost-lease re-queues (worker deaths, expiries) before
#: the work set aborts — a backstop against a block that kills every worker
#: it touches.
MAX_REQUEUES = 16

#: Longest a request is held, whatever the heartbeat interval: a third of
#: the worker's default reply deadline (``--recv-deadline 30``).
MAX_HOLD = 10.0

#: The :meth:`Broker.stats` counters.
STAT_NAMES = (
    "leases_granted",     # lease replies sent
    "blocks_done",        # blocks completed (done message or park found)
    "task_failures",      # failed messages
    "lease_expiries",     # leases whose worker went silent past lease_ttl
    "requeues",           # blocks put back on the queue, any cause
    "lease_disconnects",  # workers that disconnected while holding a lease
    "requests_held",      # requests that found the queue empty
    "held_woken",         # held requests answered with a lease
    "held_released",      # held requests answered idle after a hold period
)

#: Selector tag of the self-pipe's read end.
_WAKE = object()


class WorkSet:
    """One submitted batch of blocks (all state owned by the broker loop).

    The driver holds the object to wait on ``event`` and read ``error`` /
    progress; everything else is broker-internal.
    """

    def __init__(self, token: str, directory, blocks):
        self.token = token
        self.directory = directory
        #: i0 -> (i0, i1) for every block this submission must complete.
        self.blocks = {int(i0): (int(i0), int(i1)) for i0, i1 in blocks}
        self.done: set[int] = set()
        self.failures: dict[int, int] = {}
        self.requeues: dict[int, int] = {}
        self.error: str | None = None
        #: Set when every block is done or the set aborted.
        self.event = threading.Event()

    def finished(self) -> bool:
        return self.error is not None or len(self.done) == len(self.blocks)

    def done_repetitions(self) -> int:
        """Total repetitions covered by completed blocks (progress)."""
        return sum(self.blocks[i0][1] - self.blocks[i0][0] for i0 in self.done)


class _Conn:
    """Per-connection broker state."""

    __slots__ = ("sock", "buffer", "worker", "leases")

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""
        self.worker = None  # id from hello
        self.leases: set[tuple[str, int]] = set()


class Broker:
    """Lease server over localhost TCP; start with :meth:`start`.

    ``lease_ttl`` bounds how long a silent worker may sit on a block before
    it re-queues; heartbeats (sent every ``lease_ttl / 3``, as told to the
    worker in ``welcome``) extend the deadline, and a request held on an
    empty queue is released ``idle`` after the same interval (at most
    :data:`MAX_HOLD`).  ``tick`` is the event loop's longest sleep and
    therefore the expiry-detection granularity; new work and draining wake
    the loop at once.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        *,
        lease_ttl: float = 10.0,
        tick: float = 0.05,
        max_task_failures: int = MAX_TASK_FAILURES,
        max_requeues: int = MAX_REQUEUES,
    ):
        self.lease_ttl = float(lease_ttl)
        self.tick = float(tick)
        self.max_task_failures = int(max_task_failures)
        self.max_requeues = int(max_requeues)
        self._hold = min(self.lease_ttl / 3.0, MAX_HOLD)
        self._listen = socket.create_server((host, 0))
        self._listen.setblocking(False)
        self.address: tuple[str, int] = self._listen.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listen, selectors.EVENT_READ, None)
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._lock = threading.RLock()
        self._worksets: dict[str, WorkSet] = {}
        self._queue: deque[tuple[str, int]] = deque()
        #: (token, i0) -> (conn, monotonic deadline)
        self._leases: dict[tuple[str, int], tuple[_Conn, float]] = {}
        self._conns: list[_Conn] = []
        #: conn -> monotonic time its request was held (insertion = FIFO).
        self._held: dict[_Conn, float] = {}
        self._stats = dict.fromkeys(STAT_NAMES, 0)
        self._draining = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- driver-side API --------------------------------------------------

    def start(self) -> "Broker":
        self._thread = threading.Thread(
            target=self._serve, name="fabric-broker", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, token: str, directory, blocks) -> WorkSet:
        """Register *blocks* of one work set, queue them for leasing, and
        wake the loop so held requests get them at once."""
        ws = WorkSet(token, directory, blocks)
        with self._lock:
            self._worksets[token] = ws
            if not ws.blocks:
                ws.event.set()
            else:
                self._queue.extend((token, i0) for i0 in sorted(ws.blocks))
        self._wake()
        return ws

    def finish(self, token: str) -> None:
        """Drop a collected (or abandoned) work set and purge its queue
        entries; in-flight leases of the set resolve to no-ops."""
        with self._lock:
            self._worksets.pop(token, None)
            self._queue = deque(item for item in self._queue if item[0] != token)
            for key in [k for k in self._leases if k[0] == token]:
                conn, _ = self._leases.pop(key)
                conn.leases.discard(key)

    def abort(self, token: str, reason: str) -> None:
        """Fail a work set from outside (e.g. the launcher noticed every
        worker process exited)."""
        with self._lock:
            ws = self._worksets.get(token)
            if ws is not None and not ws.finished():
                self._fail(ws, reason)

    def drain(self) -> None:
        """Answer held and every subsequent request with ``shutdown``."""
        with self._lock:
            self._draining = True
        self._wake()

    def worker_count(self) -> int:
        """Connected workers that completed the hello handshake."""
        with self._lock:
            return sum(1 for c in self._conns if c.worker is not None)

    def stats(self) -> dict[str, int]:
        """The lease-health counters (:data:`STAT_NAMES`) since start."""
        with self._lock:
            return dict(self._stats)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is None:  # never started: no loop to clean up
            self._close()
            return
        self._wake()
        self._thread.join(timeout=5.0)

    def _wake(self) -> None:
        """Nudge the loop out of ``select`` (any thread)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # buffer full (a wake is pending) or closed
            pass

    # -- event loop -------------------------------------------------------

    def _serve(self) -> None:
        try:
            while not self._stop.is_set():
                for key, _ in self._sel.select(self._timeout()):
                    if key.data is None:
                        self._accept()
                    elif key.data is _WAKE:
                        self._drain_wake()
                    else:
                        self._service(key.data)
                self._expire_leases()
                self._answer_held()
        finally:
            self._close()

    def _close(self) -> None:
        with self._lock:
            for conn in list(self._conns):
                self._drop(conn, reap_leases=False)
        self._sel.close()
        self._listen.close()
        self._wake_r.close()
        self._wake_w.close()

    def _timeout(self) -> float:
        """Sleep until the next tick or the oldest hold's release."""
        with self._lock:
            if not self._held:
                return self.tick
            since = next(iter(self._held.values()))
        return max(0.0, min(self.tick, since + self._hold - time.monotonic()))

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:  # drained (EAGAIN)
            pass

    def _accept(self) -> None:
        try:
            sock, _ = self._listen.accept()
        except OSError:
            return
        sock.setblocking(True)  # reads gated by select; replies are tiny
        conn = _Conn(sock)
        with self._lock:
            self._conns.append(conn)
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _service(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._drop(conn)
            return
        conn.buffer += data
        messages, conn.buffer = split_lines(conn.buffer)
        for message in messages:
            reply = self._handle(conn, message)
            if reply is not None and not self._send(conn, reply):
                return

    def _send(self, conn: _Conn, reply: dict) -> bool:
        try:
            conn.sock.sendall(encode(reply))
        except OSError:
            self._drop(conn)
            return False
        return True

    def _answer_held(self) -> None:
        """Reply to held requests that now have an answer: a lease once
        work is queued, ``shutdown`` once draining, ``idle`` once held for
        a heartbeat interval."""
        replies = []
        with self._lock:
            if not self._held:
                return
            now = time.monotonic()
            for conn, since in list(self._held.items()):
                reply = self._next_instruction(conn, hold=False)
                if reply is not None:
                    if reply["type"] == "lease":
                        self._stats["held_woken"] += 1
                elif now - since >= self._hold:
                    reply = {"type": "idle", "delay": 0}
                    self._stats["held_released"] += 1
                else:
                    continue
                del self._held[conn]
                replies.append((conn, reply))
        for conn, reply in replies:
            self._send(conn, reply)

    def _drop(self, conn: _Conn, *, reap_leases: bool = True) -> None:
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)
            self._held.pop(conn, None)
            if reap_leases:
                if conn.leases:
                    self._stats["lease_disconnects"] += 1
                for key in list(conn.leases):
                    self._leases.pop(key, None)
                    conn.leases.discard(key)
                    self._lost(key, "worker disconnected")

    # -- message handling (broker-loop thread only) -----------------------

    def _handle(self, conn: _Conn, message: dict):
        """The reply to *message*, or ``None`` (a heartbeat, or a request
        held until there is something to say)."""
        kind = message.get("type")
        with self._lock:
            if kind == "hello":
                conn.worker = str(message.get("worker", "?"))
                return {"type": "welcome", "heartbeat": self.lease_ttl / 3.0}
            if kind == "heartbeat":
                deadline = time.monotonic() + self.lease_ttl
                for key in conn.leases:
                    self._leases[key] = (conn, deadline)
                return None  # fire-and-forget by protocol contract
            if kind == "request":
                return self._next_instruction(conn)
            if kind == "done":
                self._mark_done(conn, message)
                return self._next_instruction(conn)
            if kind == "failed":
                self._mark_failed(conn, message)
                return self._next_instruction(conn)
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    def _next_instruction(self, conn: _Conn, *, hold: bool = True):
        """``shutdown`` when draining, else a lease; with nothing queued,
        hold the request (``None``) when *hold*."""
        if self._draining:
            return {"type": "shutdown"}
        lease = self._lease_next(conn)
        if lease is None and hold:
            self._held.setdefault(conn, time.monotonic())
            self._stats["requests_held"] += 1
        return lease

    def _lease_next(self, conn: _Conn):
        while self._queue:
            token, i0 = self._queue.popleft()
            ws = self._worksets.get(token)
            if ws is None or ws.finished() or i0 in ws.done:
                continue
            key = (token, i0)
            if key in self._leases:  # already re-leased elsewhere
                continue
            self._leases[key] = (conn, time.monotonic() + self.lease_ttl)
            conn.leases.add(key)
            self._stats["leases_granted"] += 1
            i0, i1 = ws.blocks[i0]
            return {
                "type": "lease",
                "token": token,
                "dir": str(ws.directory),
                "i0": i0,
                "i1": i1,
            }
        return None

    def _release(self, conn: _Conn, token: str, i0) -> tuple[WorkSet, int] | None:
        """Drop the lease named by a done/failed message; resolve its set."""
        if i0 is None:
            return None
        key = (token, int(i0))
        lease = self._leases.pop(key, None)
        if lease is not None:
            lease[0].leases.discard(key)
        conn.leases.discard(key)
        ws = self._worksets.get(token)
        if ws is None or ws.finished():
            return None
        return ws, int(i0)

    def _mark_done(self, conn: _Conn, message: dict) -> None:
        resolved = self._release(conn, str(message.get("token")), message.get("i0"))
        if resolved is None:
            return
        ws, i0 = resolved
        if i0 in ws.blocks:
            self._complete(ws, i0)

    def _complete(self, ws: WorkSet, i0: int) -> None:
        if i0 not in ws.done:
            ws.done.add(i0)
            self._stats["blocks_done"] += 1
        if ws.finished():
            ws.event.set()

    def _mark_failed(self, conn: _Conn, message: dict) -> None:
        self._stats["task_failures"] += 1
        resolved = self._release(conn, str(message.get("token")), message.get("i0"))
        if resolved is None:
            return
        ws, i0 = resolved
        if i0 not in ws.blocks:
            return
        ws.failures[i0] = ws.failures.get(i0, 0) + 1
        error = str(message.get("error", "task failed"))
        if ws.failures[i0] >= self.max_task_failures:
            self._fail(
                ws,
                f"block [{i0}, {ws.blocks[i0][1]}) failed "
                f"{ws.failures[i0]} times; last error:\n{error}",
            )
        else:
            self._requeue(ws.token, i0)

    def _requeue(self, token: str, i0: int) -> None:
        self._queue.appendleft((token, i0))
        self._stats["requeues"] += 1

    # -- lease loss -------------------------------------------------------

    def _expire_leases(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [k for k, (_, dl) in self._leases.items() if dl < now]
            for key in expired:
                conn, _ = self._leases.pop(key)
                conn.leases.discard(key)
                self._stats["lease_expiries"] += 1
                self._lost(key, "lease expired")

    def _lost(self, key: tuple[str, int], reason: str) -> None:
        """A leased block's worker went silent or away (lock held).

        The work may well have completed with only the ``done`` message
        lost — the park file is the ground truth, so check it before
        re-queueing (rename-atomic writes mean it is either whole and
        fingerprint-valid or effectively absent).
        """
        token, i0 = key
        ws = self._worksets.get(token)
        if ws is None or ws.finished() or i0 not in ws.blocks or i0 in ws.done:
            return
        i0, i1 = ws.blocks[i0]
        slot = CheckpointSlot(park_path(ws.directory, i0))
        if slot.load(park_fingerprint(token, i0, i1)) is not None:
            self._complete(ws, i0)
            return
        ws.requeues[i0] = ws.requeues.get(i0, 0) + 1
        if ws.requeues[i0] > self.max_requeues:
            self._fail(
                ws,
                f"block [{i0}, {i1}) was lost {ws.requeues[i0]} times "
                f"({reason}) — giving up",
            )
        else:
            self._requeue(token, i0)

    def _fail(self, ws: WorkSet, reason: str) -> None:
        ws.error = reason
        ws.event.set()
