"""Fabric wire protocol and shared-medium conventions.

Wire format
-----------
One JSON object per line (``\\n``-terminated, UTF-8) over a TCP stream.
Every worker→broker message gets at most one reply.  ``heartbeat`` gets
none — it is fire-and-forget: the worker's heartbeat thread shares the
socket with its request loop, and an unreplied heartbeat is what keeps
the request/reply pairing trivial (at most one reply per non-heartbeat
send, read by the one thread that sent it).

Message types (worker → broker → reply):

=============  =====================================  ======================
``hello``      ``{worker}``                           ``welcome {heartbeat}``
``request``    ``{worker}``                           *instruction*
``done``       ``{worker, token, i0}``                *instruction*
``failed``     ``{worker, token, i0, error}``         *instruction*
``heartbeat``  ``{worker}``                           *(no reply)*
=============  =====================================  ======================

An *instruction* is ``lease {token, dir, i0, i1}``, ``idle {delay}`` or
``shutdown {}``.  The reply to ``done``/``failed`` is the worker's next
instruction, so one block costs one round trip.  While the queue is empty
the broker *holds* the message and replies later: with a lease as soon as
work is submitted (or re-queued), with ``shutdown`` when the fleet drains,
and with ``idle {delay: 0}`` after one heartbeat interval, so that a held
worker never waits past its reply deadline.  A worker answers ``idle`` by
sleeping ``delay`` seconds and sending ``request``.

Shared medium
-------------
Work sets are content-addressed: :func:`work_token` hashes the run's full
identity — task, repetitions, block layout, the resolved seed-spawn spec,
and content-hashed kwargs — so a restarted driver resubmits under the
*same* token and finds its parked blocks, while two distinct runs can
never share state.  Inside ``store.fabric_dir(token)``:

* ``spec.pkl`` — pickled ``{task, kwargs, seed_spec, label}`` (written
  atomically once; token-determined, so attempts never disagree on it);
* ``block-<i0>.pkl`` — one :class:`~repro.io.store.CheckpointSlot` per
  completed block, fingerprinted by :func:`park_fingerprint` so a torn or
  foreign file reads as "not done" rather than as a wrong result.

Both are rename-atomic but not fsynced (:mod:`repro.io.atomicio`): each
is a pure function of ``(work_token, block)``, so one lost to a crash is
recomputed, never misread.
"""

from __future__ import annotations

import hashlib
import json
import select
import socket
import threading
from pathlib import Path

__all__ = [
    "encode",
    "split_lines",
    "Wire",
    "work_token",
    "spec_path",
    "park_path",
    "park_fingerprint",
]


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON plus the line terminator."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def split_lines(buffer: bytes) -> tuple[list[dict], bytes]:
    """Decode every complete frame in *buffer*; return ``(messages, rest)``."""
    messages = []
    while True:
        line, sep, buffer = buffer.partition(b"\n")
        if not sep:
            return messages, line
        if line.strip():
            messages.append(json.loads(line))


class Wire:
    """Client-side framing over one blocking socket.

    ``send`` is lock-guarded so the heartbeat thread and the request loop
    can share the connection; ``recv`` is only ever called from the request
    loop (heartbeats get no reply), so reads need no lock.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()
        self._send_lock = threading.Lock()

    def send(self, message: dict) -> None:
        with self._send_lock:
            self.sock.sendall(encode(message))

    def recv(self, timeout: float | None = None) -> dict:
        """Read the next frame; raises ``ConnectionError`` on EOF.

        *timeout* (seconds) bounds the wait for **more bytes to arrive**
        and raises ``TimeoutError`` when it elapses; ``None`` blocks
        forever (the pre-PR-10 behaviour).  The wait uses ``select`` on
        the shared socket rather than ``settimeout`` — a socket-level
        timeout is global and would also fire inside the heartbeat
        thread's concurrent ``sendall``.  Framing is buffered internally,
        so a timeout mid-frame loses nothing: the partial line stays in
        the buffer for the next call.
        """
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line = bytes(self._buf[:i])
                del self._buf[:i + 1]
                if not line.strip():
                    continue
                return json.loads(line)
            if timeout is not None:
                readable, _, _ = select.select([self.sock], [], [], timeout)
                if not readable:
                    raise TimeoutError(
                        f"no broker frame within {timeout:g}s")
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("broker closed the connection")
            self._buf.extend(chunk)

    def close(self) -> None:
        self.sock.close()


def work_token(task, repetitions: int, block_size, seed_spec: dict, kwargs) -> str:
    """Content address of one fixed-budget reduced run's block work.

    Mirrors the executor's checkpoint fingerprint — task identity,
    repetitions, block layout, kwargs (arrays content-hashed via
    :func:`~repro.runtime.executor._fingerprint_value`) — with the seed
    resolved to its spawn spec (:func:`~repro.runtime.executor.
    block_seed_spec`).  A ``seed=None`` run resolves to fresh OS entropy in
    the spec, so two irreproducible runs never collide on a token.
    """
    from ..executor import _fingerprint_value  # module-level would cycle

    task_name = getattr(task, "__qualname__", repr(task))
    module = getattr(task, "__module__", "")
    kw = sorted((k, _fingerprint_value(v)) for k, v in (kwargs or {}).items())
    text = repr((
        module,
        task_name,
        int(repetitions),
        block_size,
        ("seed-spec", seed_spec["entropy"], tuple(seed_spec["spawn_key"]),
         int(seed_spec["base"]), int(seed_spec["pool_size"])),
        kw,
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def spec_path(directory) -> Path:
    """The work set's pickled ``{task, kwargs, seed_spec, label}`` file."""
    return Path(directory) / "spec.pkl"


def park_path(directory, i0: int) -> Path:
    """Where block ``[i0, ...)``'s reducer is parked (keyed by the block's
    first repetition index — stable across resume attempts whose pending
    suffix differs)."""
    return Path(directory) / f"block-{i0:08d}.pkl"


def park_fingerprint(token: str, i0: int, i1: int) -> str:
    """Fingerprint guarding one park file (token + exact block bounds)."""
    return f"{token}:block[{i0},{i1})"
