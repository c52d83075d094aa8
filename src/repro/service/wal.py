"""Append-only, CRC-framed write-ahead log for the allocation service.

The WAL is the service's durability contract: every placement and every
resolved churn event is framed, checksummed, and appended *before* the
state change is applied (and fsynced before its reply leaves the
process), so :meth:`repro.service.AllocationService.recover`
can rebuild the exact in-memory state — per-peer counters, the ring and
placer, the tie/churn RNG stream positions, the running sha256 placement
digest, and the per-client dedup table — by replaying the log through the
same decision pipeline that wrote it.

Frame format (after a file-level magic header)::

    <u32 payload-length> <u32 crc32(payload)> <payload: compact JSON>

The service (format ``repro.service.wal/2``) writes three kinds of
record: one ``meta`` record first, one ``churn`` record per resolved
membership change, and one ``allocs`` record per staleness window of
placements, ``{"t": "allocs", "k": [keys], "p": [peer ids]}`` plus
per-key ``"c"`` / ``"s"`` lists (client, sequence id; ``null`` where a
key has none) when some key of the window carries a ``(client, seq)``
pair.  A window whose record would exceed :data:`MAX_FRAME_BYTES` is
split into several ``allocs`` records, appended together.
:func:`repro.service.logged_events` expands records into one event per
placement.

A crash can tear the tail of the file mid-frame; :meth:`WriteAheadLog.scan`
stops at the first frame that fails its length/CRC/JSON checks and reports
how many bytes were good, and :meth:`WriteAheadLog.repair` quarantines the
unreadable suffix into a ``.corrupt-<offset>`` sidecar (the same
rename-out-of-the-way discipline as ``ResultStore.get``) and truncates the
log so appends continue from the last good frame.  A file that does not
start with the magic header is *foreign* and is never truncated — that is
a :class:`WalError`, not a repair.

A torn ``allocs`` frame loses its whole window, not just the placements
past the tear.  That is safe because of the group commit below: the TCP
front end sends no reply before the fsync that covers its frame, so a
frame a crash can tear belongs to requests no client has seen answered,
and the clients retry them.

Durability has two levels.  :meth:`WriteAheadLog.append` hands its
frames to the kernel in one ``os.write`` on an ``O_APPEND`` descriptor
before it returns — nothing waits in a user-space buffer — so a process
SIGKILL loses nothing it accepted: the bytes are in the page cache.  It
never fsyncs.  :meth:`WriteAheadLog.flush` is the one commit point: it
fsyncs once if anything was appended since the last commit, which makes
every record appended so far survive a power loss
(:meth:`~WriteAheadLog.close` flushes too).  The TCP front end calls it
once per drained batch of requests, before any reply of the batch is
written, so a reply a client has received is durable.  In-process
callers get "in the page cache on return" and call ``flush()``
(``AllocationService.flush_wal()``) when they need power-loss
durability.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

__all__ = ["WriteAheadLog", "WalScan", "WalError", "WAL_MAGIC", "MAX_FRAME_BYTES",
           "encode"]

#: File-level magic: identifies (and versions) a repro WAL.
WAL_MAGIC = b"REPROWAL\x01\n"

#: Per-frame header: payload byte length, crc32 over the payload.
_FRAME_HEADER = struct.Struct("<II")

#: Bound on a frame's payload length.  Appends refuse a larger record, so
#: a larger declared length can only come from corruption, and trusting it
#: would make the scan walk off the end of the file.
MAX_FRAME_BYTES = 1 << 20


def encode(record: dict) -> bytes:
    """*record*'s frame payload: compact, key-sorted JSON."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


class WalError(Exception):
    """A write-ahead log that cannot be used (foreign file, bad meta,
    replay divergence, nothing to recover)."""


@dataclass(frozen=True)
class WalScan:
    """Outcome of one read pass over a WAL file."""

    records: tuple[dict, ...]
    good_bytes: int   #: offset of the first unreadable byte (= size when clean)
    total_bytes: int  #: file size at scan time

    @property
    def torn_bytes(self) -> int:
        """Bytes past the last whole frame (0 for a clean log)."""
        return self.total_bytes - self.good_bytes

    @property
    def clean(self) -> bool:
        """Whether every byte belongs to a valid frame."""
        return self.good_bytes == self.total_bytes


def _scan_frames(blob: bytes) -> tuple[list[dict], int]:
    """Decode whole valid frames from the front; return ``(records, good)``.

    Stops at the first frame whose header is short, whose length field is
    implausible, whose payload is short or fails its CRC, or whose payload
    is not a JSON object — everything from there on is unreadable (framing
    is lost once one frame is bad).
    """
    records: list[dict] = []
    offset = len(WAL_MAGIC)
    end = len(blob)
    while offset < end:
        header = blob[offset:offset + _FRAME_HEADER.size]
        if len(header) < _FRAME_HEADER.size:
            break
        length, crc = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            break
        start = offset + _FRAME_HEADER.size
        payload = blob[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = start + length
    return records, offset


class WriteAheadLog:
    """One append-only log file (see the module docstring for the format).

    Construction touches nothing on disk; the file is created (with its
    magic header) on the first append.  Appends never fsync;
    :meth:`flush` is the group commit.  ``fsyncs`` is this instance's
    telemetry counter.

    ``sync_every`` is accepted only as ``1`` and ignored: the knob is
    gone, and this keyword stays only until the benchmark's server
    launcher stops passing it (remove it in the next perfbench change).
    """

    def __init__(self, path, *, sync_every: int = 1):
        if sync_every != 1:
            raise ValueError(
                f"sync_every={sync_every!r}: the sync_every knob was removed; "
                "appends never fsync and flush() is the one commit point"
            )
        self.path = Path(path)
        self._fd: int | None = None
        self._unsynced = False
        self.fsyncs = 0

    # -- reading ---------------------------------------------------------

    def scan(self) -> WalScan:
        """Read every whole frame; report the torn/corrupt suffix, if any.

        A missing or empty file scans as an empty, clean log.  A file that
        does not begin with the WAL magic raises :class:`WalError` — it is
        not ours to interpret (or to repair).
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return WalScan((), 0, 0)
        if not blob:
            return WalScan((), 0, 0)
        if not blob.startswith(WAL_MAGIC):
            if WAL_MAGIC.startswith(blob):
                # Crash during creation: a prefix of the magic alone.
                return WalScan((), 0, len(blob))
            raise WalError(
                f"{self.path} is not a repro write-ahead log (bad magic)"
            )
        records, good = _scan_frames(blob)
        return WalScan(tuple(records), good, len(blob))

    def repair(self, scan: WalScan | None = None) -> WalScan:
        """Quarantine any unreadable suffix and truncate to the good prefix.

        The torn bytes move to a ``<name>.corrupt-<offset>`` sidecar next
        to the log (kept for post-mortem inspection, named by offset so
        repeated crashes never overwrite each other), exactly the
        quarantine discipline of ``ResultStore.get``.  Returns the clean
        scan.  Must be called before this instance starts appending.

        Either way the good prefix is fsynced on return: the process that
        wrote it may have died with records in the page cache only, and a
        recovered service answers duplicate requests from those records.
        """
        if self._fd is not None:
            raise WalError("repair() must run before the log is opened for append")
        if scan is None:
            scan = self.scan()
        if scan.clean:
            if scan.total_bytes:
                fd = os.open(self.path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            return scan
        blob = self.path.read_bytes()
        sidecar = self.path.with_name(
            f"{self.path.name}.corrupt-{scan.good_bytes}"
        )
        sidecar.write_bytes(blob[scan.good_bytes:])
        with open(self.path, "r+b") as fh:
            fh.truncate(scan.good_bytes)
            fh.flush()
            os.fsync(fh.fileno())
        return WalScan(scan.records, scan.good_bytes, scan.good_bytes)

    # -- appending -------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._fd is not None:
            return
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.is_file() and self.path.stat().st_size > 0:
            with open(self.path, "rb") as fh:
                if fh.read(len(WAL_MAGIC)) != WAL_MAGIC:
                    raise WalError(
                        f"{self.path} is not a repro write-ahead log (bad magic)"
                    )
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        if os.fstat(self._fd).st_size == 0:
            self._write(WAL_MAGIC)

    def _write(self, data: bytes) -> None:
        """Hand *data* to the kernel now (one ``os.write`` unless the
        kernel takes less, e.g. on a full disk)."""
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]

    def append(self, *records) -> None:
        """Frame, checksum, and append *records* in order — dicts, or
        payloads :func:`encode` already made — all in one ``os.write``
        before this returns.  A record over :data:`MAX_FRAME_BYTES` is
        refused before anything is written.  No fsync — :meth:`flush`
        commits."""
        frames = []
        for record in records:
            payload = record if isinstance(record, bytes) else encode(record)
            if len(payload) > MAX_FRAME_BYTES:
                raise WalError(
                    f"record of {len(payload)} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame bound"
                )
            frames.append(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload)))
            frames.append(payload)
        if not frames:
            return
        self._ensure_open()
        self._write(b"".join(frames))
        self._unsynced = True

    def flush(self) -> None:
        """The group commit: one fsync iff anything was appended since the
        last one."""
        if self._fd is not None and self._unsynced:
            os.fsync(self._fd)
            self.fsyncs += 1
            self._unsynced = False

    def close(self) -> None:
        """Fsync and release the file descriptor (the log can be reopened)."""
        if self._fd is None:
            return
        try:
            self.flush()
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
