"""Group commit in the TCP front end.

The server answers every complete request line a client has pipelined as
one batch: one fsync, then one write of all the batch's replies.  These
tests pin the two halves of that contract:

* acked => durable: no reply byte is written before an fsync whose file
  size covers the WAL frame holding the reply's event (``os.fsync``
  mocked to record the log's size, the connection's writer recording each
  write — the ``atomic_write`` tests' idiom);
* batching is invisible: one mixed request stream sent one request at a
  time, 128 deep, and cut at odd chunk boundaries gives byte-identical
  replies, counters and digests, and the same logged events (the WAL's
  frames follow the batches, so its bytes differ).
"""

import asyncio
import errno
import hashlib
import json
import os
import struct
from unittest import mock

from repro.service import AllocationService, logged_events
from repro.service.server import _serve_connection
from repro.service.wal import WAL_MAGIC, WriteAheadLog

PEERS = [f"peer-{i}" for i in range(6)]
SEED = 11
MAX_LINE = 256

#: sha256 of the WAL (format ``repro.service.wal/2``) written for
#: :func:`request_stream` sent one request at a time: pins the log
#: format.  Deeper pipelining writes the same events in fewer frames.
SERIAL_WAL_SHA256 = "34d84a0cef1a30029a68c81fed4ef8fe0cb3f8163c6b7f4564112208514d0999"

#: sha256 of the WAL the serial front end wrote for :func:`request_stream`
#: in format ``repro.service.wal/1``, one frame per placement.  Framing the
#: expanded events of a format /2 log that way again gives the same bytes: the
#: logged events did not change with the format.
PER_EVENT_WAL_SHA256 = "769e1c3dbb1fc69b4cd5c6b45a903ffeeca49a81cece0c3c163ce4e4451c71fa"


def make_service(wal=None):
    return AllocationService(PEERS, d=2, refresh_every=16, virtual_nodes=2,
                             seed=SEED, wal=wal)


def _line(obj) -> bytes:
    return obj if isinstance(obj, bytes) else (json.dumps(obj) + "\n").encode()


def request_stream() -> list[bytes]:
    """One request per line: plain and idempotent allocs, duplicates and
    stale sequence ids, malformed requests, churn, stats and ping."""
    reqs = [{"op": "alloc", "key": f"obj-{i}"} for i in range(30)]
    # One client, consecutive seqs (every batch run is cut between them),
    # then a duplicate and a stale seq.
    reqs += [{"op": "alloc", "key": f"solo-{s}", "client": "solo", "seq": s}
             for s in range(1, 11)]
    reqs += [{"op": "alloc", "key": "solo-10", "client": "solo", "seq": 10},
             {"op": "alloc", "key": "solo-3", "client": "solo", "seq": 3}]
    # Four clients interleaved: runs of four distinct clients.
    reqs += [{"op": "alloc", "key": f"multi-{i}", "client": f"c{i % 4}",
              "seq": i // 4 + 1} for i in range(24)]
    # A list key inside a run (the run is refused and answered one by
    # one), a stale seq inside a run, a missing key, a bad seq.
    reqs += [{"op": "alloc", "key": "z0", "client": "c0", "seq": 7},
             {"op": "alloc", "key": ["x"], "client": "c1", "seq": 7},
             {"op": "alloc", "key": "z2", "client": "c2", "seq": 7},
             {"op": "alloc", "key": "z3"},
             {"op": "alloc", "key": "z4", "client": "c3", "seq": 2},
             {"op": "alloc", "key": "z5"},
             {"op": "alloc"},
             {"op": "alloc", "key": "z6", "client": "c3", "seq": "eight"},
             {"op": "alloc", "key": 1.5}]
    reqs += [b"this is not json\n", b"[1, 2]\n",
             b'{"op": "alloc", "key": "' + b"x" * MAX_LINE + b'"}\n']
    reqs += [{"op": "churn", "kind": "join"},
             {"op": "churn", "kind": "leave", "client": "c0", "seq": 8},
             {"op": "churn", "kind": "leave", "client": "c0", "seq": 8},
             {"op": "alloc", "key": "after-churn", "client": "c1", "seq": 8},
             {"op": "churn", "kind": "leave", "peer_id": "ghost"},
             {"op": "stats"}, {"op": "ping"}, {"op": "warp"}]
    reqs += [{"op": "alloc", "key": i} for i in range(40)]
    reqs += [{"op": "alloc", "key": f"tail-{i}", "client": f"t{i % 3}",
              "seq": i // 3 + 1} for i in range(30)]
    # A lone surrogate is valid JSON but no UTF-8: its run is refused
    # before "last" is placed, so "last" is placed once.
    reqs += [{"op": "alloc", "key": "last"}, {"op": "alloc", "key": "\ud800"}]
    reqs += [{"op": "stats"}]
    return [_line(r) for r in reqs]


def normalise(reply: bytes) -> bytes:
    """A reply line with the telemetry that may differ between runs —
    wall-clock latencies, fsync count, WAL path — masked."""
    if b'"stats"' not in reply:
        return reply
    msg = json.loads(reply)
    msg["stats"]["latency"] = None
    msg["stats"]["wal"].update(fsyncs=None, path=None)
    return json.dumps(msg).encode() + b"\n"


async def _tcp_session(address, lines, mode):
    """Send *lines* to a live server; return the raw reply lines."""
    reader, writer = await asyncio.open_connection(*address, limit=1 << 20)
    replies = []
    if mode == "depth-1":
        for line in lines:
            writer.write(line)
            await writer.drain()
            replies.append(await reader.readline())
    elif mode == "depth-128":
        for lo in range(0, len(lines)):
            writer.write(lines[lo])
            await writer.drain()
            if lo >= 127:  # keep 128 in flight
                replies.append(await reader.readline())
        while len(replies) < len(lines):
            replies.append(await reader.readline())
    else:  # odd chunk boundaries, all pipelined
        blob, sizes, at, j = b"".join(lines), (1, 7, 13, 61, 257, 3), 0, 0
        while at < len(blob):
            step = sizes[j % len(sizes)]
            writer.write(blob[at:at + step])
            await writer.drain()
            await asyncio.sleep(0)
            at, j = at + step, j + 1
        while len(replies) < len(lines):
            replies.append(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return replies


def run_over_tcp(tmp_path, mode, server_thread):
    path = tmp_path / mode / "svc.wal"
    service = make_service(wal=WriteAheadLog(path))
    address = server_thread(service, max_line_bytes=MAX_LINE)
    replies = asyncio.run(_tcp_session(address, request_stream(), mode))
    return service, replies, path


class _ChunkedReader:
    """A StreamReader stand-in that hands out *blob* in fixed-size reads."""

    def __init__(self, blob: bytes, size: int):
        self._blob, self._size, self._at = blob, size, 0

    async def read(self, n):
        chunk = self._blob[self._at:self._at + min(n, self._size)]
        self._at += len(chunk)
        return chunk


class _RecordingWriter:
    """A StreamWriter stand-in that appends ``("write", bytes)`` events."""

    def __init__(self, events):
        self.events = events

    def write(self, data):
        self.events.append(("write", bytes(data)))

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def serve_direct(service, blob: bytes, chunk: int, events):
    """Run one connection over *blob*, read *chunk* bytes at a time."""
    asyncio.run(_serve_connection(service, _ChunkedReader(blob, chunk),
                                  _RecordingWriter(events),
                                  max_line_bytes=MAX_LINE))


def event_ends(path) -> list[int]:
    """For each logged event after the meta record, the file offset just
    past the frame that holds it."""
    blob, at, ends = path.read_bytes(), len(WAL_MAGIC), []
    while at < len(blob):
        length, _ = struct.unpack_from("<II", blob, at)
        record = json.loads(blob[at + 8:at + 8 + length])
        at += 8 + length
        ends += [at] * (len(record["k"]) if record["t"] == "allocs" else 1)
    return ends[1:]


def final_state(service):
    stats = service.stats()
    return (stats["placement_digest"], stats["load"]["per_peer"],
            stats["requests"], stats["errors"], stats["dedup_hits"],
            stats["churn"])


class TestAckedImpliesDurable:
    def test_every_reply_follows_the_fsync_covering_its_record(self, tmp_path):
        path = tmp_path / "svc.wal"
        service = make_service(wal=path)
        lines = ([_line({"op": "alloc", "key": f"obj-{i}"}) for i in range(64)]
                 + [_line({"op": "churn", "kind": "join"})]
                 + [_line({"op": "alloc", "key": f"obj-{i}"}) for i in range(64, 128)]
                 + [_line({"op": "stats"})])
        events = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            real_fsync(fd)
            events.append(("fsync", os.fstat(fd).st_size))

        with mock.patch("os.fsync", side_effect=recording_fsync):
            # ~20 requests per read: several batches, several commits.
            serve_direct(service, b"".join(lines), 777, events)
        service.close_wal()

        ends = event_ends(path)
        assert len(ends) == 129      # 128 allocs + the churn, in order
        assert len(set(ends)) < 129  # frames holding several placements
        synced, replies = 0, []
        for kind, value in events:
            if kind == "fsync":
                synced = max(synced, value)
                continue
            for reply in value.splitlines():
                replies.append(json.loads(reply))
                if len(replies) <= 129:  # a mutating request's reply
                    assert ends[len(replies) - 1] <= synced, (
                        f"reply {len(replies) - 1} left before its frame "
                        f"was fsynced ({synced} < {ends[len(replies) - 1]})")
        assert len(replies) == 130 and all(r["ok"] for r in replies)
        assert replies[-1]["stats"]["requests"] == 128
        writes = sum(kind == "write" for kind, _ in events)
        fsyncs = sum(kind == "fsync" for kind, _ in events)
        assert writes > 2  # the stream really was answered in several batches
        assert fsyncs / 128 < 0.2


class TestPipeliningDoesNotChangeResults:
    def test_depths_and_chunk_boundaries_agree(self, tmp_path, server_thread):
        runs = {mode: run_over_tcp(tmp_path, mode, server_thread)
                for mode in ("depth-1", "depth-128", "chunked")}
        n = len(request_stream())
        for chunk in (1, 5, 64, 1 << 16):
            path = tmp_path / f"direct-{chunk}" / "svc.wal"
            service, events = make_service(wal=path), []
            serve_direct(service, b"".join(request_stream()), chunk, events)
            replies = b"".join(data for _, data in events).splitlines(keepends=True)
            runs[f"direct-{chunk}"] = (service, replies, path)

        ref_service, ref_replies, ref_path = runs["depth-1"]
        assert len(ref_replies) == n
        for mode, (service, replies, path) in runs.items():
            assert [normalise(r) for r in replies] == \
                [normalise(r) for r in ref_replies], mode
            assert final_state(service) == final_state(ref_service), mode
        fsyncs = {mode: run[0].stats()["wal"]["fsyncs"] for mode, run in runs.items()}
        # One read of the whole stream is one batch: one commit.
        assert fsyncs["direct-65536"] == 2  # the meta record's, the batch's
        assert fsyncs["depth-1"] > 100
        for service, _, _ in runs.values():
            service.close_wal()
        wal = ref_path.read_bytes()
        frames = {mode: WriteAheadLog(path).scan().records
                  for mode, (_, _, path) in runs.items()}
        for mode, records in frames.items():
            assert logged_events(records) == logged_events(frames["depth-1"]), mode
        # One batch: the allocs runs are placed together, in fewer frames.
        assert len(frames["direct-65536"]) < len(frames["depth-1"])
        events = logged_events(frames["depth-1"])
        with WriteAheadLog(tmp_path / "per-event.wal") as per_event:
            per_event.append(dict(events[0], format="repro.service.wal/1"),
                             *events[1:])
        assert (hashlib.sha256(per_event.path.read_bytes()).hexdigest()
                == PER_EVENT_WAL_SHA256)

        # The stream exercised what it claims to.
        state = final_state(ref_service)
        assert state[3] == {"oversized": 1, "bad_json": 2, "handler": 3,
                            "stale_seq": 2}
        assert state[4] == 2  # the duplicate alloc and the duplicate churn
        assert hashlib.sha256(wal).hexdigest() == SERIAL_WAL_SHA256


class TestFailedRunIsNotPlacedAgain:
    def test_log_failure_mid_run_answers_errors(self, tmp_path):
        # The log fails on the run's second window, after its first was
        # placed: that is no refusal, so no key is placed a second time.
        service = make_service(wal=tmp_path / "svc.wal")
        service.allocate("warm-up")
        real_append = WriteAheadLog.append
        windows = []

        def failing_append(wal, *frames):
            windows.append(sum(len(json.loads(f)["k"]) for f in frames))
            if len(windows) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_append(wal, *frames)

        lines = [_line({"op": "alloc", "key": f"obj-{i}"}) for i in range(40)]
        events = []
        with mock.patch.object(WriteAheadLog, "append", failing_append):
            serve_direct(service, b"".join(lines), 1 << 16, events)
        replies = [json.loads(r) for _, data in events for r in data.splitlines()]
        assert len(replies) == 40
        assert all(not r["ok"] and "No space left" in r["error"] for r in replies)
        assert len(windows) == 2
        assert service.requests == 1 + windows[0]
        assert service.errors["handler"] == 40
