"""Tests for the CRC-framed write-ahead log: framing, torn tails, repair."""

import json
import os
import signal
import struct
import subprocess
import sys
import zlib
from unittest import mock

import pytest

from repro.service.wal import (
    MAX_FRAME_BYTES,
    WAL_MAGIC,
    WalError,
    WalScan,
    WriteAheadLog,
    encode,
)

RECORDS = [
    {"t": "meta", "format": "x", "seed": 1},
    {"t": "alloc", "k": "obj-1", "p": "peer-3"},
    {"t": "churn", "kind": "leave", "peer": "peer-0", "res": "leave"},
]


def write_log(path, records=RECORDS, **kw):
    with WriteAheadLog(path, **kw) as wal:
        for rec in records:
            wal.append(rec)
    return path


class TestRoundTrip:
    def test_append_scan_round_trip(self, tmp_path):
        path = write_log(tmp_path / "a.wal")
        scan = WriteAheadLog(path).scan()
        assert list(scan.records) == RECORDS
        assert scan.clean
        assert scan.torn_bytes == 0

    def test_reopen_and_continue(self, tmp_path):
        path = write_log(tmp_path / "a.wal")
        with WriteAheadLog(path) as wal:
            wal.append({"t": "alloc", "k": "obj-9", "p": "peer-1"})
        scan = WriteAheadLog(path).scan()
        assert len(scan.records) == len(RECORDS) + 1
        assert scan.records[-1]["k"] == "obj-9"

    def test_scan_sees_own_unflushed_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        wal.append({"x": 1})
        assert [dict(r) for r in wal.scan().records] == [{"x": 1}]
        wal.close()

    def test_missing_and_empty_files_scan_clean(self, tmp_path):
        assert WriteAheadLog(tmp_path / "nope.wal").scan() == WalScan((), 0, 0)
        (tmp_path / "empty.wal").write_bytes(b"")
        assert WriteAheadLog(tmp_path / "empty.wal").scan() == WalScan((), 0, 0)


class TestDurabilityBatching:
    """Appends never fsync; flush() is the one commit point."""

    def test_append_never_fsyncs(self, tmp_path):
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            wal = WriteAheadLog(tmp_path / "a.wal")
            for rec in RECORDS:
                wal.append(rec)
            wal.append(*RECORDS)
            assert fsync.call_count == 0
            assert wal.fsyncs == 0
            assert len(wal.scan().records) == 2 * len(RECORDS)
            wal.close()

    def test_group_commit_batches_fsyncs(self, tmp_path):
        """flush() fsyncs once iff anything was appended since the last."""
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            wal = WriteAheadLog(tmp_path / "a.wal")
            wal.flush()  # nothing appended yet: no file, no fsync
            assert fsync.call_count == 0
            for i in range(10):
                wal.append({"i": i})
            wal.flush()
            assert (fsync.call_count, wal.fsyncs) == (1, 1)
            wal.flush()  # nothing unsynced since
            assert (fsync.call_count, wal.fsyncs) == (1, 1)
            wal.append({"i": 10}, {"i": 11})
            wal.flush()
            assert (fsync.call_count, wal.fsyncs) == (2, 2)
            wal.close()
            assert (fsync.call_count, wal.fsyncs) == (2, 2)

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "a.wal"
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            wal = WriteAheadLog(path)
            wal.append({"x": 1})
            wal.close()
            assert fsync.call_count == 1 and wal.fsyncs == 1
        assert [dict(r) for r in WriteAheadLog(path).scan().records] == [{"x": 1}]

    def test_several_records_are_one_write_of_the_same_frames(self, tmp_path):
        single, many = tmp_path / "single.wal", tmp_path / "many.wal"
        write_log(single)
        with WriteAheadLog(many) as wal:
            wal.append()  # no frames: the file is not even created
            assert not many.exists()
            wal.append(RECORDS[0])
            with mock.patch("os.write", wraps=os.write) as write:
                # A record may come already encoded: the same frame.
                wal.append(RECORDS[1], encode(RECORDS[2]))
            assert write.call_count == 1
        assert many.read_bytes() == single.read_bytes()

    def test_rejects_bad_sync_every(self, tmp_path):
        """The knob is gone: only the inert ``sync_every=1`` is accepted."""
        WriteAheadLog(tmp_path / "a.wal", sync_every=1)  # accepted, ignored
        for value in (0, 4, 1024):
            with pytest.raises(ValueError, match="knob was removed"):
                WriteAheadLog(tmp_path / "a.wal", sync_every=value)

    def test_sigkill_keeps_every_appended_record(self, tmp_path):
        """A process SIGKILLed right after its appends returned leaves all
        of them in the log, whole, though none was fsynced: append hands
        each frame to the kernel before it returns."""
        path = tmp_path / "killed.wal"
        child = (
            "import os, signal, sys\n"
            "from repro.service.wal import WriteAheadLog\n"
            "wal = WriteAheadLog(sys.argv[1])\n"
            "for i in range(300):\n"
            "    wal.append({'t': 'alloc', 'i': i})\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(path)], env=env, timeout=60
        )
        assert proc.returncode == -signal.SIGKILL
        scan = WriteAheadLog(path).scan()
        assert scan.clean
        assert [r["i"] for r in scan.records] == list(range(300))


class TestTornTail:
    @pytest.mark.parametrize("cut", [1, 3, 5, 9, 14])
    def test_truncation_mid_frame_keeps_good_prefix(self, tmp_path, cut):
        path = write_log(tmp_path / "a.wal")
        blob = path.read_bytes()
        path.write_bytes(blob[:-cut])
        scan = WriteAheadLog(path).scan()
        assert not scan.clean
        # The last frame is torn; everything before it survives.
        assert list(scan.records) == RECORDS[:-1]
        assert scan.torn_bytes > 0

    def test_repair_quarantines_and_continues(self, tmp_path):
        path = write_log(tmp_path / "a.wal")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        wal = WriteAheadLog(path)
        scan = wal.repair()
        assert scan.clean
        assert list(scan.records) == RECORDS[:-1]
        sidecars = list(tmp_path.glob("a.wal.corrupt-*"))
        assert len(sidecars) == 1
        # The sidecar holds exactly the bytes that were cut out.
        assert sidecars[0].read_bytes() == blob[scan.good_bytes:-5]
        # Appending continues from the good prefix.
        wal.append({"t": "alloc", "k": "obj-2", "p": "peer-5"})
        wal.close()
        healed = WriteAheadLog(path).scan()
        assert healed.clean
        assert list(healed.records) == RECORDS[:-1] + [
            {"t": "alloc", "k": "obj-2", "p": "peer-5"}]

    def test_repair_of_clean_log_is_noop(self, tmp_path):
        path = write_log(tmp_path / "a.wal")
        scan = WriteAheadLog(path).repair()
        assert scan.clean
        assert not list(tmp_path.glob("*.corrupt-*"))

    def test_repair_leaves_the_good_prefix_fsynced(self, tmp_path):
        """A recovered service answers duplicates from records an earlier
        process may have left in the page cache only: repair() commits
        them, clean log or not."""
        path = write_log(tmp_path / "a.wal")
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            assert WriteAheadLog(path).repair().clean
            assert fsync.call_count == 1
            path.write_bytes(path.read_bytes()[:-5])
            assert WriteAheadLog(path).repair().clean
            assert fsync.call_count == 2
            assert WriteAheadLog(tmp_path / "missing.wal").repair().clean
            assert fsync.call_count == 2

    def test_partial_magic_counts_as_torn(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_bytes(WAL_MAGIC[:4])
        wal = WriteAheadLog(path)
        scan = wal.scan()
        assert scan.records == () and not scan.clean
        assert wal.repair(scan).clean
        assert path.read_bytes() == b""

    def test_repair_refused_while_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        wal.append({"x": 1})
        with pytest.raises(WalError, match="before the log is opened"):
            wal.repair()
        wal.close()


class TestCorruption:
    def test_crc_flip_quarantines_suffix(self, tmp_path):
        path = write_log(tmp_path / "a.wal")
        blob = bytearray(path.read_bytes())
        # Flip one payload byte inside the *second* frame.
        first_len = struct.unpack_from("<I", blob, len(WAL_MAGIC))[0]
        second_payload = len(WAL_MAGIC) + 8 + first_len + 8
        blob[second_payload] ^= 0xFF
        path.write_bytes(bytes(blob))
        scan = WriteAheadLog(path).scan()
        assert list(scan.records) == RECORDS[:1]
        assert not scan.clean
        repaired = WriteAheadLog(path).repair(scan)
        assert repaired.clean
        assert list(repaired.records) == RECORDS[:1]

    def test_absurd_length_field_is_corruption(self, tmp_path):
        path = tmp_path / "a.wal"
        payload = json.dumps({"x": 1}).encode()
        path.write_bytes(
            WAL_MAGIC
            + struct.pack("<II", MAX_FRAME_BYTES + 1, zlib.crc32(payload))
            + payload)
        scan = WriteAheadLog(path).scan()
        assert scan.records == () and not scan.clean

    def test_valid_frame_with_non_object_payload_is_corruption(self, tmp_path):
        path = tmp_path / "a.wal"
        payload = b"[1,2,3]"
        path.write_bytes(
            WAL_MAGIC + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload)
        scan = WriteAheadLog(path).scan()
        assert scan.records == () and not scan.clean

    def test_foreign_file_is_never_touched(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("precious user data, definitely not a WAL\n")
        before = path.read_bytes()
        wal = WriteAheadLog(path)
        with pytest.raises(WalError, match="bad magic"):
            wal.scan()
        with pytest.raises(WalError, match="bad magic"):
            wal.append({"x": 1})
        assert path.read_bytes() == before

    def test_oversized_record_rejected_at_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        with pytest.raises(WalError, match="frame bound"):
            wal.append({"blob": "x" * (MAX_FRAME_BYTES + 1)})
        # One oversized record refuses the whole append: nothing written.
        wal.append({"x": 1})
        with pytest.raises(WalError, match="frame bound"):
            wal.append({"y": 2}, {"blob": "x" * MAX_FRAME_BYTES})
        wal.close()
        assert [dict(r) for r in wal.scan().records] == [{"x": 1}]
