"""Atomic-write contract: whole files only, under overlap and crashes.

Regression suite for two historical bugs: the temp name was unique per
*process* only (two overlapping writers of one path shared the sibling —
one truncated the other, and the loser's ``os.replace`` raised
``FileNotFoundError``), and nothing was fsynced before the rename (a crash
straddling the replace could publish an empty file on journalled
filesystems).
"""

import json
import os
import shutil
import threading
from unittest import mock

import pytest

from repro.io.atomicio import atomic_write


class TestBasics:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "out.json"
        with atomic_write(target) as fh:
            json.dump({"x": 1}, fh)
        assert json.loads(target.read_text()) == {"x": 1}

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        with atomic_write(target) as fh:
            fh.write("hi")
        assert target.read_text() == "hi"

    def test_exception_leaves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as fh:
            fh.write("payload")
        assert list(tmp_path.iterdir()) == [target]


class TestOverlappingWriters:
    def test_nested_writers_same_path(self, tmp_path):
        """Two overlapping writers of one path must not share a temp file.

        Pre-fix, the inner writer truncated the outer's half-written temp,
        published it, and left the outer's ``os.replace`` raising
        ``FileNotFoundError``.  Post-fix both complete; the outer (last
        replace) wins, and both observable states are whole files.
        """
        target = tmp_path / "out.txt"
        with atomic_write(target) as outer:
            outer.write("outer")
            with atomic_write(target) as inner:
                inner.write("inner")
            assert target.read_text() == "inner"
        assert target.read_text() == "outer"
        assert list(tmp_path.iterdir()) == [target]

    def test_concurrent_threads_same_path(self, tmp_path):
        """Many threads hammering one path: every published state is a
        whole payload, no writer errors, no temp residue."""
        target = tmp_path / "out.txt"
        payloads = [f"payload-{i:02d}" * 50 for i in range(8)]
        start = threading.Barrier(len(payloads))
        errors = []

        def writer(payload):
            try:
                start.wait()
                for _ in range(25):
                    with atomic_write(target) as fh:
                        fh.write(payload)
            except Exception as exc:  # pragma: no cover - only pre-fix
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert target.read_text() in payloads
        assert list(tmp_path.iterdir()) == [target]


class TestDurability:
    def test_fsync_before_replace(self, tmp_path):
        """The payload is fsynced before the rename — the ordering that
        makes the replace crash-safe."""
        target = tmp_path / "out.txt"
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        with mock.patch(
            "os.fsync", side_effect=lambda fd: (events.append("fsync"), real_fsync(fd))
        ), mock.patch(
            "os.replace",
            side_effect=lambda a, b: (events.append("replace"), real_replace(a, b)),
        ):
            with atomic_write(target) as fh:
                fh.write("data")
        assert events == ["fsync", "replace"]
        assert target.read_text() == "data"


class TestVanishingParent:
    """The final rename vs. a concurrently rmtree'd parent directory
    (``Checkpointer.clear`` racing a late ``slot.save`` from another
    process).  Pre-fix the ``FileNotFoundError`` escaped as a crash; now
    the writer re-creates the parent and retries, and concedes silently
    only when the sweep also took its temp file (the clear won the race,
    and the state being saved was just declared obsolete anyway)."""

    def test_retries_after_parent_swept_but_tmp_survives(self, tmp_path):
        target = tmp_path / "ns" / "out.txt"
        real_replace = os.replace
        calls = []

        def flaky_replace(src, dst):
            calls.append((src, dst))
            if len(calls) == 1:
                raise FileNotFoundError(dst)  # parent vanished under us
            return real_replace(src, dst)

        with mock.patch("os.replace", side_effect=flaky_replace):
            with atomic_write(target) as fh:
                fh.write("survived")
        assert len(calls) == 2
        assert target.read_text() == "survived"

    def test_swept_tmp_means_the_clear_won_silently(self, tmp_path):
        target = tmp_path / "ns" / "out.txt"

        def sweeping_replace(src, dst):
            os.unlink(src)  # the rmtree took the temp file too
            raise FileNotFoundError(dst)

        with mock.patch("os.replace", side_effect=sweeping_replace):
            with atomic_write(target) as fh:  # no crash: the write is dropped
                fh.write("doomed")
        assert not target.exists()
        assert list((tmp_path / "ns").iterdir()) == []

    def test_pathological_delete_loop_fails_loudly(self, tmp_path):
        from repro.io.atomicio import _REPLACE_ATTEMPTS

        target = tmp_path / "ns" / "out.txt"
        calls = []

        def always_missing(src, dst):
            calls.append(dst)
            raise FileNotFoundError(dst)

        with mock.patch("os.replace", side_effect=always_missing):
            with pytest.raises(FileNotFoundError):
                with atomic_write(target) as fh:
                    fh.write("never lands")
        assert len(calls) == _REPLACE_ATTEMPTS  # bounded, not a spin
        assert not target.exists()

    def test_parent_swept_before_the_temp_open(self, tmp_path):
        """The same race one step earlier: the rmtree lands between the
        mkdir and the temp file's open.  Pre-fix the open's
        ``FileNotFoundError`` escaped; now the parent is re-created and
        the open retried."""
        target = tmp_path / "ns" / "out.txt"
        real_open = open
        calls = []

        def sweeping_open(file, *args, **kwargs):
            calls.append(file)
            if len(calls) == 1:
                shutil.rmtree(target.parent)  # the concurrent clear
            return real_open(file, *args, **kwargs)

        with mock.patch("repro.io.atomicio.open", side_effect=sweeping_open,
                        create=True):
            with atomic_write(target) as fh:
                fh.write("landed")
        assert len(calls) == 2
        assert target.read_text() == "landed"
        assert list(target.parent.iterdir()) == [target]

    def test_parent_created_and_swept_during_the_mkdir(self, tmp_path):
        """``mkdir(exist_ok=True)`` raises ``FileExistsError`` when another
        process creates the directory and a third removes it before
        pathlib's own is-it-a-directory check; that race is retried."""
        from pathlib import Path

        target = tmp_path / "ns" / "out.txt"
        real_mkdir = Path.mkdir
        calls = []

        def racing_mkdir(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 1:
                raise FileExistsError(str(self))
            return real_mkdir(self, *args, **kwargs)

        with mock.patch.object(Path, "mkdir", racing_mkdir):
            with atomic_write(target) as fh:
                fh.write("landed")
        assert len(calls) == 2
        assert target.read_text() == "landed"

    def test_parent_that_is_a_file_still_fails(self, tmp_path):
        (tmp_path / "ns").write_text("not a directory")
        with pytest.raises(FileExistsError):
            with atomic_write(tmp_path / "ns" / "out.txt") as fh:
                fh.write("never lands")

    def test_open_against_a_delete_loop_fails_loudly(self, tmp_path):
        from repro.io.atomicio import _REPLACE_ATTEMPTS

        target = tmp_path / "ns" / "out.txt"
        calls = []

        def always_missing(file, *args, **kwargs):
            calls.append(file)
            raise FileNotFoundError(file)

        with mock.patch("repro.io.atomicio.open", side_effect=always_missing,
                        create=True):
            with pytest.raises(FileNotFoundError):
                with atomic_write(target) as fh:
                    fh.write("never lands")
        assert len(calls) == _REPLACE_ATTEMPTS
        assert not target.exists()
