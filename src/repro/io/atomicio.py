"""Atomic file writes (tmp file + ``os.replace``).

Every artifact the project persists — result CSV/JSON, store entries,
resume checkpoints — goes through :func:`atomic_write`, so a reader (or a
concurrent sweep worker) can never observe a torn file: the payload is
written to a call-unique ``*.tmp-<pid>-<seq>`` sibling, flushed and fsynced,
and renamed into place only once the write completed.  ``os.replace`` is
atomic on POSIX and Windows for same-directory renames.

Durability
----------
By default the payload is fsynced before the rename, so once
:func:`atomic_write` returns the new content survives a machine crash.
``durable=False`` keeps the rename atomicity and skips the fsync: a reader
still sees the old file or the whole new one, but a crash shortly after
the write may leave the old file, no file, or a zero-length or truncated
one in its place.  Only the sweep fabric's scratch namespace
(:meth:`repro.io.store.ResultStore.fabric_dir`: the ``spec.pkl`` and the
parked block reducers) is written that way.  Each of those files is a pure
function of ``(work_token, block)``; a torn or missing park fails its
fingerprint or unpickling and reads as "not done", so the broker leases
the block again and it is recomputed bit-identically; the driver
rewrites the spec at every submission.  Result entries and driver checkpoints stay
durable: they are not recomputable from a token alone.

The temp suffix is unique per *call*, not just per process: two threads (or
a re-entrant writer) targeting the same path each get their own sibling, so
neither can truncate the other's half-written payload or unlink a file the
other just published.  Last replace wins, both outcomes are whole files.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write"]

#: Per-process monotonic suffix: with the pid this makes every concurrently
#: live temp name unique, across threads and across processes sharing the
#: directory.  ``itertools.count`` increments under the GIL, so no lock.
_tmp_counter = itertools.count()


@contextmanager
def atomic_write(path, mode: str = "w", *, durable: bool = True, **open_kwargs):
    """Context manager yielding a file handle whose content appears at
    *path* atomically on successful exit.

    The parent directory is created if missing.  The handle is flushed and
    (unless ``durable=False``, see the module docstring) fsynced before the
    rename, so a crash straddling the replace can leave the old content or
    the new — never an empty or truncated file.  On an
    exception inside the block the temporary file is removed and *path* is
    left untouched (its previous content, if any, survives).
    """
    path = Path(path)
    _make_dirs(path.parent)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{next(_tmp_counter)}"
    )
    try:
        with _open_in_place(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            if durable:
                os.fsync(fh.fileno())
        _replace_into_place(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


#: Bounded attempts for the temp-file open and the final rename when the
#: parent directory is being removed concurrently (``Checkpointer.clear``
#: races a late ``slot.save`` from another process — the fabric's steady
#: state).
_REPLACE_ATTEMPTS = 5


def _open_in_place(tmp: Path, mode: str, **open_kwargs):
    """``open`` of the temp file that survives a concurrently vanishing
    parent directory: the same race as :func:`_replace_into_place`, one
    step earlier (the rmtree lands between the mkdir and the open).  No
    temp file exists yet, so there is nothing for the clear to have
    won — re-create the parent and retry, bounded."""
    for attempt in range(_REPLACE_ATTEMPTS):
        try:
            return open(tmp, mode, **open_kwargs)
        except FileNotFoundError:
            if attempt == _REPLACE_ATTEMPTS - 1:
                raise
            _make_dirs(tmp.parent)


def _replace_into_place(tmp: Path, path: Path) -> None:
    """``os.replace`` that survives a concurrently vanishing parent dir.

    A same-directory rename raising ``FileNotFoundError`` means the
    directory itself disappeared between the mkdir and the replace — a
    concurrent ``shutil.rmtree`` of the namespace (``Checkpointer.clear``
    racing a late ``slot.save`` from another process, the fabric's steady
    state).  Previously this escaped as a crash.  Recovery: re-create the
    parent and retry while the temp file survived; if the rmtree swept the
    temp file too, the concurrent *clear* won the race — the state being
    saved was just declared obsolete by whoever cleared it, so the write is
    dropped silently (the old pre-fix behaviour was a crash, never a
    completed write, so no caller can be relying on it landing).  Bounded
    so a pathological delete loop fails loudly rather than spinning.
    """
    for attempt in range(_REPLACE_ATTEMPTS):
        try:
            os.replace(tmp, path)
            return
        except FileNotFoundError:
            if not tmp.exists():  # swept by the concurrent rmtree: clear wins
                return
            if attempt == _REPLACE_ATTEMPTS - 1:
                raise
            _make_dirs(path.parent)


def _make_dirs(directory: Path) -> None:
    """``mkdir -p`` that survives a concurrent create-then-remove.

    With ``exist_ok``, pathlib answers a ``FileExistsError`` by checking
    that the directory is there — and raises when a concurrent rmtree
    removed it in between.  That race is retried, bounded; a path that
    exists as a file still fails.
    """
    for attempt in range(_REPLACE_ATTEMPTS):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            return
        except FileExistsError:
            if attempt == _REPLACE_ATTEMPTS - 1:
                raise
