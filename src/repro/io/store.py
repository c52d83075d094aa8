"""Content-addressed result store with resume checkpoints.

The store is the middle stage of the run pipeline (RunRequest → **store** →
resumable execution): results are persisted under the request's cache key
(:meth:`repro.experiments.request.RunRequest.cache_key`), so a repeated run
is a lookup instead of a recomputation, and a long ensemble run parks its
merged-so-far reducer state here at block boundaries so a killed run
restarts from the last checkpoint.

Layout (under one root directory)::

    <root>/results/<key>.npz          one self-contained entry per key
    <root>/checkpoints/<key>/slotNNNN.pkl   in-progress block checkpoints

Each result entry is a **single** ``.npz`` file — series arrays exactly as
computed (NaN padding and dtypes included, so the round-trip is
bit-identical) plus one JSON metadata member carrying the request, the
experiment metadata, and environment provenance.  All writes go through
:func:`repro.io.atomicio.atomic_write` (tmp file + ``os.replace``), so
concurrent sweep workers can never expose a torn entry.

The root location is the ``REPRO_STORE`` environment variable / ``--store``
CLI knob; see :func:`resolve_store`.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import native
from .atomicio import atomic_write
from .jsonio import to_jsonable

__all__ = [
    "ResultStore",
    "StoredResult",
    "StoreStats",
    "Checkpointer",
    "CheckpointSlot",
    "default_store_root",
    "resolve_store",
    "STORE_ENV_VAR",
]

#: Environment variable naming the default store root (the ``--store`` knob).
STORE_ENV_VAR = "REPRO_STORE"

#: Fallback root when neither ``--store DIR`` nor ``REPRO_STORE`` is given.
DEFAULT_STORE_DIRNAME = ".repro-store"

#: On-disk format version; bump on incompatible layout changes (old entries
#: are then treated as misses, never misread).
FORMAT_VERSION = 1

_META_MEMBER = "meta"
_X_MEMBER = "x_values"
_SERIES_PREFIX = "series:"


def default_store_root() -> Path:
    """The store root the CLI knob resolves to: ``$REPRO_STORE`` or
    ``./.repro-store``."""
    return Path(os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_DIRNAME)


def resolve_store(store) -> "ResultStore | None":
    """Normalise a store argument: ``None`` (no caching), an existing
    :class:`ResultStore`, ``True`` (the :func:`default_store_root` knob), or
    a path."""
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store
    if store is True:
        return ResultStore(default_store_root())
    return ResultStore(store)


@dataclass(frozen=True)
class StoreStats:
    """Aggregate store state plus this instance's hit/miss counters."""

    root: Path
    entries: int
    total_bytes: int
    hits: int
    misses: int


@dataclass(frozen=True)
class StoredResult:
    """One store entry: the result plus what produced it."""

    key: str
    result: "object"  # ExperimentResult (lazy import, see _result_from_npz)
    request: dict
    provenance: dict


class CheckpointSlot:
    """Persistence for one ``run_ensemble_reduced`` call's resume state.

    The executor saves ``(reducer, blocks_done)`` under a fingerprint of the
    call's identity (task, repetitions, block layout, seed, kwargs); a
    checkpoint whose fingerprint does not match the requesting call is
    ignored, so changed experiment internals start fresh instead of
    resuming unsoundly.  State is pickled (the streaming reducers round-trip
    bit-exactly) and written atomically; ``durable=False`` skips the fsync
    (for the fabric's recomputable parks only, see
    :mod:`repro.io.atomicio`).
    """

    def __init__(self, path: Path, *, durable: bool = True):
        self.path = Path(path)
        self.durable = durable

    def load(self, fingerprint: str):
        """Return ``(reducer, blocks_done, monitor)`` or ``None``.

        ``monitor`` is the early-stop monitor state saved alongside the
        reducer for adaptive runs (``None`` for fixed-budget runs and for
        checkpoints written before the adaptive-precision layer existed).
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:  # torn/foreign file: treat as no checkpoint
            return None
        if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
            return None
        return payload["reducer"], payload["blocks_done"], payload.get("monitor")

    def save(self, reducer, blocks_done: int, fingerprint: str, monitor=None) -> None:
        """Atomically persist the merged-so-far state after a block slab.

        ``monitor`` (optional, picklable) carries the sequential-stopping
        monitor's state for adaptive runs, so a resumed run replays the
        same continue/stop decisions instead of re-observing lost blocks.
        """
        blob = pickle.dumps(
            {
                "fingerprint": fingerprint,
                "blocks_done": int(blocks_done),
                "reducer": reducer,
                "monitor": monitor,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with atomic_write(self.path, "wb", durable=self.durable) as fh:
            fh.write(blob)


#: Slot file names: ``slot<digits>.pkl``.  The digit run is parsed
#: numerically everywhere — ordering never leans on the zero padding, so
#: legacy 4-digit names and the current 8-digit ones interoperate.
_SLOT_NAME_RE = re.compile(r"slot(\d+)\.pkl")

#: Zero-padding width for newly created slot files.  Eight digits keep the
#: names lexicographically ordered up to 10**8 slots; the old 4-digit width
#: broke at 10,000 (``slot10000`` sorted *before* ``slot9999``), which is
#: why discovery now parses indices instead of trusting name order.
_SLOT_DIGITS = 8


class Checkpointer:
    """Slot provider for one run's checkpoints (one directory per cache key).

    ``slot()`` hands out auto-numbered slots in call order; an experiment's
    ``run_ensemble_reduced`` call sequence is deterministic, so slot ``i``
    always belongs to the same logical sub-run on every attempt — which is
    exactly why ``_next`` starts at 0 on every instance (a resumed attempt
    must claim the same indices in the same order).  Construction rescans
    the directory so slot ``i`` resolves to its existing file under *any*
    historical padding width; new files use the current width.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._next = 0
        # index -> existing path (legacy 4-digit names included), discovered
        # by numeric parse so slot 10000 never sorts into the wrong place.
        self._existing: dict[int, Path] = {}
        for p in self._slot_files():
            m = _SLOT_NAME_RE.fullmatch(p.name)
            if m is None:
                continue
            index = int(m.group(1))
            canonical = len(m.group(1)) == _SLOT_DIGITS
            if canonical or index not in self._existing:
                self._existing[index] = p

    def _slot_files(self) -> list[Path]:
        """The slot files present now; none when the directory is missing,
        including when a concurrent :meth:`clear` removes it mid-scan."""
        try:
            return list(self.directory.glob("slot*.pkl"))
        except FileNotFoundError:
            return []

    def slot(self) -> CheckpointSlot:
        """Claim the next slot (numbered in deterministic call order).

        Resolves to the slot's existing file when one was discovered at
        construction (whatever padding wrote it), else to a fresh
        current-width name.
        """
        index = self._next
        self._next += 1
        path = self._existing.get(
            index, self.directory / f"slot{index:0{_SLOT_DIGITS}d}.pkl"
        )
        return CheckpointSlot(path)

    def slot_indices(self) -> list[int]:
        """Indices of the slot files discovered at construction, in numeric
        order (the order the deterministic call sequence claims them)."""
        return sorted(self._existing)

    def has_state(self) -> bool:
        """Whether any checkpoint file exists for this run."""
        return bool(self._slot_files())

    def clear(self) -> None:
        """Drop all checkpoints (called once the final result is stored)."""
        shutil.rmtree(self.directory, ignore_errors=True)


class ResultStore:
    """Content-addressed persistence for :class:`ExperimentResult` objects.

    Keys are the hex digests from :meth:`RunRequest.cache_key`; ``get`` /
    ``put`` / ``contains`` / ``evict`` / ``stats`` are the whole surface.
    ``hits``/``misses`` count this instance's ``get`` outcomes so callers
    (the sweep front end, the CI smoke) can report cache behaviour.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- paths -----------------------------------------------------------

    def _results_dir(self) -> Path:
        return self.root / "results"

    def _checkpoints_dir(self) -> Path:
        return self.root / "checkpoints"

    def result_path(self, key: str) -> Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self._results_dir() / f"{key}.npz"

    # -- core API --------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether an entry for *key* exists (does not touch the counters)."""
        return self.result_path(key).is_file()

    def get(self, key: str) -> StoredResult | None:
        """Load the entry for *key*; ``None`` (and a counted miss) if absent.

        The returned result's series and x-grid are bit-identical to what
        ``put`` received (the arrays round-trip through ``.npz`` untouched,
        NaN padding included).

        An *unreadable* entry — zero-byte, truncated, or a foreign file
        that is not a store ``.npz`` at all (a crashed pre-fsync writer, a
        partial copy) — is treated as a miss, not an error: the bad file is
        quarantined out of the way (renamed so it no longer matches the
        entry glob) and the caller recomputes, instead of one torn file
        poisoning every subsequent sweep over the store.
        """
        path = self.result_path(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            # np.load opens a path itself and leaks the handle when the
            # archive is unreadable; an open file object is always closed.
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(str(npz[_META_MEMBER][()]))
                if meta.get("format_version") != FORMAT_VERSION:
                    self.misses += 1
                    return None
                x_values = npz[_X_MEMBER]
                series = {
                    name[len(_SERIES_PREFIX):]: npz[name]
                    for name in npz.files
                    if name.startswith(_SERIES_PREFIX)
                }
            result = _result_from_meta(meta, x_values, series)
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return StoredResult(
            key=key,
            result=result,
            request=meta.get("request") or {},
            provenance=meta.get("provenance") or {},
        )

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside (best effort, race-tolerant).

        The quarantine name appends ``.corrupt``, so ``keys()``/``stats()``
        (which glob ``*.npz``) and ``contains``/``get`` no longer see it,
        while the bytes stay on disk for post-mortem inspection.  A
        concurrent ``put`` may have already replaced (or a concurrent
        ``get`` already quarantined) the path — losing that race is fine.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            path.unlink(missing_ok=True)

    def put(self, key: str, result, *, request=None) -> Path:
        """Persist *result* under *key* (atomic; overwrites any old entry).

        ``request`` (a :class:`RunRequest` or its payload dict) is stored
        alongside for provenance.  Completed results supersede resume state,
        so the key's checkpoints are dropped.
        """
        request_payload = request.to_payload() if hasattr(request, "to_payload") else request
        meta = {
            "format_version": FORMAT_VERSION,
            "key": key,
            "experiment_id": result.experiment_id,
            "title": result.title,
            "x_name": result.x_name,
            "series_names": list(result.series),
            "parameters": to_jsonable(result.parameters),
            "extra": to_jsonable(result.extra),
            "request": to_jsonable(request_payload) if request_payload else None,
            "provenance": _environment_provenance(),
        }
        arrays = {_META_MEMBER: json.dumps(meta, sort_keys=True), _X_MEMBER: result.x_values}
        for name, values in result.series.items():
            arrays[f"{_SERIES_PREFIX}{name}"] = values
        path = self.result_path(key)
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)
        self.clear_checkpoints(key)
        return path

    def evict(self, key: str) -> bool:
        """Remove the entry (and any checkpoints) for *key*; report if an
        entry existed."""
        path = self.result_path(key)
        existed = path.is_file()
        path.unlink(missing_ok=True)
        self.clear_checkpoints(key)
        return existed

    def keys(self) -> list[str]:
        """All stored keys (sorted)."""
        if not self._results_dir().is_dir():
            return []
        return sorted(p.stem for p in self._results_dir().glob("*.npz"))

    def stats(self) -> StoreStats:
        """Entry count, on-disk bytes, and this instance's hit/miss tally.

        Safe against concurrent eviction: an entry that vanishes between
        the directory listing and its ``stat`` is simply skipped (the
        listing is a live snapshot, not a lock).
        """
        entries = 0
        total = 0
        if self._results_dir().is_dir():
            for p in self._results_dir().glob("*.npz"):
                try:
                    size = p.stat().st_size
                except OSError:  # evicted (or broken link) mid-iteration
                    continue
                entries += 1
                total += size
        return StoreStats(
            root=self.root,
            entries=entries,
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
        )

    # -- fabric scratch ---------------------------------------------------

    def fabric_dir(self, token: str) -> Path:
        """Scratch namespace for one fabric work set (see ``runtime.fabric``).

        The sweep fabric parks per-block reducer state and its work spec
        under ``<root>/fabric/<token>/`` — *token* is a content hash of the
        run's checkpoint fingerprint, so a restarted broker finds exactly
        its own parked blocks and two different runs can never share state.
        Files inside are ordinary :class:`CheckpointSlot` pickles written
        through :func:`atomic_write`, so concurrent workers are safe by the
        same argument as result entries; they skip the fsync
        (``durable=False``), because each is recomputable from the token.
        """
        return self.root / "fabric" / token

    def clear_fabric(self, token: str) -> None:
        """Drop one fabric work set's scratch state (post-merge cleanup)."""
        shutil.rmtree(self.fabric_dir(token), ignore_errors=True)

    # -- resume checkpoints ----------------------------------------------

    def checkpointer(self, key: str) -> Checkpointer:
        """The checkpoint namespace for one run (see :class:`Checkpointer`)."""
        return Checkpointer(self._checkpoints_dir() / key)

    def has_checkpoints(self, key: str) -> bool:
        """Whether resume state exists for *key*."""
        return self.checkpointer(key).has_state()

    def clear_checkpoints(self, key: str) -> None:
        """Drop resume state for *key*."""
        self.checkpointer(key).clear()


def _environment_provenance() -> dict:
    """What produced a store entry (for audits, not for the cache key).
    ``native`` is ``"on"`` when the C kernels are loaded in this process
    (unforced dispatch runs them), else the reason they fell back; the
    numbers are the same either way."""
    try:
        from .. import __version__ as repro_version
    except Exception:  # pragma: no cover - package metadata missing
        repro_version = "unknown"
    return {
        "repro": repro_version,
        "native": native.status(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "created_unix": int(time.time()),
    }


def _result_from_meta(meta: dict, x_values, series):
    """Rebuild an ``ExperimentResult`` from a store entry.

    Imported lazily: ``experiments.base`` already imports :mod:`repro.io`
    submodules, and the store must stay importable on its own.
    """
    from ..experiments.base import ExperimentResult

    return ExperimentResult(
        experiment_id=meta["experiment_id"],
        title=meta["title"],
        x_name=meta["x_name"],
        x_values=x_values,
        series={name: series[name] for name in meta["series_names"]},
        parameters=meta.get("parameters") or {},
        extra=meta.get("extra") or {},
    )
