"""Declarative run descriptions: :class:`RunRequest` and its cache key.

A :class:`RunRequest` is the frozen, canonical description of one
experiment run — experiment id, scale, seed, engine, workers, block size,
and the experiment-specific overrides — and is the unit the whole run
pipeline operates on:

* **Plan** — the CLI / sweep front end / scripts build requests instead of
  threading ad-hoc ``**kwargs`` through the stack;
* **Store** — :meth:`RunRequest.cache_key` addresses the content-addressed
  result store (:mod:`repro.io.store`);
* **Resume** — block checkpoints of an interrupted run are namespaced under
  the same key.

Cache-key semantics
-------------------
The key is the sha256 of a canonical JSON encoding of everything that can
change the numbers:

* ``experiment_id`` and the spec's ``version`` (bump
  :func:`repro.experiments.base.register`'s ``version`` whenever an
  experiment's semantics change — the same events that move golden tests);
* ``scale``, ``seed``, and the canonicalized ``overrides``;
* the *effective* engine (``None`` normalises to ``"scalar"``, the
  registry-wide default, so an unset engine and an explicit scalar request
  hit the same entry);
* ``block_size`` — but only under the ensemble engine, where blocked-mode
  results genuinely depend on it; on the scalar path it is dropped from the
  key because it cannot affect results.

``workers`` is deliberately **excluded**: the executor's seed contract
(:mod:`repro.runtime.executor`) guarantees pool size never changes any
result, so runs that differ only in parallelism share a cache entry.

``precision`` (an adaptive early-stop target,
:class:`repro.analysis.precision.PrecisionTarget`) **is** part of the key
whenever set: the target decides where the block stream stops, so two
runs differing only in precision generally hold different numbers.  The
field is canonicalized (sorted payload pairs) and joins the key payload
only when present, so every pre-adaptive cache entry keeps its address.

``None`` fields mean "use the experiment's own default".  Requests are
canonical *descriptions*, not semantic equalities: an explicit
``seed=20260612`` and the unset default produce different keys even when
the experiment's default seed happens to match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..analysis.precision import PrecisionTarget

__all__ = ["RunRequest", "canonical_overrides", "canonical_precision", "OverrideError"]

#: Engine the registry defaults to when a request leaves ``engine`` unset.
DEFAULT_ENGINE = "scalar"


class OverrideError(TypeError):
    """An override value cannot participate in a canonical cache key."""


def _canonical_value(name: str, value):
    """Convert one override value into canonical JSON-encodable form.

    NumPy scalars/arrays collapse to Python numbers / lists, tuples and
    sets to lists (sets sorted), dict keys to strings.  Anything that would
    not survive a JSON round-trip raises :class:`OverrideError` — a request
    must be serialisable to be addressable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_canonical_value(name, v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical_value(name, v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical_value(name, v) for v in value)
    if isinstance(value, dict):
        return {str(k): _canonical_value(name, v) for k, v in value.items()}
    raise OverrideError(
        f"override {name}={value!r} ({type(value).__name__}) is not "
        f"JSON-canonicalizable and cannot be part of a cache key"
    )


def canonical_overrides(overrides) -> tuple:
    """Canonicalize an override mapping into a sorted tuple of pairs."""
    if overrides is None:
        return ()
    items = overrides.items() if isinstance(overrides, dict) else overrides
    out = []
    for name, value in items:
        out.append((str(name), _canonical_value(str(name), value)))
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


def canonical_precision(value) -> tuple:
    """Canonicalize a precision target into sorted payload pairs.

    Accepts a :class:`~repro.analysis.precision.PrecisionTarget`, its
    payload dict, or an iterable of pairs; validation happens by round-
    tripping through the target class, so an unrepresentable target can
    never reach a cache key.
    """
    if isinstance(value, PrecisionTarget):
        target = value
    elif isinstance(value, dict):
        target = PrecisionTarget.from_payload(value)
    else:
        target = PrecisionTarget.from_payload(dict(value))
    return tuple(sorted(target.to_payload().items()))


@dataclass(frozen=True)
class RunRequest:
    """Frozen description of one experiment run (see module docstring)."""

    experiment_id: str
    scale: float | None = None
    seed: int | None = None
    engine: str | None = None
    workers: int | None = 1
    block_size: int | None = None
    overrides: tuple = field(default=())
    precision: tuple | None = None

    def __post_init__(self):
        # Accept dicts / iterables of pairs and normalise them; the frozen
        # dataclass requires the back-door setattr.
        object.__setattr__(self, "overrides", canonical_overrides(self.overrides))
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.block_size is not None:
            object.__setattr__(self, "block_size", int(self.block_size))
        if self.precision is not None:
            object.__setattr__(self, "precision", canonical_precision(self.precision))

    # -- derived views ---------------------------------------------------

    def overrides_dict(self) -> dict:
        """The canonical overrides as a plain dict (copy)."""
        return {k: v for k, v in self.overrides}

    def effective_engine(self) -> str:
        """The engine the run will actually use (``None`` → scalar)."""
        return self.engine if self.engine is not None else DEFAULT_ENGINE

    def precision_target(self) -> PrecisionTarget | None:
        """The adaptive early-stop target this request asks for (or None)."""
        if self.precision is None:
            return None
        return PrecisionTarget.from_payload(dict(self.precision))

    # -- cache key -------------------------------------------------------

    def key_payload(self, *, version: int) -> dict:
        """The canonical (JSON-encodable) payload the cache key hashes."""
        engine = self.effective_engine()
        payload = {
            "experiment_id": self.experiment_id,
            "version": int(version),
            "scale": self.scale,
            "seed": self.seed,
            "engine": engine,
            # block_size only matters where blocked-mode streams exist.
            "block_size": self.block_size if engine == "ensemble" else None,
            "overrides": {k: v for k, v in self.overrides},
        }
        if self.precision is not None:
            # Joined only when set, so pre-adaptive entries keep their keys.
            payload["precision"] = {k: v for k, v in self.precision}
        return payload

    def cache_key(self, *, version: int) -> str:
        """Stable content address: sha256 over the canonical JSON payload."""
        blob = json.dumps(
            self.key_payload(version=version),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- persistence -----------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-encodable round-trippable form (stored next to results)."""
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "engine": self.engine,
            "workers": self.workers,
            "block_size": self.block_size,
            "overrides": {k: v for k, v in self.overrides},
            "precision": None if self.precision is None else dict(self.precision),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRequest":
        """Inverse of :meth:`to_payload`."""
        return cls(
            experiment_id=payload["experiment_id"],
            scale=payload.get("scale"),
            seed=payload.get("seed"),
            engine=payload.get("engine"),
            workers=payload.get("workers", 1),
            block_size=payload.get("block_size"),
            overrides=payload.get("overrides") or (),
            precision=payload.get("precision"),
        )
