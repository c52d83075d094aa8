"""Machine-readable benchmark records (``BENCH_ensemble.json``).

The quick-mode benchmark run in ``scripts/ci.sh`` emits one JSON document
at the repository root so PR-over-PR perf regressions become diffable:
every floor test contributes timing *rows* (config, R, engine, wavefront
mode, thread count, machine core count, seconds) and
*speedup* entries (the measured ratio next to its pinned floor).  The
schema is versioned and validated both by the unit tests
(``tests/io/test_benchjson.py``) and by ``scripts/ci.sh`` right after the
file is produced.

Schema history: ``repro.bench_ensemble/1`` rows carried (config, R,
engine, wavefront, seconds); ``/2`` adds ``threads`` and ``cpu_count``.
Every kernel now runs on one thread, so ``threads`` is always 1; the
field stays so the row layout, and the schema, do not change.  Only
``/2`` documents load.

The document intentionally keeps raw seconds: absolute numbers drift with
the machine, but the committed ratios and the row structure make "which
kernel regressed" a one-line diff instead of an archaeology session.
"""

from __future__ import annotations

import json
from typing import Any

from .atomicio import atomic_write

__all__ = [
    "BENCH_SCHEMA",
    "SERVICE_BENCH_SCHEMA",
    "validate_bench_payload",
    "write_bench_json",
    "load_bench_json",
    "validate_service_bench_payload",
    "write_service_bench_json",
    "load_service_bench_json",
]

#: Schema identifier; bump when the document layout changes.
BENCH_SCHEMA = "repro.bench_ensemble/2"

_ROW_KEYS = {"config": str, "R": int, "engine": str, "wavefront": str,
             "seconds": float, "threads": int, "cpu_count": int}
_SPEEDUP_KEYS = {"config": str, "R": int, "kind": str, "ratio": float,
                 "floor": float}


def _check_fields(entry: dict, spec: dict, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
    missing = set(spec) - set(entry)
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    extra = set(entry) - set(spec)
    if extra:
        raise ValueError(f"{where}: unknown fields {sorted(extra)}")
    for key, typ in spec.items():
        value = entry[key]
        if typ is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{where}.{key}: expected a number, got {value!r}")
        elif not isinstance(value, typ) or isinstance(value, bool):
            raise ValueError(
                f"{where}.{key}: expected {typ.__name__}, got {value!r}"
            )


def validate_bench_payload(payload: Any) -> dict:
    """Validate a benchmark document against :data:`BENCH_SCHEMA`.

    Returns the payload unchanged; raises ``ValueError`` with the offending
    path on any structural problem.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {BENCH_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("quick"), bool):
        raise ValueError("quick: expected a boolean")
    rows = payload.get("rows")
    speedups = payload.get("speedups")
    if not isinstance(rows, list) or not isinstance(speedups, list):
        raise ValueError("rows and speedups must be lists")
    for i, row in enumerate(rows):
        _check_fields(row, _ROW_KEYS, f"rows[{i}]")
        if row["wavefront"] not in ("auto", "on", "off", "n/a"):
            raise ValueError(f"rows[{i}].wavefront: {row['wavefront']!r}")
        if row["seconds"] <= 0:
            raise ValueError(f"rows[{i}].seconds: must be positive")
        if row["threads"] < 1:
            raise ValueError(f"rows[{i}].threads: must be >= 1")
        if row["cpu_count"] < 1:
            raise ValueError(f"rows[{i}].cpu_count: must be >= 1")
    for i, s in enumerate(speedups):
        _check_fields(s, _SPEEDUP_KEYS, f"speedups[{i}]")
        if s["ratio"] <= 0 or s["floor"] <= 0:
            raise ValueError(f"speedups[{i}]: ratio and floor must be positive")
    unknown = set(payload) - {"schema", "quick", "rows", "speedups"}
    if unknown:
        raise ValueError(f"unknown top-level fields {sorted(unknown)}")
    return payload


def write_bench_json(path, *, quick: bool, rows, speedups) -> dict:
    """Validate and atomically write a benchmark document (always at the
    current :data:`BENCH_SCHEMA`); returns it."""
    payload = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "rows": list(rows),
        "speedups": list(speedups),
    }
    validate_bench_payload(payload)
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


# -- allocation-service benchmark records (BENCH_service.json) ------------------

#: Schema identifier for the service replay benchmark document.  ``/2``:
#: ``max_over_mean`` divides placements by capacity (the paper's
#: imbalance) and ``max_over_mean_raw`` holds the raw-count ratio, which
#: was ``max_over_mean`` in ``/1``.
SERVICE_BENCH_SCHEMA = "repro.bench_service/2"

_SERVICE_TRACE_KEYS = {"requests": int, "objects": int, "users": int,
                       "rate": float, "seed": int, "digest": str}
_SERVICE_ROW_KEYS = {"d": int, "refresh_every": int, "peers": int,
                     "max_load": int, "mean_load": float,
                     "max_over_mean": float, "max_over_mean_raw": float,
                     "p50_ms": float, "p99_ms": float,
                     "seconds": float, "placement_digest": str}
_SERVICE_COMPARISON_KEYS = {"d": int, "max_load_ratio_vs_d1": float}


def validate_service_bench_payload(payload: Any) -> dict:
    """Validate a service benchmark document against
    :data:`SERVICE_BENCH_SCHEMA`.

    The document records one fixed replayed trace, one row per ``d``
    (latency percentiles are observability, so only positivity and
    ``p50 <= p99`` are checked — absolute values drift with the machine),
    and the max-load ratios against the ``d = 1`` consistent-hashing
    baseline, which are the committed comparison.  Returns the payload
    unchanged; raises ``ValueError`` with the offending path otherwise.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != SERVICE_BENCH_SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {SERVICE_BENCH_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("quick"), bool):
        raise ValueError("quick: expected a boolean")
    _check_fields(payload.get("trace"), _SERVICE_TRACE_KEYS, "trace")
    rows = payload.get("rows")
    comparisons = payload.get("comparisons")
    if not isinstance(rows, list) or not isinstance(comparisons, list):
        raise ValueError("rows and comparisons must be lists")
    if not rows:
        raise ValueError("rows: must not be empty")
    for i, row in enumerate(rows):
        _check_fields(row, _SERVICE_ROW_KEYS, f"rows[{i}]")
        if row["d"] < 1:
            raise ValueError(f"rows[{i}].d: must be >= 1")
        for key in ("max_over_mean", "max_over_mean_raw"):
            if row[key] < 1.0 and row["max_load"] > 0:
                raise ValueError(f"rows[{i}].{key}: must be >= 1")
        if row["seconds"] <= 0:
            raise ValueError(f"rows[{i}].seconds: must be positive")
        if not 0.0 <= row["p50_ms"] <= row["p99_ms"]:
            raise ValueError(f"rows[{i}]: need 0 <= p50_ms <= p99_ms")
    for i, c in enumerate(comparisons):
        _check_fields(c, _SERVICE_COMPARISON_KEYS, f"comparisons[{i}]")
        if c["max_load_ratio_vs_d1"] <= 0:
            raise ValueError(
                f"comparisons[{i}].max_load_ratio_vs_d1: must be positive"
            )
    unknown = set(payload) - {"schema", "quick", "trace", "rows", "comparisons"}
    if unknown:
        raise ValueError(f"unknown top-level fields {sorted(unknown)}")
    return payload


def write_service_bench_json(path, *, quick: bool, trace, rows, comparisons) -> dict:
    """Validate and atomically write a service benchmark document."""
    payload = {
        "schema": SERVICE_BENCH_SCHEMA,
        "quick": bool(quick),
        "trace": dict(trace),
        "rows": list(rows),
        "comparisons": list(comparisons),
    }
    validate_service_bench_payload(payload)
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_service_bench_json(path) -> dict:
    """Load and validate a service benchmark document."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return validate_service_bench_payload(payload)


def load_bench_json(path) -> dict:
    """Load and validate a benchmark document."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return validate_bench_payload(payload)
