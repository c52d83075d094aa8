"""Benchmark harness support.

Each ``bench_figNN`` module regenerates one of the paper's figures at a
reduced scale inside ``pytest-benchmark`` and prints the series rows the
paper plots, so ``pytest benchmarks/ --benchmark-only`` doubles as the
figure-regeneration harness.  Scales are tuned for minutes-level total
runtime on one core; raise ``REPRO_BENCH_SCALE`` to approach paper scale.
"""

import os
import sys
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from repro import native
from repro.core.compiled import HAVE_NUMBA

#: Global multiplier on the per-bench repetition counts (env override).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Master seed for all benchmark runs.
BENCH_SEED = 20260612

#: Timing rows / speedup entries registered by the floor tests via
#: :func:`record_bench`; flushed to ``BENCH_ensemble.json`` at the repo
#: root when the session ends (see ``pytest_sessionfinish``) so perf is
#: diffable PR over PR.
_BENCH_ROWS: list = []
_BENCH_SPEEDUPS: list = []


def record_bench(config, R, engine, wavefront, seconds, *, ratio=None,
                 floor=None):
    """Register one benchmark measurement for ``BENCH_ensemble.json``.

    With *seconds* set, records a timing row (*engine* is ``scalar`` /
    ``ensemble``, *wavefront* the dispatch mode in force).  With *ratio*
    and *floor* set instead, records a speedup entry (*engine* names the
    ratio kind, e.g. ``wavefront_over_per_ball``).  Every row also records
    the machine's ``cpu_count``, and ``threads`` (always 1: every kernel
    runs serially) to keep the ``repro.bench_ensemble/2`` row layout.
    """
    if seconds is not None:
        _BENCH_ROWS.append({
            "config": str(config), "R": int(R), "engine": str(engine),
            "wavefront": str(wavefront), "seconds": float(seconds),
            "threads": 1, "cpu_count": int(os.cpu_count() or 1),
        })
    if ratio is not None:
        _BENCH_SPEEDUPS.append({
            "config": str(config), "R": int(R), "kind": str(engine),
            "ratio": float(ratio), "floor": float(floor),
        })


#: Ratio kinds every complete floor run produces; a session missing any of
#: them (single-test selection, a failed floor) must not overwrite the
#: committed perf-trajectory document with a partial one.  The compiled
#: kind is expected only where numba is installed — its floor tests skip
#: cleanly otherwise, and a skip must not block the write; the native kinds
#: likewise only where the native library loads.
_EXPECTED_SPEEDUP_KINDS = {
    "ensemble_over_scalar",
    "wavefront_over_per_ball",
    "wavefront_over_fast",
    "fabric_over_serial",
    "rows_over_lockstep",
    "lockstep_over_rows",
}
if native.available():  # the native floors skip where it does not load
    _EXPECTED_SPEEDUP_KINDS |= {"native_over_rows", "native_over_lockstep"}
if HAVE_NUMBA:  # pragma: no cover - only where numba is installed
    _EXPECTED_SPEEDUP_KINDS.add("compiled_over_wavefront")


def pytest_sessionfinish(session, exitstatus):
    if not (_BENCH_ROWS or _BENCH_SPEEDUPS):
        return
    kinds = {s["kind"] for s in _BENCH_SPEEDUPS}
    if exitstatus != 0 or not _EXPECTED_SPEEDUP_KINDS <= kinds:
        print("\nbenchmark records NOT written (partial or failed session)")
        return
    from repro.io.benchjson import write_bench_json

    path = Path(__file__).resolve().parents[1] / "BENCH_ensemble.json"
    write_bench_json(
        path,
        quick=bool(os.environ.get("REPRO_BENCH_QUICK")),
        rows=_BENCH_ROWS,
        speedups=_BENCH_SPEEDUPS,
    )
    print(f"\nbenchmark records written to {path}")

#: Replication widths for the ensemble-vs-scalar engine bench
#: (``bench_ensemble.py``).  ``REPRO_BENCH_QUICK=1`` trims the sweep to the
#: regression-sensitive widths so a quick run still lands the scalar/ensemble
#: pair (and hence the speedup ratio) in the ``BENCH_*.json`` output.
ENSEMBLE_BENCH_RS = (
    (8, 64) if os.environ.get("REPRO_BENCH_QUICK") else (1, 8, 64, 256)
)


def bench_reps(base: int) -> int:
    """Repetitions for a bench given its tuned base count."""
    return max(2, int(round(base * BENCH_SCALE)))


@pytest.fixture
def report_series():
    """Printer for figure series: the rows the paper's plot encodes."""

    def _print(result, max_rows: int = 12):
        print()
        print(f"=== {result.experiment_id}: {result.title} ===")
        for key, value in result.parameters.items():
            print(f"    {key} = {value}")
        n = result.x_values.size
        idx = (
            list(range(n))
            if n <= max_rows
            else sorted(set(list(range(0, n, max(1, n // max_rows))) + [n - 1]))
        )
        header = [result.x_name] + list(result.series)
        print("    " + " | ".join(f"{h:>22s}" for h in header))
        for i in idx:
            row = [f"{float(result.x_values[i]):>22.6g}"]
            for name in result.series:
                v = float(result.series[name][i])
                row.append(f"{v:>22.6g}" if np.isfinite(v) else f"{'nan':>22s}")
            print("    " + " | ".join(row))
        for key, value in result.extra.items():
            if key != "wall_seconds":
                print(f"    extra.{key} = {value}")

    return _print
