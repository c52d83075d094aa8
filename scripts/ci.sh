#!/usr/bin/env bash
# Routine check pipeline (also: `make check`).
#
# Runs, in order:
#   1. the tier-1 test suite (ROADMAP's verify command; it includes the
#      WAL SIGKILL test: a child killed right after 300 appends leaves all
#      300 records whole), then the checkpointer save/clear stress test
#      looped 50 times (a concurrent Checkpointer.clear must never crash a
#      writer);
#   2. the quick-mode benchmarks for the ensemble engine: the 5x (fig02)
#      and 3x (fig18) engine floors at R = 64, plus the wavefront-kernel
#      floors on the fig01-scaled n=10^4 configuration (R=16/R=64 over the
#      per-ball ensemble kernel, R=1 over fast.run_batch), the compiled
#      floors (with numba only), plus the sweep fabric's floor (2-worker
#      fabric at no worse than 0.8x the serial speed on fig02 R=4096,
#      measured 1.09-1.93x; results bit-identical); the run emits
#      BENCH_ensemble.json at the repo root (schema
#      repro.bench_ensemble/2: rows carry threads, always 1, and
#      cpu_count), validated right after;
#   3. the adaptive-precision smoke (quick-mode bench_adaptive.py): the
#      rel=2% fig02 run must early-stop at <= 50% of the fixed budget,
#      match the fixed-budget estimate, and round-trip the store;
#   4. the result-store round-trip smoke (second fig01 run must be a
#      bit-identical cache hit, >= 10x faster than the compute);
#   5. the sweep-fabric smoke: fig02 over 2 broker-leased workers with
#      one SIGKILLed mid-flight — the lost lease re-queues, the survivor
#      resumes, and the result must be bit-identical to the serial run;
#   6. the allocation-service replay bench (quick mode): one fixed
#      open-loop trace at d=1 and d=2, d=2 must beat the d=1 baseline,
#      emitting BENCH_service.json (schema repro.bench_service/2),
#      validated right after; plus the window-batching floor: replay()
#      at least 6x faster than a per-key allocate loop on the pinned
#      trace (4x where the native library does not load), with an equal
#      digest;
#   7. the allocation-service smoke: a tiny trace with one mid-stream
#      churn event driven over the live TCP endpoint — the wire run's
#      placement digest must equal the in-process reference bit for bit,
#      the stats endpoint must answer mid-traffic, and a fault-injected
#      pass (dropped connections + delayed reply) driven by the retrying
#      client must reproduce the same digest with a reproducible retry
#      transcript;
#   8. the crash-recovery smoke: a WAL-backed `repro serve` subprocess
#      SIGKILLed mid-trace, restarted from its write-ahead log, with the
#      client retrying through the outage — the final placement digest
#      and per-peer counts must be bit-identical to the uninterrupted
#      in-process replay (and to an offline `AllocationService.recover`);
#      then a pipelined driver at depths 1, 16 and 128 against a server
#      SIGKILLed at a seeded request: every reply it received must be in
#      the recovered log (acked => durable, the group-commit contract);
#   9. a reduced-budget equivalence sweep, run once: kernel three-way
#      bit-exactness, the wavefront and compiled lockstep kernel sweeps,
#      the native sweep (C row loops == protocol.reference_run, d 1..8,
#      near the int64 guard; skipped where the library does not load),
#      the window sweep (the service's chunk-wide window decide, C kernel
#      and Python twin, == a window-by-window stale_choice loop), the row
#      parity sweep of each lockstep driver (plain, stale-view, weighted,
#      ring: row r of an R-row run == the R = 1 row kernel on child seed
#      r), and randomised driver runs with each kernel tier forced by name
#      bit-identical to the unforced run.  The per-experiment matrix
#      (cross-engine and tier identity on every registered experiment)
#      runs in the tier-1 suite, so this step skips it; `make
#      equivalence` runs it at full budget by hand.
#
# The reduced budgets keep the whole pipeline at ~1 minute so the
# equivalence sweep is exercised routinely instead of only by hand; run
# scripts/check_equivalence.py directly (default or larger --draws /
# --rep-factor) for the full-budget sweep with the experiment matrix.
# Numba compilation is disk-cached (njit(cache=True)), so where numba
# exists the compiled tier pays the jit cost once per machine, not once
# per run.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== checkpointer save/clear stress (50 loops, each must be clean) =="
python - <<'PY'
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "tests/io")
from test_store import save_clear_stress

for _ in range(50):
    with tempfile.TemporaryDirectory() as tmp:
        save_clear_stress(Path(tmp))
print("checkpointer stress: 50 clean loops")
PY

echo "== quick benchmarks (ensemble engine + wavefront kernel + fabric floors) =="
REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_ensemble.py \
    benchmarks/bench_fabric.py -q

echo "== benchmark records schema check =="
python -c "
from repro.io.benchjson import load_bench_json
payload = load_bench_json('BENCH_ensemble.json')
print(f'BENCH_ensemble.json OK: {len(payload[\"rows\"])} rows, '
      f'{len(payload[\"speedups\"])} speedups')
"

echo "== adaptive-precision smoke (early-stop floors + store round trip) =="
REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_adaptive.py -q

echo "== result-store round-trip smoke =="
python scripts/store_smoke.py

echo "== sweep-fabric smoke (worker kill mid-flight, bit-identical) =="
python scripts/fabric_smoke.py

echo "== allocation-service replay bench (d=2 vs d=1 baseline) =="
REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_service.py -q

echo "== service benchmark records schema check =="
python -c "
from repro.io.benchjson import load_service_bench_json
payload = load_service_bench_json('BENCH_service.json')
ratios = {c['d']: round(c['max_load_ratio_vs_d1'], 3)
          for c in payload['comparisons']}
print(f'BENCH_service.json OK: {len(payload[\"rows\"])} rows, '
      f'max-load ratios vs d=1: {ratios}')
"

echo "== allocation-service smoke (wire digest == in-process, stats live) =="
python scripts/service_smoke.py

echo "== crash-recovery smoke (SIGKILL mid-trace -> WAL restart, bit-identical) =="
python scripts/recovery_smoke.py

echo "== reduced-budget equivalence sweep (kernels, drivers, every tier forced) =="
python scripts/check_equivalence.py --draws 60 --driver-trials 8 \
    --skip-experiments

echo "ci.sh: all checks passed"
