#!/usr/bin/env bash
# Routine check pipeline (also: `make check`).
#
# Runs, in order:
#   1. the tier-1 test suite (ROADMAP's verify command), then the
#      checkpointer save/clear stress test looped 50 times (a concurrent
#      Checkpointer.clear must never crash a writer);
#   2. the quick-mode benchmarks for the ensemble engine: the 5x (fig02)
#      and 3x (fig18) engine floors at R = 64, plus the wavefront-kernel
#      floors on the fig01-scaled n=10^4 configuration (R=16/R=64 over the
#      per-ball ensemble kernel, R=1 over fast.run_batch), the compiled
#      floors and — with numba and >= 4 cores — the 2x compiled-parallel
#      floor at R=256, plus the sweep fabric's dispatch-overhead floor
#      (2-worker fabric within 0.2x of serial on fig02 R=4096, results
#      bit-identical); the run emits BENCH_ensemble.json at the repo root
#      (schema repro.bench_ensemble/2: rows carry threads + cpu_count),
#      validated right after;
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
#      emitting BENCH_service.json (schema repro.bench_service/1),
#      validated right after; plus the window-batching floor: replay()
#      at least 4x faster than a per-key allocate loop on the pinned
#      trace, with an equal digest;
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
#   9. a reduced-budget cross-engine equivalence sweep, run once per
#      *available* backend (numpy always; compiled additionally when numba
#      is importable — without numba the numpy pass already executes the
#      compiled tier's interpreter fallback in its backend checks) —
#      kernel three-way bit-exactness, the wavefront and compiled kernel /
#      driver bit-identity sweeps, the four driver parity sweeps, and the
#      full per-experiment engine matrix with the wavefront forced on/off
#      and the backend forced compiled/numpy per experiment; where numba
#      is present the compiled pass repeats once under REPRO_THREADS=4
#      with --threads (forced 1 vs 2 vs 7 thread identity per experiment),
#      so the prange kernels are exercised under a real thread pool
#      routinely, not just through the numba-less prange=range fallback.
#
# The reduced budgets keep the whole pipeline at ~1 minute so the
# equivalence sweep is exercised routinely instead of only by hand; run
# scripts/check_equivalence.py directly (default or larger --draws /
# --rep-factor) for the full-budget sweep.  Numba compilation is
# disk-cached (njit(cache=True)), so where numba exists the compiled pass
# pays the jit cost once per machine, not once per run.
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

BACKENDS="numpy"
if python -c "import numba" 2>/dev/null; then
    BACKENDS="numpy compiled"
fi
for backend in $BACKENDS; do
    echo "== reduced-budget cross-engine equivalence sweep [backend=$backend] =="
    python scripts/check_equivalence.py --draws 60 --driver-trials 8 \
        --backend "$backend"
done

if python -c "import numba" 2>/dev/null; then
    echo "== reduced equivalence sweep under REPRO_THREADS=4 (thread identity) =="
    REPRO_THREADS=4 python scripts/check_equivalence.py --draws 20 \
        --driver-trials 4 --backend compiled --threads
fi

echo "ci.sh: all checks passed"
