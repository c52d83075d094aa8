"""Sweep-fabric wall time vs the in-process serial ensemble path.

The fabric distributes blocks — broker-leased over a worker fleet, with
park-file resume after worker deaths — and since its cold path pays only
for the blocks (held requests woken by submit, one round trip per block,
unfsynced parks, one driver checkpoint per run) it is also a local
speedup: 2 workers finish fig02 R=4096 at 1.09–1.93x the serial wall time
(46 runs on 2 vCPUs; before that change it measured 0.49–0.80x).  The
spread is the machine's: both vCPUs drift independently over seconds, and
a serial round that lands on a fast phase sets a short best-of-3.
``FABRIC_FLOOR`` pins 0.8x — the largest tenth that holds with a 1.3
margin under the lowest run — so the 2-worker fabric must stay close to
serial; a protocol or launcher regression that makes dispatch chatty again
(a polling tick, a second round trip, an fsync per block) trips it.

Both timings run the identical request, and the results are asserted
bit-identical — the fabric clause of the seed contract, measured rather
than assumed.  Rows and the ``fabric_over_serial`` ratio land in
``BENCH_ensemble.json`` (see ``conftest.py``); run this module in the
same pytest invocation as ``bench_ensemble.py`` (as ``scripts/ci.sh``
does) so the session's speedup-kind gate sees every expected ratio.
"""

import time

import numpy as np
from conftest import BENCH_SEED, record_bench

from repro.experiments import run_experiment
from repro.runtime import FabricSession

#: Heavy enough that block compute is visible against dispatch overhead,
#: big blocks so the park pickling amortizes; ~0.4 s serial on CI hardware.
FABRIC_R = 4096
FABRIC_BLOCK = 512
FABRIC_WORKERS = 2

#: Wall-time ratio floor: fabric must finish within 1/0.8 of serial.
FABRIC_FLOOR = 0.8


def _fig02():
    return run_experiment(
        "fig02",
        engine="ensemble",
        seed=BENCH_SEED,
        repetitions=FABRIC_R,
        block_size=FABRIC_BLOCK,
    )


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fabric_dispatch_overhead_floor():
    _fig02()  # explicit untimed warmup: imports, jit loads, allocator pools
    serial, serial_result = _best_of(_fig02)
    with FabricSession(FABRIC_WORKERS) as session:
        with session.activate():
            _fig02()  # warm: worker module imports, broker handshakes

        def fabbed():
            with session.activate():
                return _fig02()

        fabric, fabric_result = _best_of(fabbed)
    ratio = serial / fabric
    print(f"\nfig02 R={FABRIC_R} bs={FABRIC_BLOCK}: serial {serial * 1e3:.1f} ms, "
          f"{FABRIC_WORKERS}-worker fabric {fabric * 1e3:.1f} ms, "
          f"ratio {ratio:.2f}x (floor {FABRIC_FLOOR}x)")
    for name in serial_result.series:
        assert (serial_result.series[name].tobytes()
                == fabric_result.series[name].tobytes()), name
    assert np.array_equal(serial_result.x_values, fabric_result.x_values)
    record_bench("fig02", FABRIC_R, "ensemble", "auto", serial)
    record_bench("fig02", FABRIC_R, f"ensemble-fabric{FABRIC_WORKERS}",
                 "auto", fabric)
    record_bench("fig02", FABRIC_R, "fabric_over_serial", "auto", None,
                 ratio=ratio, floor=FABRIC_FLOOR)
    assert ratio >= FABRIC_FLOOR, (
        f"fabric dispatch regressed: {ratio:.2f}x < {FABRIC_FLOOR}x of serial "
        f"on fig02 R={FABRIC_R} over {FABRIC_WORKERS} workers"
    )
