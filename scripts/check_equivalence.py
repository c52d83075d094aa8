#!/usr/bin/env python
"""Cross-engine equivalence smoke check, at a larger budget than the tests.

Runs, from :mod:`repro.core.equivalence`:

* the randomised three-way kernel sweep (ensemble vs fast vs reference);
* the randomised lockstep kernel sweeps: the wavefront and the compiled
  kernels (jitted, or without numba the same source through the
  interpreter) each against the per-ball ensemble kernel, bit-exact incl.
  heights;
* the randomised native sweep: the C row loops against
  ``protocol.reference_run`` (d in 1..8, every tie-break, heights,
  capacities just below the int64 guard), and the plain driver with the
  native tier forced against the library switched off, in both seed
  modes;
* the randomised window sweep: the service's chunk-wide window decide
  (``native.WindowKernel`` where the library loads, and its Python
  twin ``rounds.stale_windows``) against a window-by-window
  ``stale_choice`` loop (d in 1..8, duplicate candidates, ties across
  capacities, partial first windows, chunks ending mid-window, near the
  int64 guard);
* the spawn-mode row parity sweep, once per lockstep driver (plain,
  stale-view batched, weighted balls, ring allocation): row ``r`` of an
  R-row run, forced onto the lockstep kernels and onto the rows tier,
  must equal the ``R = 1`` run, which takes the driver's row kernel, on
  child seed ``r``;
* the dispatch-identity matrix: randomised driver runs with each kernel
  tier (native, compiled, wavefront, rows, lockstep) forced by name must
  be bit-identical to the unforced run;
* the per-experiment matrix (skipped by ``--skip-experiments``): every
  registered experiment on both engines, cross-engine within its pinned
  tolerance (optionally at a ``--rep-factor`` multiple of the pinned
  repetition counts) and with each tier forced bit-identical to the
  unforced run.

``--fabric N`` additionally runs every experiment over an N-worker sweep
fabric and requires bit-identity against the local serial run.

Exit code 0 means every replication of every draw was bit-identical across
engines and every experiment's figures agreed within its pinned tolerance.

Usage::

    PYTHONPATH=src python scripts/check_equivalence.py            # 400 draws
    PYTHONPATH=src python scripts/check_equivalence.py --draws 2000 --seed 7
    PYTHONPATH=src python scripts/check_equivalence.py --rep-factor 4
    PYTHONPATH=src python scripts/check_equivalence.py --skip-experiments
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import native
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    ROW_DRIVERS,
    SweepBudget,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_experiment_equivalence,
    check_fabric_serial_identity,
    check_kernel_equivalence,
    check_lockstep_kernel_equivalence,
    check_native_equivalence,
    check_row_parity,
    check_window_equivalence,
)
from repro.core.policy import TIERS

#: Master-seed salts, so each sweep draws its own instances.
_KERNEL_SALTS = {"wavefront": 0xAFE1, "compiled": 0xC0DE}
_DRIVER_SALT = 0x0FF0
_NATIVE_SALT = 0xC7A1
_WINDOW_SALT = 0x3D0E
_ROW_SALTS = {"plain": 0xD41E, "batched": 0xBA7C, "weighted": 0x3E16, "ring": 0x21F6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=400,
                        help="randomised kernel draws (default 400)")
    parser.add_argument("--driver-trials", type=int, default=40,
                        help="randomised driver trials: for the tier matrix, "
                             "and per lockstep driver for row parity "
                             "(default 40)")
    parser.add_argument("--seed", type=int, default=0xE25E, help="master seed")
    parser.add_argument("--max-m", type=int, default=200,
                        help="max balls per draw (default 200)")
    parser.add_argument("--max-r", type=int, default=8,
                        help="max lockstep replications per draw (default 8)")
    parser.add_argument("--rep-factor", type=int, default=1,
                        help="multiply the per-experiment repetition counts "
                             "of the cross-engine matrix (default 1)")
    parser.add_argument("--skip-experiments", action="store_true",
                        help="skip the per-experiment matrix (cross-engine "
                             "and tier identity)")
    parser.add_argument("--fabric", type=int, default=None, metavar="N",
                        help="also require fabric == serial bit-identity for "
                             "every experiment, over N broker-leased workers "
                             "(default: off; implies the experiment matrix)")
    args = parser.parse_args(argv)

    budget = SweepBudget(draws=args.draws, max_m=args.max_m, max_r=args.max_r)
    started = time.perf_counter()
    try:
        kernel = check_kernel_equivalence(args.seed, budget)
        print(f"kernel equivalence: {kernel} draws OK "
              f"(ensemble == fast == reference, counts + heights)")
        for name, salt in _KERNEL_SALTS.items():
            draws = check_lockstep_kernel_equivalence(name, args.seed ^ salt, budget)
            print(f"{name + ' kernel:':20s}{draws} draws OK "
                  f"(run_batch_{name} == run_batch_ensemble, counts + heights)")
        draws = check_native_equivalence(
            args.seed ^ _NATIVE_SALT, budget, trials=args.driver_trials
        )
        print(f"{'native kernel:':20s}"
              + (f"{draws} draws OK (native == reference, counts + heights; "
                 f"driver native forced == off)" if draws
                 else f"skipped ({native.status()})"))
        # A draw is one chunk of a few windows (~0.2 ms): ten per kernel draw.
        draws = check_window_equivalence(
            args.seed ^ _WINDOW_SALT,
            SweepBudget(draws=10 * args.draws, max_n=budget.max_n),
        )
        print(f"{'window kernel:':20s}{draws} draws OK ("
              + ("native == " if native.available() else "")
              + "stale_windows == window-by-window stale_choice)")
        trials = check_driver_dispatch_identity(
            TIERS, args.seed ^ _DRIVER_SALT, trials=args.driver_trials
        )
        print(f"{'tier drivers:':20s}{trials} trials OK "
              f"(each of {', '.join(TIERS)} forced == unforced, both engines, "
              f"snapshots + heights)")
        for driver in ROW_DRIVERS:
            trials = check_row_parity(
                driver, args.seed ^ _ROW_SALTS[driver], trials=args.driver_trials
            )
            print(f"{driver + ' rows:':20s}{trials} trials OK "
                  f"(lockstep and rows tiers: row r == R = 1 row kernel "
                  f"on child_r)")
        fabric = None
        if args.fabric:
            from repro.runtime.fabric import FabricSession

            fabric = FabricSession(args.fabric)
        if not args.skip_experiments or fabric is not None:
            for experiment_id in sorted(EXPERIMENT_CASES):
                worst = check_experiment_equivalence(
                    experiment_id, rep_factor=args.rep_factor
                )
                tol = EXPERIMENT_CASES[experiment_id].tol
                comparisons = check_dispatch_identity(experiment_id)
                fab_note = ""
                if fabric is not None:
                    check_fabric_serial_identity(experiment_id, fabric=fabric)
                    fab_note = f"; fabric=={args.fabric}-worker serial"
                print(f"experiment matrix:  {experiment_id:16s} OK "
                      f"(worst series deviation {worst:.4f} <= tol {tol}; "
                      f"every tier forced == unforced ({comparisons} "
                      f"comparisons){fab_note})")
    except AssertionError as exc:
        print(f"EQUIVALENCE FAILURE: {exc}", file=sys.stderr)
        return 1
    finally:
        if 'fabric' in locals() and fabric is not None:
            fabric.close()
    print(f"all checks passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
