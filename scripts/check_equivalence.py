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
  native tier on against off in both seed modes;
* the randomised window sweep: the service's chunk-wide window decide
  (``native.decide_windows`` where the library loads, and its Python
  twin ``rounds.stale_windows``) against a window-by-window
  ``stale_choice`` loop (d in 1..8, duplicate candidates, ties across
  capacities, partial first windows, chunks ending mid-window, near the
  int64 guard);
* the spawn-mode row parity sweep, once per lockstep driver (plain,
  stale-view batched, weighted balls, ring allocation): row ``r`` of an
  R-row run, forced onto the lockstep kernels and onto the rows tier,
  must equal the ``R = 1`` run, which takes the driver's row kernel, on
  child seed ``r``;
* the dispatch-identity matrix: along each selected dispatch axis,
  randomised driver runs and every registered experiment on both engines
  must be bit-identical for every value of the axis;
* the per-experiment cross-engine matrix (every registered experiment on
  both engines, optionally at a ``--rep-factor`` multiple of the pinned
  repetition counts, within its pinned tolerance).

The matrix always covers the ``wavefront`` (on/off), ``rows`` (the rows
tier at every R vs the lockstep kernels at every R > 1), ``backend``
(compiled/numpy) and ``native`` (the C tier vs today's auto dispatch;
left out of a pass pinned with ``--native off``) axes.  ``--backend
MODE`` pins the ambient backend for the whole run, and ``--native
on|off`` the ambient native tier, so CI can repeat the sweep once per
available backend and native value (see ``scripts/ci.sh``).  ``--fabric N`` additionally runs every
experiment over an N-worker sweep fabric and requires bit-identity
against the local serial run.

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
    DISPATCH_AXES,
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
from repro.core.policy import CHOICES, HAVE_NUMBA, set_policy

#: Master-seed salts, so each sweep draws its own instances.
_KERNEL_SALTS = {"wavefront": 0xAFE1, "compiled": 0xC0DE}
_DRIVER_SALTS = {"wavefront": 0x0FF0, "rows": 0x2055, "backend": 0xBACC,
                 "native": 0x7A7E}
_NATIVE_SALT = 0xC7A1
_WINDOW_SALT = 0x3D0E
_ROW_SALTS = {"plain": 0xD41E, "batched": 0xBA7C, "weighted": 0x3E16, "ring": 0x21F6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=400,
                        help="randomised kernel draws (default 400)")
    parser.add_argument("--driver-trials", type=int, default=40,
                        help="randomised driver trials: per dispatch axis, and "
                             "per lockstep driver for row parity (default 40)")
    parser.add_argument("--seed", type=int, default=0xE25E, help="master seed")
    parser.add_argument("--max-m", type=int, default=200,
                        help="max balls per draw (default 200)")
    parser.add_argument("--max-r", type=int, default=8,
                        help="max lockstep replications per draw (default 8)")
    parser.add_argument("--rep-factor", type=int, default=1,
                        help="multiply the per-experiment repetition counts "
                             "of the cross-engine matrix (default 1)")
    parser.add_argument("--skip-experiments", action="store_true",
                        help="skip the per-experiment cross-engine matrix")
    parser.add_argument("--fabric", type=int, default=None, metavar="N",
                        help="also require fabric == serial bit-identity for "
                             "every experiment, over N broker-leased workers "
                             "(default: off; implies the experiment matrix)")
    parser.add_argument("--backend", choices=CHOICES["backend"], default=None,
                        help="pin the ambient backend for the whole run "
                             "(default: leave REPRO_BACKEND in force)")
    parser.add_argument("--native", choices=("on", "off"), default=None,
                        help="pin the ambient native tier for the whole run "
                             "(default: on wherever the library loads)")
    args = parser.parse_args(argv)

    budget = SweepBudget(draws=args.draws, max_m=args.max_m, max_r=args.max_r)
    # A pass pinned to native off leaves the native axis (which forces
    # both values itself) to the pass that runs with it on.
    axes = (["wavefront", "rows", "backend"]
            + (["native"] if args.native != "off" else []))
    started = time.perf_counter()
    if args.backend:
        # The script owns its process, so a plain process-wide override is
        # enough — identity checks still force both sides as they need to.
        set_policy(backend=args.backend)
        jit = "numba" if HAVE_NUMBA else "interpreter fallback"
        print(f"backend pinned:     {args.backend} ({jit})")
    if args.native:
        native.ENABLED = args.native == "on"
        print(f"native pinned:      {args.native} ({native.status()})")
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
                 f"driver native on == off)" if draws
                 else f"skipped ({native.status()})"))
        # A draw is one chunk of a few windows (~0.2 ms): ten per kernel draw.
        draws = check_window_equivalence(
            args.seed ^ _WINDOW_SALT,
            SweepBudget(draws=10 * args.draws, max_n=budget.max_n),
        )
        print(f"{'window kernel:':20s}{draws} draws OK ("
              + ("native == " if native.available() else "")
              + "stale_windows == window-by-window stale_choice)")
        for axis in axes:
            values = DISPATCH_AXES[axis]
            trials = check_driver_dispatch_identity(
                axis, values, args.seed ^ _DRIVER_SALTS[axis],
                trials=args.driver_trials,
            )
            print(f"{axis + ' drivers:':20s}{trials} trials OK "
                  f"({' == '.join(map(str, values))}, both engines, "
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
                notes = []
                for axis in axes:
                    values = DISPATCH_AXES[axis]
                    comparisons = check_dispatch_identity(experiment_id, axis, values)
                    notes.append(f"{axis} {'=='.join(map(str, values))} "
                                 f"({comparisons} comparisons)")
                fab_note = ""
                if fabric is not None:
                    check_fabric_serial_identity(experiment_id, fabric=fabric)
                    fab_note = f"; fabric=={args.fabric}-worker serial"
                print(f"experiment matrix:  {experiment_id:16s} OK "
                      f"(worst series deviation {worst:.4f} <= tol {tol}; "
                      f"{'; '.join(notes)}{fab_note})")
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
