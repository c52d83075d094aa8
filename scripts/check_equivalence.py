#!/usr/bin/env python
"""Cross-engine equivalence smoke check, at a larger budget than the tests.

Runs, from :mod:`repro.core.equivalence`:

* the randomised three-way kernel sweep (ensemble vs fast vs reference);
* the randomised lockstep kernel sweeps: the wavefront and the compiled
  kernels (jitted, or without numba the same source through the
  interpreter) each against the per-ball ensemble kernel, bit-exact incl.
  heights;
* the spawn-mode driver parity sweeps (plain, stale-view batched, weighted
  balls, ring allocation — each lockstep driver vs its scalar counterpart);
* the dispatch-identity matrix: along each selected kernel-policy axis,
  randomised driver runs and every registered experiment on both engines
  must be bit-identical for every value of the axis;
* the per-experiment cross-engine matrix (every registered experiment on
  both engines, optionally at a ``--rep-factor`` multiple of the pinned
  repetition counts, within its pinned tolerance).

The matrix always covers the ``wavefront`` (on/off) and ``backend``
(compiled/numpy) axes; ``--threads`` adds the ``threads`` axis (compiled
tier forced to 1 vs 2 vs 7 threads).  ``--backend MODE`` pins the ambient
backend for the whole run, so CI can repeat the sweep once per available
backend (see ``scripts/ci.sh``).  ``--fabric N`` additionally runs every
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

from repro.core.equivalence import (
    DISPATCH_AXES,
    EXPERIMENT_CASES,
    SweepBudget,
    check_batched_parity,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_driver_parity,
    check_experiment_equivalence,
    check_fabric_serial_identity,
    check_kernel_equivalence,
    check_lockstep_kernel_equivalence,
    check_ring_parity,
    check_weighted_parity,
)
from repro.core.policy import CHOICES, HAVE_NUMBA, set_policy

#: Master-seed salts, so each sweep draws its own instances.
_KERNEL_SALTS = {"wavefront": 0xAFE1, "compiled": 0xC0DE}
_DRIVER_SALTS = {"wavefront": 0x0FF0, "backend": 0xBACC, "threads": 0x7EAD}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=400,
                        help="randomised kernel draws (default 400)")
    parser.add_argument("--driver-trials", type=int, default=40,
                        help="driver parity trials, per driver (default 40)")
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
    parser.add_argument("--threads", action="store_true",
                        help="add the threads axis (compiled tier forced to "
                             "1 vs 2 vs 7 threads) to the dispatch matrix")
    args = parser.parse_args(argv)

    budget = SweepBudget(draws=args.draws, max_m=args.max_m, max_r=args.max_r)
    axes = ["wavefront", "backend"] + (["threads"] if args.threads else [])
    started = time.perf_counter()
    if args.backend:
        # The script owns its process, so a plain process-wide override is
        # enough — identity checks still force both sides as they need to.
        set_policy(backend=args.backend)
        jit = "numba" if HAVE_NUMBA else "interpreter fallback"
        print(f"backend pinned:     {args.backend} ({jit})")
    try:
        kernel = check_kernel_equivalence(args.seed, budget)
        print(f"kernel equivalence: {kernel} draws OK "
              f"(ensemble == fast == reference, counts + heights)")
        for name, salt in _KERNEL_SALTS.items():
            draws = check_lockstep_kernel_equivalence(name, args.seed ^ salt, budget)
            print(f"{name + ' kernel:':20s}{draws} draws OK "
                  f"(run_batch_{name} == run_batch_ensemble, counts + heights)")
        for axis in axes:
            values = DISPATCH_AXES[axis]
            trials = check_driver_dispatch_identity(
                axis, values, args.seed ^ _DRIVER_SALTS[axis],
                trials=args.driver_trials,
            )
            print(f"{axis + ' drivers:':20s}{trials} trials OK "
                  f"({' == '.join(map(str, values))}, both engines, "
                  f"snapshots + heights)")
        driver = check_driver_parity(args.seed ^ 0xD41E, trials=args.driver_trials)
        print(f"driver parity:      {driver} trials OK "
              f"(simulate_ensemble row r == simulate(seed=child_r))")
        batched = check_batched_parity(args.seed ^ 0xBA7C, trials=args.driver_trials)
        print(f"batched parity:     {batched} trials OK "
              f"(simulate_batched_ensemble vs simulate_batched)")
        weighted = check_weighted_parity(args.seed ^ 0x3E16, trials=args.driver_trials)
        print(f"weighted parity:    {weighted} trials OK "
              f"(simulate_weighted_ensemble vs simulate_weighted)")
        ring = check_ring_parity(args.seed ^ 0x21F6, trials=args.driver_trials)
        print(f"ring parity:        {ring} trials OK "
              f"(allocate_requests_ensemble vs allocate_requests)")
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
