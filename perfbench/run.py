"""Repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload {figures,replay,serve,sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's inputs are generated from
``--seed``; the program itself runs from ``src/``.  Set-up runs
:data:`common.SETUP_REPEATS` times (``setup_s`` is the median, import time
included) and the workload then measures for ``--seconds``.  Every run
checks its outputs by comparing two independent paths; a mismatch counts
as failed operations and the command exits 1.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` the run measures half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead (the throughput lost to tracing, in percent).  Each
result, with its environment stamp, is also saved under
``.bench_out/results/`` for ``perfbench/compare.py``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from pathlib import Path
from time import perf_counter

_T_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    DISPATCH_ENV_VARS, SETUP_REPEATS, SpeedMeter, emit, median, out_dir, stamp)

WORKLOADS = ("figures", "replay", "serve", "sweep")


class Context:
    """What a workload module gets: seed, checkout root, run length, the
    tracer (or none) and places to report failures and extra layer values."""

    def __init__(self, seed, root, seconds, tracer=None):
        self.seed = seed
        self.root = root
        self.seconds = seconds
        self.tracer = tracer
        self.traced = tracer is not None
        self.failures: list[Exception] = []
        self.layer_extra: dict = {}
        #: (span summary, counters) traced in other processes.
        self.other_spans: list = []

    def fail(self, exc: Exception) -> None:
        self.failures.append(exc)
        print(f"CHECK FAILED: {exc}", file=sys.stderr)

    def paused(self):
        """Calls inside are left out of the trace (reference paths)."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def _installers(name):
    import instrument

    return {
        "figures": (instrument.install_experiments,),
        "replay": (instrument.install_service,),
        "serve": (instrument.install_recovery,),
        "sweep": (instrument.install_fabric_store,),
    }[name]


def execute(module, ctx, import_s, repeats):
    """Set up *repeats* times (keeping the last), then measure."""
    setups, state = [], None
    with SpeedMeter() as meter:
        for _ in range(repeats):
            if state is not None:
                module.teardown(state)
                state = None
            t0, probed = perf_counter(), meter.total
            state = module.setup(ctx)
            t1 = perf_counter()
            setups.append(import_s + (t1 - t0 - (meter.total - probed))
                          / meter.factor(t0, t1))
    try:
        if ctx.tracer is not None:
            for install in _installers(module.__name__):
                install(ctx.tracer)
        try:
            result = module.measure(ctx, state, ctx.seconds)
        finally:
            if ctx.tracer is not None:
                ctx.tracer.restore()
    finally:
        module.teardown(state)
    result["metrics"]["setup_s"] = {"value": median(setups), "unit": "s",
                                    "samples": len(setups)}
    return result


def traced_layers(ctx, plain, traced):
    """Per-layer metrics of a traced run, with the tracing overhead."""
    import instrument
    from spans import merge_summaries

    summaries = ctx.tracer.summary()
    counts = ctx.tracer.counts
    for other, other_counts in ctx.other_spans:
        summaries = merge_summaries(summaries, other)
        counts.update(other_counts)
    extra = dict(ctx.layer_extra)
    before = plain["metrics"]["throughput_per_s"]["value"]
    after = traced["metrics"]["throughput_per_s"]["value"]
    extra["tracing.overhead_pct"] = (before / after - 1.0) * 100.0
    return instrument.layer_metrics(summaries, counts, extra)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in DISPATCH_ENV_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments  # noqa: F401
    import repro.service  # noqa: F401
    import_s = perf_counter() - _T_START

    module = importlib.import_module(args.workload)
    if args.trace:
        from spans import Tracer

        half = args.seconds / 2
        plain_ctx = Context(args.seed, ROOT, half)
        plain = execute(module, plain_ctx, import_s, 1)
        ctx = Context(args.seed, ROOT, half, Tracer())
        traced = execute(module, ctx, import_s, 1)
        ctx.failures += plain_ctx.failures
        result = dict(traced, metrics=traced_layers(ctx, plain, traced))
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
    else:
        ctx = Context(args.seed, ROOT, args.seconds)
        result = execute(module, ctx, import_s, SETUP_REPEATS)
    result["correct"] = not ctx.failures and result["failed"] == 0
    emit(args.workload, args.seed, bool(args.trace), result,
         stamp(out_dir(ROOT)), ROOT)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
