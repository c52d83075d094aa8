"""Compare saved benchmark results of two builds, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a result saved by ``run.py`` under ``.bench_out/results/``.
Results whose environment stamps differ (backend, thread budget, wavefront
mode, numba, core count, Python, NumPy, WAL filesystem) are not comparable
and the command refuses them (exit 2).  Otherwise it prints, per workload
and metric, both medians, the ratio new/base, and whether the change is
worse than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in base + new}
    if len(stamps) > 1:
        print("refusing to compare results with different stamps:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2

    spec = json.loads(Path(args.spec).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload}: missing on one side, skipped")
            continue
        for name in b[0]["metrics"]:
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            mn = statistics.median(r["metrics"][name]["value"] for r in n)
            info = bounds.get(name, {})
            ratio = mn / mb if mb else float("nan")
            flag = ""
            if "bound" in info and mb:
                loss = (mn - mb) / mb if info["better"] == "lower" else (mb - mn) / mb
                if loss > info["bound"]:
                    flag = "  WORSE than bound"
                    worse += 1
            print(f"{workload:8s} {name:36s} {mb:>14.6g} -> {mn:>14.6g}  "
                  f"x{ratio:.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
