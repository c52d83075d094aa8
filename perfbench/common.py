"""Shared pieces of the benchmark: environment stamp, statistics, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

#: Dispatch knobs the benchmark removes from its environment so that the
#: program's auto resolution is what gets measured.
DISPATCH_ENV_VARS = ("REPRO_BACKEND", "REPRO_THREADS", "REPRO_WAVEFRONT")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class CheckFailed(Exception):
    """A correctness check found a mismatch between two paths."""


class SpeedMeter:
    """Samples how fast this process's CPU runs, to factor it out.

    The machine's speed drifts by up to 2x over seconds, independently on
    each vCPU and in CPU time as much as in wall time.  Every *period*
    seconds a timer signal runs a fixed pure-Python loop and records its CPU
    time (CPU, not wall, so preemption does not count).  :meth:`factor` is
    the mean probe time over an interval divided by :data:`REFERENCE_S`:
    a rate measured in that interval times the factor, or a duration
    divided by it, is the value at the reference speed.  ``total`` is the
    wall time spent probing, for callers to take out of their timings.
    """

    LOOP = 2000
    #: Probe CPU time that defines the reference speed (a fast stretch of
    #: a 2.1 GHz Xeon vCPU); only scales the normalised values.
    REFERENCE_S = 1.0e-4

    def __init__(self, period: float = 0.02):
        self.period = period
        self.times = array("d")
        self.probes = array("d")
        self.total = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        w0, c0, x = perf_counter(), thread_time(), 0
        for i in range(self.LOOP):
            x += i * i
        self.probes.append(thread_time() - c0)
        self.times.append(w0)
        self.total += perf_counter() - w0

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean probe time around ``[start, end]`` over the reference.  The
        interval is widened by one period each side, so one shorter than
        the period still sees its neighbouring probes."""
        if not self.probes:
            self._probe()
        return speed_factor(self.times, self.probes,
                            start - self.period, end + self.period)


def speed_factor(times, probes, start, end) -> float:
    """:meth:`SpeedMeter.factor` over samples taken in another process
    (``perf_counter`` is the system-wide monotonic clock on Linux)."""
    # Copies: a view would pin the meter's buffers while a probe appends.
    # A probe may also land between the two copies, so trim to a pair.
    t = np.array(times, dtype=np.float64)
    p = np.array(probes, dtype=np.float64)
    t, p = t[:min(t.size, p.size)], p[:min(t.size, p.size)]
    inside = p[(t >= start) & (t <= end)]
    return float((inside if inside.size else p).mean()) / SpeedMeter.REFERENCE_S


def out_dir(root: Path) -> Path:
    """Scratch directory for run artefacts, inside the checkout."""
    path = root / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fs_type(path) -> str:
    """Filesystem type of the mount holding *path* (``unknown`` off Linux)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def stamp(wal_dir) -> dict:
    """What the numbers depend on besides the code: resolved dispatch,
    machine size, interpreter and library versions, WAL filesystem."""
    import importlib.util

    from repro.core import compiled, wavefront

    return {
        "backend": "compiled" if compiled.use_compiled() else "numpy",
        "backend_mode": compiled.get_backend(),
        "threads": str(compiled.get_threads()),
        "worker_threads": compiled.worker_thread_budget(),
        "wavefront_mode": wavefront.get_mode(),
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wal_fs": fs_type(wal_dir),
    }


def percentile_ms(seconds, q: float) -> float:
    """The *q*-th percentile of a sample of durations, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def iqm_ms(seconds) -> float:
    """Interquartile mean of durations, in milliseconds: the mean of the
    samples between the 25th and 75th percentiles.  Unlike the median it
    moves smoothly when a run mixes fast and slow stretches of the machine,
    so it stays steady from run to run."""
    x = np.sort(np.asarray(seconds, dtype=np.float64))
    lo, hi = len(x) // 4, len(x) - len(x) // 4
    return float(x[lo:hi].mean()) * 1e3


def windowed_percentile_ms(seconds, q: float, window: int) -> float:
    """Median over consecutive windows of *window* samples (in order) of
    each window's *q*-th percentile, in milliseconds.  A stall hits the
    windows it falls in, not the whole run's tail; choose *window* so each
    has at least ten samples beyond *q*."""
    x = np.asarray(seconds, dtype=np.float64)
    count = max(1, len(x) // window)
    return float(np.median([np.percentile(part, q)
                            for part in np.array_split(x, count)])) * 1e3


def median(values) -> float:
    return float(statistics.median(values))


def metric(value, unit: str, samples: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = int(samples)
    return out


def emit(workload: str, seed: int, trace: bool, result: dict, run_stamp: dict,
         root: Path) -> None:
    """Print the human report and the final JSON line; save both."""
    for name, m in result["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{workload:8s} {name:36s} {m['value']:>16.6g} {m['unit']}{n}")
    for name, (value, unit) in result.get("report", {}).items():
        print(f"{workload:8s} {name:36s} {value:>16.6g} {unit}")
    print(f"{workload:8s} ops={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }
    saved = dict(final, workload=workload, seed=seed, trace=int(trace),
                 stamp=run_stamp, report=result.get("report", {}))
    results = out_dir(root) / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True)
    sys.stdout.write(json.dumps(final) + "\n")
    sys.stdout.flush()
