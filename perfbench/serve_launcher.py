"""Server process of the ``serve`` workload.

Builds the same service as ``repro serve --wal`` from the public API
(:class:`~repro.service.AllocationService` with a
:class:`~repro.service.WriteAheadLog`, served by
:func:`~repro.service.run_server`), prints ``READY <host> <port>`` once it
listens, and on SIGINT closes the WAL and writes a JSON summary: peak RSS,
CPU seconds spent serving, the WAL counters, the speed meter's samples
(see :class:`common.SpeedMeter`) and, with ``--trace``, the path of its
span dump.

    python3 perfbench/serve_launcher.py --wal W --seed N --summary S [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SpeedMeter, peak_rss_mb  # noqa: E402
from replay import make_service  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wal", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--summary", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from repro.service import WriteAheadLog, run_server

    tracer = None
    if args.trace:
        from instrument import install_service
        from spans import Tracer

        tracer = Tracer()
        install_service(tracer)
    # sync_every=1, the server default: one fsync per record.
    service = make_service(args.seed, wal=WriteAheadLog(args.wal, sync_every=1))
    cpu_start = [time.process_time()]

    def ready(addr):
        cpu_start[0] = time.process_time()
        print(f"READY {addr[0]} {addr[1]}", flush=True)

    meter = SpeedMeter()
    try:
        with meter:
            asyncio.run(run_server(service, "127.0.0.1", 0, ready=ready))
    except KeyboardInterrupt:
        pass
    cpu_s = time.process_time() - cpu_start[0]
    wal = service.stats()["wal"]
    service.close_wal()
    summary = {"peak_rss_mb": peak_rss_mb(), "cpu_s": cpu_s, "wal": wal,
               "speed": {"times": list(meter.times), "probes": list(meter.probes)},
               "spans": None}
    if tracer is not None:
        summary["spans"] = args.summary + ".spans"
        tracer.dump(summary["spans"])
    tmp = args.summary + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(summary, fh)
    Path(tmp).replace(args.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
