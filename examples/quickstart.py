#!/usr/bin/env python
"""Quickstart: the paper's model in five minutes.

Builds a heterogeneous bin array, throws m = C balls with the greedy
2-choice protocol (Algorithm 1), and compares the result against the
single-choice baseline and the analytical bound of Theorem 3.

Run:  python examples/quickstart.py
"""

from repro import (
    one_choice,
    simulate,
    theorem3_bound,
    two_class_bins,
)
from repro.analysis import per_class_max_loads
from repro.theory import applicable_theorems


def main() -> None:
    # A system of 500 small disks (capacity 1) and 500 big disks
    # (capacity 10) — the paper's Figure 6 setting at 50% large bins.
    bins = two_class_bins(500, 500, small_capacity=1, large_capacity=10)
    print(bins)
    print(f"total capacity C = {bins.total_capacity}\n")

    # Throw m = C balls with d = 2 choices, probabilities proportional to
    # capacity, max-capacity tie-breaking (the paper's Algorithm 1).
    result = simulate(bins, seed=2026)
    print("greedy 2-choice (Algorithm 1):")
    print(f"  max load      = {result.max_load:.3f}")
    print(f"  average load  = {result.average_load:.3f}  (optimum)")
    print(f"  gap           = {result.gap:.3f}")
    for cap, ml in sorted(per_class_max_loads(result.counts, bins.capacities).items()):
        print(f"  max load in capacity-{cap} bins: {ml:.3f}")

    # The single-choice baseline shows what the second choice buys.
    baseline = one_choice(bins, seed=2026)
    print("\nsingle-choice baseline:")
    print(f"  max load      = {baseline.max_load:.3f}")

    # Theorem 3 bounds the greedy maximum by lnln(n)/ln(d) + O(1).
    bound = theorem3_bound(bins.n, d=2, constant=2.0)
    print(f"\nTheorem 3 bound (constant=2): {bound:.3f}")
    assert result.max_load <= bound, "theorem violated?!"

    # Which of the paper's theorems cover this system?
    print("\napplicable theorems:")
    for report in applicable_theorems(bins):
        status = "yes" if report.applies else "no"
        print(f"  {report.theorem:12s} {status}")

    # Repeated figure runs are cache hits through the result store: the
    # same request (experiment, scale, seed, engine, overrides) maps to the
    # same content address, so the second run does zero simulation work.
    # The CLI front ends are `repro run fig02 --store` and
    # `repro sweep fig02,fig06 --seeds 1,2 --engines scalar,ensemble --store`
    # (the store location is the --store DIR / $REPRO_STORE knob, default
    # ./.repro-store; a killed sweep resumes from block checkpoints).
    import tempfile

    from repro.experiments import run_experiment
    from repro.io import ResultStore

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        run_experiment("fig02", seed=2026, repetitions=8, store=store)
        run_experiment("fig02", seed=2026, repetitions=8, store=store)  # hit
        stats = store.stats()
        print(f"\nresult store: {stats.entries} entry, "
              f"{stats.hits} hit / {stats.misses} miss")

    # Adaptive precision: make the repetition count a *maximum* instead of
    # a fixed burn.  With a precision target the ensemble run stops at the
    # first block boundary where every monitored series' batch-means CI
    # half-width meets the target — the CLI spelling is
    # `repro run fig02 --engine ensemble --precision rel=0.05,conf=0.95`.
    from repro.analysis import PrecisionTarget

    result = run_experiment(
        "fig02", seed=2026, engine="ensemble", repetitions=1024,
        precision=PrecisionTarget.parse("rel=0.05,conf=0.95"),
    )
    adaptive = result.extra["adaptive"]
    print(f"adaptive run: used {adaptive['replications_used']} of "
          f"{adaptive['replication_budget']} budgeted replications "
          f"(early stop: {adaptive['early_stopped']})")

    # Kernel policy: one KernelPolicy(backend, wavefront, threads) picks
    # the tier — compiled > wavefront > per-ball — and no choice ever
    # changes a number (the tiers are bit-identical).  REPRO_BACKEND=auto
    # (default) uses the numba-jitted compiled tier exactly when numba is
    # installed (`pip install -e ".[compiled]"`); REPRO_BACKEND=numpy/
    # compiled — or forced_policy(backend=...) — pins a tier.
    from repro.core import HAVE_NUMBA, forced_policy

    with forced_policy(backend="numpy"):
        ref = simulate(bins, seed=2026)
    with forced_policy(backend="compiled"):  # jitted with numba, else interpreter
        comp = simulate(bins, seed=2026)
    assert (ref.counts == comp.counts).all(), "backends must be bit-identical"
    print(f"\nbackends agree bit-for-bit (numba available: {HAVE_NUMBA})")

    # Threads: the compiled tier's prange kernels parallelise over
    # replications only — each thread owns whole replication rows, so no
    # thread budget can change a number either.  REPRO_THREADS=auto
    # (default) resolves to min(cores, R) once a run clears the work-size
    # floor; an explicit N pins the budget (1 = the serial compile), and
    # pool/fabric workers stay at 1 thread unless the driver forces more,
    # so workers x threads never oversubscribes the machine.  The CLI
    # spelling is `repro run fig01 --engine ensemble --threads 4`.
    from repro.core import simulate_ensemble

    with forced_policy(backend="compiled", threads=1):
        serial_ens = simulate_ensemble(bins, repetitions=8, seed=2026)
    with forced_policy(backend="compiled", threads=4):  # prange under numba
        threaded = simulate_ensemble(bins, repetitions=8, seed=2026)
    assert (serial_ens.counts == threaded.counts).all(), (
        "thread budgets must be bit-identical"
    )
    print("1-thread and 4-thread compiled runs match bit-for-bit")

    # Distributed sweep fabric: the same run, broker-leased block by block
    # to a fleet of worker processes — and still bit-identical, because
    # block boundaries and child seeds depend only on (seed, repetitions,
    # block_size), never on which worker ran what (or died trying; parked
    # block results survive worker crashes and resume by content address).
    # The CLI spelling is `repro sweep fig02 --fabric 4 --store DIR`.
    from repro.runtime import FabricSession

    serial = run_experiment("fig02", seed=2026, engine="ensemble",
                            repetitions=64)
    with FabricSession(workers=2) as fabric:
        with fabric.activate():
            fabbed = run_experiment("fig02", seed=2026, engine="ensemble",
                                    repetitions=64)
    assert all(
        serial.series[k].tobytes() == fabbed.series[k].tobytes()
        for k in serial.series
    ), "fabric must be bit-identical to serial"
    print("2-worker fabric run matches the serial run bit-for-bit")

    # Live allocation service: an open-loop trace (Zipf popularity,
    # diurnal arrival rate) replayed against the d-choice allocator with
    # bounded-staleness load views (decisions see counts frozen every
    # `refresh_every` requests — the rounds-module regime, live) and churn
    # interleaved by arrival time.  Same seed + trace + churn schedule =>
    # bit-identical placement digest, every run, any pace.  The CLI
    # spellings are `repro replay --requests 10000 --churn-events 4` and
    # `repro serve --port 7421` (line-delimited JSON: alloc/stats/churn/
    # ping).
    from repro.service import (
        AllocationService,
        TraceSpec,
        generate_churn_schedule,
        generate_trace,
    )

    trace = generate_trace(TraceSpec(
        requests=3000, users=10_000, objects=2_000, rate=1_000.0, seed=2026,
    ))
    schedule = generate_churn_schedule(4, trace.duration, seed=2026)

    def replay(d):
        svc = AllocationService([f"peer-{i}" for i in range(12)], d=d,
                                refresh_every=64, seed=2026)
        return svc.replay(trace, schedule)

    one, two, again = replay(1), replay(2), replay(2)
    assert again.placement_digest == two.placement_digest, (
        "service replay must be deterministic"
    )
    assert two.max_load < one.max_load, "d=2 must beat plain hashing"
    print(f"service replay: d=1 max load {one.max_load} -> d=2 "
          f"{two.max_load} ({two.joins} joins/{two.leaves} leaves "
          f"mid-trace), digest reproducible")

    # Crash safety: with a write-ahead log attached, every placement and
    # churn decision is CRC-framed into the log before the state mutates
    # (the server fsyncs once per batch before replying; in process,
    # `flush_wal()` commits), so a service killed mid-trace recovers by
    # replaying the log
    # — the recovered instance resumes the *same* RNG streams and digest
    # chain, and finishing the trace lands bit-identical to a run that
    # never died.  The CLI spellings are `repro serve --wal svc.wal`
    # (recovers automatically from a populated log) and
    # `repro recover svc.wal` (offline inspection).
    from repro.service import WriteAheadLog

    keys = list(trace.keys())

    def alloc_all(svc, keys):
        for key in keys:
            svc.allocate(key)

    uninterrupted = AllocationService(
        [f"peer-{i}" for i in range(12)], d=2, refresh_every=64, seed=2026)
    alloc_all(uninterrupted, keys)

    with tempfile.TemporaryDirectory() as tmp:
        wal_path = f"{tmp}/svc.wal"
        doomed = AllocationService(
            [f"peer-{i}" for i in range(12)], d=2, refresh_every=64,
            seed=2026, wal=WriteAheadLog(wal_path))
        alloc_all(doomed, keys[:1500])
        doomed.close_wal()  # the "crash": abandon the instance mid-trace

        survivor = AllocationService.recover(wal_path)
        alloc_all(survivor, keys[1500:])
        assert (survivor.placement_digest()
                == uninterrupted.placement_digest()), (
            "crashed-and-recovered must equal never-crashed, bit for bit"
        )
        print(f"WAL recovery: killed at 1500/{len(keys)} requests, "
              f"replayed {survivor.recovered_records} log records, "
              f"finished bit-identical to the uninterrupted run")


if __name__ == "__main__":
    main()
