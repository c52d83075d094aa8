"""The native tier: build, fallback, guards and bit-identity.

The C kernels (``repro/native.c``) must reproduce the Python and NumPy
paths bit for bit, and every way the build can fail must land on those
paths with the same numbers.  Tests that need the library skip where it
does not load; the fallback tests run everywhere.
"""

import ast
import hashlib
import importlib.resources
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.bins import BinArray
from repro.core.ensemble import simulate_ensemble
from repro.core.equivalence import (
    EXPERIMENT_CASES,
    SweepBudget,
    check_dispatch_identity,
    check_driver_dispatch_identity,
    check_native_equivalence,
    check_window_equivalence,
    forced_native,
)
from repro.core.policy import dispatch, forced_tier
from repro.core.rounds import stale_choice, stale_windows
from repro.experiments import run_experiment
from repro.sampling.alias import AliasSampler, _vose
from repro.service.traces import TraceSpec, _zipf_weights, generate_trace

REPO = Path(__file__).resolve().parents[2]

needs_native = pytest.mark.skipif(
    not native.available(), reason=f"native tier unavailable: {native.status()}"
)

#: The three experiments of the `figures` benchmark, at their pinned tiny
#: cross-engine configurations.
FIGURE_IDS = ("fig04", "fig11", "abl_d")


def _digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.x_values).tobytes())
    for name in sorted(result.series):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result.series[name]).tobytes())
    return h.hexdigest()


def _figure_digests():
    return {
        eid: _digest(run_experiment(eid, seed=EXPERIMENT_CASES[eid].seed,
                                    engine="ensemble", **EXPERIMENT_CASES[eid].kwargs))
        for eid in FIGURE_IDS
    }


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """Forget this process's library, with an empty build cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "ENABLED", True)
    return tmp_path / "cache" / "repro-native"


def _fake_compiler(tmp_path, body: str) -> str:
    """A shell script that answers ``--version`` and runs *body* otherwise
    (with ``$out`` the ``-o`` target); each build appends to ``builds``."""
    script = tmp_path / "fakecc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = --version ]; then echo "fakecc 1.0"; exit 0; fi\n'
        f'echo build >> "{tmp_path}/builds"\n'
        'out=""\n'
        'while [ $# -gt 0 ]; do [ "$1" = -o ] && out="$2"; shift; done\n'
        f"{body}\n"
    )
    script.chmod(0o755)
    return str(script)


def _load_in_subprocess(cache, wait=True):
    """Load the library in a child process with *cache* as
    ``XDG_CACHE_HOME``: ``[status, path, sha256 of the file]``, or the
    running process when not *wait*."""
    code = (
        "import hashlib, json; from repro import native; "
        "lib = native.library(); "
        "print(json.dumps([native.status(), lib._name, "
        "hashlib.sha256(open(lib._name, 'rb').read()).hexdigest()]))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"),
           "XDG_CACHE_HOME": str(cache)}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)
    if not wait:
        return proc
    out = proc.communicate(timeout=300)[0]
    assert proc.returncode == 0
    return json.loads(out)


class TestPackaging:
    def test_source_is_found_through_the_package(self):
        source = importlib.resources.files("repro").joinpath("native.c")
        assert source.is_file()
        assert Path(str(source)) == native.SOURCE

    def test_setup_ships_the_source(self):
        tree = ast.parse((REPO / "setup.py").read_text())
        data = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
                for kw in node.keywords if kw.arg == "package_data"]
        assert data and "native.c" in ast.literal_eval(data[0])["repro"]

    def test_not_loaded_at_import(self):
        code = ("import repro, repro.experiments, repro.service; "
                "from repro import native; print(native._loaded is None)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=REPO,
                             env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert out.stdout.strip() == "True"


class TestFallback:
    """Every way the build can fail leaves today's tiers running, with
    identical numbers."""

    @pytest.mark.parametrize("compiler", ["missing", "false", "failing"])
    def test_no_compiler_lands_on_numpy_tiers(self, compiler, fresh_load,
                                              monkeypatch, tmp_path):
        with forced_native(True):
            expected = _figure_digests()
        cc = {"missing": None, "false": shutil.which("false"),
              "failing": _fake_compiler(tmp_path, "exit 1")}[compiler]
        if compiler == "false" and cc is None:
            pytest.skip("no `false` on this system")
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "_compiler", lambda: cc)
        calls = []
        monkeypatch.setattr(native, "run_rows", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(native.FusedChunks, "run", lambda *a: calls.append(a))
        assert not native.available() and not native.draws_available()
        assert native.status() != "on"
        assert _figure_digests() == expected
        assert calls == []

    def test_truncated_cache_is_rebuilt(self, tmp_path):
        """Each load runs in its own process: a library mapped here must
        never be truncated under this process's feet."""
        if native._compiler() is None:
            pytest.skip("no C compiler")
        first = _load_in_subprocess(tmp_path)
        path = Path(first[1])
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(64)
        second = _load_in_subprocess(tmp_path)
        assert first == second and second[0] == "on"
        assert path.stat().st_size == size

    def test_unloadable_build_falls_back_after_one_rebuild(
            self, fresh_load, monkeypatch, tmp_path):
        cc = _fake_compiler(tmp_path, 'echo junk > "$out"')
        monkeypatch.setattr(native, "_compiler", lambda: cc)
        assert native.library() is None
        assert native.status().startswith("build or load failed")
        assert (tmp_path / "builds").read_text().count("build") == 2

    def test_concurrent_builds_share_one_library(self, tmp_path):
        if native._compiler() is None:
            pytest.skip("no C compiler")
        procs = [_load_in_subprocess(tmp_path, wait=False) for _ in range(2)]
        outs = [json.loads(p.communicate(timeout=300)[0]) for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert outs[0] == outs[1] and outs[0][0] == "on"
        files = sorted(os.listdir(tmp_path / "repro-native"))
        assert len(files) == 1 and files[0].endswith(".so")

    def test_threads_share_one_first_load(self, fresh_load):
        if native._compiler() is None:
            pytest.skip("no C compiler")
        libs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: libs.append(native.library()))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(libs) == 8 and all(lib is libs[0] for lib in libs)
        assert native.status() == "on"
        assert [p.suffix for p in fresh_load.iterdir()] == [".so"]

    @pytest.mark.parametrize("problem", ["writable by others", "not a directory"])
    def test_unusable_cache_dir_falls_back_to_a_private_one(self, problem,
                                                           fresh_load):
        if problem == "not a directory":
            fresh_load.parent.mkdir(parents=True)
            fresh_load.write_text("")
        else:
            fresh_load.mkdir(parents=True)
            fresh_load.chmod(0o777)
        chosen = native.cache_dir()
        assert Path(chosen) != fresh_load
        assert os.stat(chosen).st_mode & 0o077 == 0


class TestGuard:
    def test_fits_boundary(self):
        m = 1000
        top = (native.LOAD_LIMIT - 1) // (m + 1)
        assert native.fits(m, top) and not native.fits(m, top + 1)
        assert native.fits(10, native.EXACT_LIMIT)
        assert not native.fits(10, native.EXACT_LIMIT, heights=True)
        assert native.fits(10, native.EXACT_LIMIT - 1, heights=True)

    @needs_native
    @pytest.mark.parametrize("heights", [False, True])
    def test_driver_refuses_a_run_past_the_guard(self, heights, monkeypatch):
        cap = native.EXACT_LIMIT if heights else native.LOAD_LIMIT // 4
        bins = BinArray([cap, cap - 1, 3])
        kwargs = dict(repetitions=2, m=5, d=2, seed=3, track_heights=heights)
        with forced_native(False):
            expected = simulate_ensemble(bins, **kwargs)
        calls = []
        monkeypatch.setattr(native, "run_rows", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(native.FusedChunks, "run", lambda *a: calls.append(a))
        res = simulate_ensemble(bins, **kwargs)
        assert calls == []
        np.testing.assert_array_equal(res.counts, expected.counts)
        if heights:
            np.testing.assert_array_equal(res.heights, expected.heights)


    def test_window_guard_falls_back_near_2_62(self, monkeypatch):
        """The service placer runs the C window kernel only while
        ``(max live load + W + 1) * max capacity < 2^62``; at the bound it
        runs the Python twin, in exact integers, with the same winners."""
        from repro.p2p.ring import ConsistentHashRing
        from repro.service.views import DChoicePlacer, StaleLoadView

        ring = ConsistentHashRing.random(6, seed=4)
        placer = DChoicePlacer(ring, d=3, resolution=1000)
        ids = [p.peer_id for p in ring.peers]
        caps = placer.capacities
        top = max(caps.values())
        rng = np.random.default_rng(9)
        W, every = 40, 16
        owners = rng.integers(0, len(ids), size=(W, 3))
        tie_u = rng.random(W)
        calls = []
        real = native.WindowKernel.__call__
        monkeypatch.setattr(native.WindowKernel, "__call__",
                            lambda *a: calls.append(a) or real(*a))
        for over in (0, 1):
            peak = (native.LOAD_LIMIT - 1) // top - W - 1 + over
            assert native.fits(peak + W, top) == (not over)
            loads = {pid: peak - 3 * i for i, pid in enumerate(ids)}
            view = StaleLoadView(lambda: loads, refresh_every=every)
            view.advance(5)  # a partial first window
            expected = stale_windows(
                owners.tolist(), tie_u.tolist(), [loads[p] for p in ids],
                [loads[p] for p in ids], [caps[p] for p in ids], every - 5, every)
            got = placer.decide_chunk(owners, tie_u, view, loads)
            assert got == [ids[b] for b in expected]
            assert len(calls) == (0 if placer._windows is None else 1)


@needs_native
class TestWindowKernel:
    """``native.WindowKernel``: every staleness window of one service
    hash chunk, against a Python ``stale_choice`` loop."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_a_stale_choice_window_loop(self, d):
        rng = np.random.default_rng(100 + d)
        n, every, first = 5, 7, 3
        caps = np.array([2, 2, 2, 4, 1], dtype=np.int64)  # equal capacities
        kernel = native.WindowKernel(caps, d)  # buffers reused across chunks
        for trial in range(60):
            # Ends mid-window: first + 2 full windows + part of a third.
            W = first + 2 * every + int(rng.integers(1, every))
            owners = rng.integers(0, n, size=(W, d))
            if d > 1:  # duplicate candidates
                owners[::2, -1] = owners[::2, 0]
            tie_u = rng.random(W)
            # From trial 30 on: equal (load + 1) / capacity everywhere.
            frozen = (caps * 2 - 1 if trial >= 30
                      else rng.integers(0, 6, size=n).astype(np.int64))
            live = frozen + rng.integers(0, 4, size=n)
            cap_list, ref_frozen, ref_live = caps.tolist(), frozen.tolist(), live.tolist()
            expected = []
            for j, (row, u) in enumerate(zip(owners.tolist(), tie_u.tolist())):
                chosen = stale_choice(row, ref_frozen, cap_list, u)
                expected.append(chosen)
                ref_live[chosen] += 1
                if j + 1 >= first and (j + 1 - first) % every == 0:
                    ref_frozen = list(ref_live)
            got = kernel(owners, tie_u, frozen, live, first, every)
            assert got.tolist() == expected
            assert kernel.loads.tolist() == [ref_frozen, ref_live]

    def test_randomised_sweep(self):
        budget = SweepBudget(draws=1500, max_n=12)
        assert check_window_equivalence(0x3D0E, budget) == 1500

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("at", [(0, 0), (9, 1), (17, 2)])
    def test_bad_owner_index_raises(self, bad, at):
        owners = np.zeros((20, 3), dtype=np.int64)
        owners[at] = bad
        with pytest.raises(IndexError):
            native.WindowKernel(np.ones(4, dtype=np.int64), 3)(
                owners, np.zeros(20), [0] * 4, [0] * 4, 4, 8)

    def test_wrong_layout_is_refused(self):
        owners = np.zeros((6, 2), dtype=np.int64)
        loads = [0] * 4
        caps = np.ones(4, dtype=np.int64)
        kernel = native.WindowKernel(caps, 2)
        for first, every in ((0, 4), (5, 4)):
            with pytest.raises(ValueError, match="first"):
                kernel(owners, np.zeros(6), loads, loads, first, every)
        with pytest.raises(ValueError, match="caps"):
            native.WindowKernel(caps.astype(np.int32), 2)
        with pytest.raises(ValueError, match="tie_u"):
            kernel(owners, np.zeros(5), loads, loads, 1, 4)
        with pytest.raises(ValueError):
            kernel(np.zeros((6, 3), dtype=np.int64), np.zeros(6), loads, loads, 1, 4)


@needs_native
class TestKernelChecks:
    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_out_of_range_candidate_raises(self, bad, d):
        choices = np.zeros((2, 5, d), dtype=np.int64)
        choices[1, 3, d - 1] = bad
        with pytest.raises(IndexError):
            native.run_rows(np.zeros((2, 4), dtype=np.int64),
                            np.ones(4, dtype=np.int64), choices,
                            np.zeros((2, 5)), "max_capacity")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fused_bad_alias_entry_raises(self, d):
        """A column whose alias points past the bins is refused by the
        fused kernel's placement, as ``run_rows`` refuses a bad candidate."""
        counts = np.zeros((2, 3), dtype=np.int64)
        fused = native.fused_chunks(
            [np.random.default_rng(1)], np.zeros(3), np.array([0, 1, 5]),
            counts, np.ones(3, dtype=np.int64), d, "max_capacity", k_max=40)
        with pytest.raises(IndexError):
            fused.run(0, 40)

    def test_wrong_layout_is_refused(self):
        counts = np.zeros((2, 4), dtype=np.int64)
        choices = np.zeros((2, 5, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            native.run_rows(counts, np.ones(4, dtype=np.int32), choices,
                            np.zeros((2, 5)), "max_capacity")
        with pytest.raises(ValueError):
            native.run_rows(counts, np.ones(4, dtype=np.int64),
                            choices[:, ::2], np.zeros((2, 3)), "max_capacity")
        with pytest.raises(ValueError):
            native.run_rows(counts, np.ones(4, dtype=np.int64), choices,
                            np.zeros((2, 5)), "nope")


def _pcg64_state(gen):
    """The generator state the fused draws must leave: the LCG state and
    increment, and the buffered half word when one is held."""
    state = gen.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def _fused_calls(monkeypatch):
    """Record every ``FusedChunks.run`` call as ``(col, k)``."""
    calls = []
    real = native.FusedChunks.run

    def spy(self, col, k):
        calls.append((col, k))
        return real(self, col, k)

    monkeypatch.setattr(native.FusedChunks, "run", spy)
    return calls


@needs_native
class TestFusedDraws:
    """``fused_rows`` makes NumPy's draws itself: the same values, in the
    same order, leaving the generator where NumPy would, so a fused run
    equals the NumPy-drawn run (``sampler.sample`` + ``run_rows``)
    bit for bit and the stream carries on identically after it."""

    def test_probe_passes_here(self):
        """Runs fall back safely when the probe fails, but silently slower:
        a NumPy whose draws changed must fail here, so ``native.c`` gets
        updated."""
        assert native.draws_available() and native.status() == "on"

    @pytest.mark.parametrize("n", [2, 3, 7, 1000, 2**31 - 1, 2**32 - 1])
    def test_draws_equal_numpy(self, n):
        ours, numpy = np.random.default_rng(n), np.random.default_rng(n)
        for nints, ndoubles, nties in ((3, 3, 1), (7, 21, 7), (1, 0, 0),
                                       (0, 5, 2), (9, 9, 3)):
            got = native._pcg64_draws(native.library(), ours, n, nints,
                                      ndoubles, nties)
            want = (numpy.integers(0, n, size=nints, dtype=np.int64),
                    numpy.random(ndoubles), numpy.random(nties))
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert _pcg64_state(ours) == _pcg64_state(numpy)

    @pytest.mark.parametrize("seed_mode", ["blocked", "spawn"])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 7, 1000])
    def test_run_leaves_numpy_state(self, seed_mode, d, n, monkeypatch):
        """R = 3 rows, chunks of 7 balls cut at the snapshots: most chunks
        draw an odd number of 32-bit words, so a buffered half word is left
        after one chunk and must carry into the next, and out of the run."""
        bins = BinArray(np.random.default_rng(n).integers(1, 6, size=n))
        m = 7 * 4 + 3

        def run():
            gens = [np.random.default_rng(100 + r) for r in range(3)]
            seeding = ({"seed": gens[0], "repetitions": 3}
                       if seed_mode == "blocked" else {"seeds": gens})
            res = simulate_ensemble(
                bins, m=m, d=d, seed_mode=seed_mode, chunk_size=7,
                track_heights=True, keep_choices=True,
                snapshot_at=[0, 10, 21, m], **seeding)
            return res, [_pcg64_state(g) for g in gens]

        calls = _fused_calls(monkeypatch)
        fused, fused_states = run()
        assert calls == [(0, 7), (7, 3), (10, 7), (17, 4), (21, 7), (28, 3)]
        monkeypatch.setattr(native, "fused_chunks", lambda *a, **k: None)
        numpy, numpy_states = run()
        assert fused_states == numpy_states
        assert any(s[2] for s in numpy_states)  # a half word left buffered
        assert fused.counts.tobytes() == numpy.counts.tobytes()
        assert fused.heights.tobytes() == numpy.heights.tobytes()
        assert fused.choices.tobytes() == numpy.choices.tobytes()
        assert [s.max_loads.tobytes() for s in fused.snapshots] == \
            [s.max_loads.tobytes() for s in numpy.snapshots]

    @pytest.mark.parametrize("seed_mode", ["blocked", "spawn"])
    def test_mt19937_falls_back(self, seed_mode, monkeypatch):
        """A generator that is not PCG64 keeps NumPy's draws."""
        bins = BinArray([1, 2, 3, 4, 5])

        def run():
            gens = [np.random.Generator(np.random.MT19937(7 + r)) for r in range(3)]
            seeding = ({"seed": gens[0], "repetitions": 3}
                       if seed_mode == "blocked" else {"seeds": gens})
            return simulate_ensemble(bins, m=101, d=3, seed_mode=seed_mode,
                                     chunk_size=30, **seeding)

        calls = _fused_calls(monkeypatch)
        got = run()
        assert calls == []
        with forced_native(False):
            assert got.counts.tobytes() == run().counts.tobytes()

    def test_one_bin_keeps_numpy_draws(self, monkeypatch):
        """NumPy draws nothing for a one-value range, so n = 1 is not
        fused."""
        calls = _fused_calls(monkeypatch)
        res = simulate_ensemble(BinArray([3]), repetitions=2, m=5, seed=1)
        assert calls == [] and res.counts.tolist() == [[5], [5]]

    def test_holds_the_generator_lock(self, monkeypatch):
        """ctypes drops the GIL, so the call runs under the generator's
        lock: no other thread draws between the state read and write."""
        gen = np.random.default_rng(3)
        counts = np.zeros((2, 4), dtype=np.int64)
        sampler = AliasSampler([1, 2, 3, 4])
        fused = native.fused_chunks([gen], sampler._prob, sampler._alias, counts,
                                    np.arange(1, 5), 2, "max_capacity", k_max=10)
        real, held = fused._fn, []

        def try_lock():
            lock = gen.bit_generator.lock  # an RLock: ask from another thread
            if lock.acquire(blocking=False):
                lock.release()
                held.append(False)
            else:
                held.append(True)

        def spy(*args):
            thread = threading.Thread(target=try_lock)
            thread.start()
            thread.join()
            return real(*args)

        fused._fn = spy
        fused.run(0, 10)
        assert held == [True] and counts.sum() == 20

    def test_failing_probe_falls_back(self, fresh_load, monkeypatch):
        """A probe that finds the C draws differ from NumPy's keeps every
        run on NumPy's draws, with the same numbers; status() says why."""
        expected = _figure_digests()
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "_probe", lambda lib: "probe: test mismatch")
        calls = _fused_calls(monkeypatch)
        assert native.available() and not native.draws_available()
        assert native.status() == "on; NumPy draws: probe: test mismatch"
        assert _figure_digests() == expected
        assert calls == []

    @pytest.mark.parametrize("fault", ["values", "state"])
    def test_probe_reports_a_mismatch(self, fault, monkeypatch):
        """The real probe, against C draws that are off by one value or
        leave the generator one step off."""
        real = native._pcg64_draws

        def faulty(lib, gen, *args):
            ints, doubles, ties = real(lib, gen, *args)
            if fault == "values":
                return ints + 1, doubles, ties
            gen.bit_generator.advance(1)
            return ints, doubles, ties

        monkeypatch.setattr(native, "_pcg64_draws", faulty)
        assert native._probe(native.library()) == {
            "values": "probe: draws differ from NumPy's (range 2)",
            "state": "probe: state differs from NumPy's (range 2)",
        }[fault]


@needs_native
class TestVoseTables:
    """The C build of the alias tables is byte-identical to the Python
    one, so trace generation (and the service determinism contract) does
    not depend on whether the library loads."""

    @staticmethod
    def _same(weights):
        w = np.asarray(weights, dtype=np.float64)
        scaled = (w / w.sum()) * w.size
        p1, a1 = _vose(scaled)
        p2, a2 = native.vose(scaled)
        assert p1.tobytes() == p2.tobytes() and a1.tobytes() == a2.tobytes()

    def test_random_weights(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(1, 2000))
            w = rng.random(n) ** float(rng.uniform(0.2, 8.0))
            if w.sum() > 0:
                self._same(w)

    @pytest.mark.parametrize("weights", [
        [1.0], [0.0, 0.0, 5.0], [3.0, 0.0], [1.0] * 64, [1e-300, 1.0, 1e300],
        [0.0] * 99 + [1.0],
    ])
    def test_degenerate_weights(self, weights):
        self._same(weights)

    @pytest.mark.parametrize("s", [None, 0.6, 1.1, 2.5])
    def test_trace_zipf_weights(self, s):
        rng = np.random.default_rng(7)
        for count in (1, 10, 5000):
            self._same(_zipf_weights(count, s, rng))

    def test_trace_digest(self):
        spec = TraceSpec(requests=2000, objects=500, seed=11)
        with forced_native(False):
            expected = generate_trace(spec).digest()
        assert generate_trace(spec).digest() == expected

    def test_sampler_tables(self):
        w = np.random.default_rng(3).random(300)
        with forced_native(False):
            slow = AliasSampler(w)
        fast = AliasSampler(w)
        assert slow._prob.tobytes() == fast._prob.tobytes()
        assert slow._alias.tobytes() == fast._alias.tobytes()


class TestDispatch:
    def test_auto_resolves_to_native(self):
        tier = dispatch(100.0, 5, 2, native_fits=True)
        assert tier == ("native" if native.available() else tier)
        assert dispatch(100.0, 5, 2) != "native"

    @needs_native
    @pytest.mark.parametrize("driver", ["plain", "ring"])
    def test_drivers_call_the_native_kernel(self, driver, monkeypatch):
        from repro.p2p.ring import ConsistentHashRing
        from repro.p2p.workload import allocate_requests_ensemble

        calls = []
        real_rows, real_fused = native.run_rows, native.FusedChunks.run

        def spy_rows(*args, **kwargs):
            calls.append(args[2].shape)
            return real_rows(*args, **kwargs)

        def spy_fused(self, col, k):
            calls.append((col, k))
            return real_fused(self, col, k)

        monkeypatch.setattr(native, "run_rows", spy_rows)
        monkeypatch.setattr(native.FusedChunks, "run", spy_fused)
        with forced_tier("native"):
            if driver == "plain":
                simulate_ensemble(BinArray([1, 2, 3, 4]), repetitions=3, m=90,
                                  seed=1, chunk_size=40)
                assert calls == ([(0, 40), (40, 40), (80, 10)]
                                 if native.draws_available()
                                 else [(3, 40, 2), (3, 40, 2), (3, 10, 2)])
            else:
                ring = ConsistentHashRing.random(12, seed=2)
                allocate_requests_ensemble(ring, 50, repetitions=4, seed=1)
                assert calls == [(4, 50, 2)]


class TestIdentity:
    @needs_native
    def test_native_equals_reference(self):
        budget = SweepBudget(draws=60, max_n=12, max_m=150, max_r=5)
        assert check_native_equivalence(0x7A7E, budget, trials=4) == 60

    def test_driver_sweep(self):
        """Unforced runs take the native tier wherever it loads; forced
        lockstep must reproduce them."""
        assert check_driver_dispatch_identity(("lockstep",), 0x7A7E, trials=8) == 8

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_CASES))
    def test_experiment_native_equals_numpy_tiers(self, experiment_id,
                                                  unforced_runs):
        """The native tier forced against the unforced run, which the
        compiled, wavefront, rows and lockstep classes force too, so native
        equals every NumPy tier by transitivity."""
        assert check_dispatch_identity(
            experiment_id, ("native",), unforced=unforced_runs
        ) == 2
