"""End-to-end run-pipeline tests: RunRequest → store → resumable sweep.

These enforce the pipeline's two acceptance criteria:

* running the same request twice through a store does **zero simulation
  work** the second time and returns a bit-identical result;
* killing a sweep mid-run and re-running it resumes from block checkpoints
  and produces results bit-identical to an uninterrupted run at the same
  seed.
"""

import numpy as np
import pytest

import repro.experiments.fig02_05_small_heavy as fig02mod
from repro.cli import main
from repro.experiments import RunRequest, execute_request, run_experiment
from repro.experiments.base import get_experiment
from repro.io.store import ResultStore


def assert_bit_identical(a, b):
    assert a.x_values.tobytes() == b.x_values.tobytes()
    assert list(a.series) == list(b.series)
    for name in a.series:
        assert a.series[name].tobytes() == b.series[name].tobytes(), name


@pytest.fixture
def no_simulation(monkeypatch):
    """Arm after the first run: any further simulation work fails the test."""

    def arm():
        def boom(*args, **kwargs):
            raise AssertionError("simulation ran on what must be a cache hit")

        monkeypatch.setattr(fig02mod, "simulate_ensemble", boom)

    return arm


class TestCacheHitOrCompute:
    @pytest.mark.parametrize("engine", ["scalar", "ensemble"])
    def test_second_run_is_pure_lookup(self, tmp_path, no_simulation, engine):
        store = ResultStore(tmp_path)
        first = run_experiment(
            "fig02", seed=5, repetitions=6, engine=engine, store=store
        )
        no_simulation()
        second = run_experiment(
            "fig02", seed=5, repetitions=6, engine=engine, store=store
        )
        assert store.hits == 1
        assert_bit_identical(first, second)
        assert second.extra["wall_seconds"] == first.extra["wall_seconds"]
        assert second.parameters == first.parameters

    def test_different_request_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment("fig02", seed=5, repetitions=6, store=store)
        run_experiment("fig02", seed=6, repetitions=6, store=store)
        assert store.stats().entries == 2 and store.hits == 0

    def test_outcome_reports_key_and_status(self, tmp_path):
        store = ResultStore(tmp_path)
        request = RunRequest("fig02", seed=5, overrides={"repetitions": 6})
        miss = execute_request(request, store=store)
        hit = execute_request(request, store=store)
        assert not miss.cache_hit and hit.cache_hit
        assert miss.key == hit.key == request.cache_key(
            version=get_experiment("fig02").version
        )

    def test_store_true_uses_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
        run_experiment("fig02", seed=5, repetitions=6, store=True)
        assert ResultStore(tmp_path / "env").stats().entries == 1

    def test_request_and_kwargs_conflict_rejected(self):
        request = RunRequest("fig02", seed=5, overrides={"repetitions": 3})
        with pytest.raises(ValueError, match="not both"):
            run_experiment(request, seed=6)
        with pytest.raises(ValueError, match="not both"):
            run_experiment(request, workers=8)

    def test_run_all_rejects_unknown_engine(self):
        from repro.experiments import run_all

        with pytest.raises(ValueError, match="unknown engine"):
            run_all(engine="ensembel", only=["fig02"])


class TestCliStore:
    def test_run_store_hit_on_second_invocation(self, tmp_path, capsys, no_simulation):
        argv = ["run", "fig02", "--seed", "5", "--scale", "0.0003",
                "--no-plot", "--store", str(tmp_path)]
        assert main(argv) == 0
        assert "cache miss" in capsys.readouterr().out
        no_simulation()
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_sweep_grid_hits_on_rerun(self, tmp_path, capsys, no_simulation):
        argv = ["sweep", "fig02", "--seeds", "5,6", "--engines",
                "scalar,ensemble", "--repetitions", "4",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("miss") == 4 and "0 cache hit(s)" in out
        no_simulation()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("hit") >= 4 and "4 cache hit(s)" in out

    def test_sweep_out_keeps_one_artifact_per_cell(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["sweep", "fig02", "--seeds", "5,6", "--repetitions", "4",
                     "--store", str(tmp_path / "store"), "--out", str(out)]) == 0
        cells = sorted(p.name for p in out.iterdir())
        assert len(cells) == 2  # one <id>-<key> directory per grid cell
        for cell in cells:
            assert cell.startswith("fig02-")
            assert (out / cell / "fig02.csv").is_file()
            assert (out / cell / "fig02.json").is_file()

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(SystemExit, match="unknown engine"):
            main(["sweep", "fig02", "--engines", "warp"])

    def test_sweep_rejects_bad_scale(self):
        with pytest.raises(SystemExit, match="bad scale"):
            main(["sweep", "fig02", "--scales", "fast"])

    def test_sweep_fabric_matches_local_bit_identically(self, tmp_path):
        """`--fabric N` runs the grid over broker-leased workers; the stored
        entries must be byte-identical to a local sweep of the same grid
        (placement is not part of the cache key, and never changes a
        number)."""
        local_store = ResultStore(tmp_path / "local")
        fabric_store = ResultStore(tmp_path / "fabric")
        grid = ["sweep", "fig02", "--seeds", "5", "--engines", "ensemble",
                "--repetitions", "8", "--block-size", "2"]
        assert main(grid + ["--store", str(local_store.root)]) == 0
        assert main(grid + ["--store", str(fabric_store.root),
                            "--fabric", "2"]) == 0
        keys = local_store.keys()
        assert keys == fabric_store.keys() and len(keys) == 1
        a = local_store.get(keys[0]).result
        b = fabric_store.get(keys[0]).result
        for name in a.series:
            assert a.series[name].tobytes() == b.series[name].tobytes()
        # the fabric scratch namespace never outlives the sweep
        assert not any((fabric_store.root / "fabric").rglob("block-*.pkl"))

    def test_sweep_rejects_nonpositive_fabric(self, tmp_path):
        with pytest.raises(SystemExit, match="fabric"):
            main(["sweep", "fig02", "--fabric", "0",
                  "--store", str(tmp_path)])


class TestSweepResume:
    def test_killed_sweep_resumes_bit_identically(self, tmp_path, monkeypatch, capsys):
        """The acceptance scenario: a sweep dies mid-ensemble-run; rerunning
        it resumes from the block checkpoints (not from scratch) and the
        final stored result equals an uninterrupted run bit-for-bit."""
        argv = ["sweep", "fig02", "--seeds", "7", "--engines", "ensemble",
                "--repetitions", "12", "--block-size", "2",
                "--store", str(tmp_path / "killed")]

        # Uninterrupted reference in a separate store.
        reference = run_experiment(
            "fig02", seed=7, repetitions=12, engine="ensemble", block_size=2,
            store=ResultStore(tmp_path / "reference"),
        )

        real = fig02mod.simulate_ensemble
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:  # 24 blocks total: die in the second sub-run
                raise RuntimeError("sweep killed")
            return real(*args, **kwargs)

        monkeypatch.setattr(fig02mod, "simulate_ensemble", dying)
        # The sweep survives the dying cell (reports it, exits nonzero)
        # instead of crashing with a traceback; its checkpoints remain.
        assert main(argv) == 1
        out = capsys.readouterr()
        assert "error" in out.out
        assert "sweep killed" in out.err

        store = ResultStore(tmp_path / "killed")
        request = RunRequest(
            "fig02", seed=7, engine="ensemble", block_size=2,
            overrides={"repetitions": 12},
        )
        key = request.cache_key(version=get_experiment("fig02").version)
        assert store.has_checkpoints(key)

        # Rerun: must resume (recompute only the unfinished blocks).
        counting = {"n": 0}

        def counted(*args, **kwargs):
            counting["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fig02mod, "simulate_ensemble", counted)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert counting["n"] == 24 - 7  # checkpointed blocks were skipped

        resumed = store.get(key).result
        assert_bit_identical(resumed, reference)
        assert not store.has_checkpoints(key)  # cleared after completion

        # And a third invocation is a pure cache hit.
        monkeypatch.setattr(fig02mod, "simulate_ensemble", real)
        assert main(argv) == 0
        assert "hit" in capsys.readouterr().out


class TestSweepFailureExit:
    def test_failed_cell_reports_error_and_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        """Regression: a raising grid cell must not hide behind a zero exit
        — the sweep finishes the other cells, marks the bad one ``error``
        in the table, and returns 1."""

        def boom(*args, **kwargs):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(fig02mod, "simulate_ensemble", boom)
        code = main(["sweep", "fig01,fig02", "--seeds", "5",
                     "--repetitions", "4", "--store", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr()
        rows = [line for line in out.out.splitlines() if "fig" in line]
        assert any("fig01" in r and "miss" in r for r in rows)
        assert any("fig02" in r and "error" in r for r in rows)
        assert "cell exploded" in out.err and "FAILED" in out.err
        # The healthy cell still landed in the store.
        store = ResultStore(tmp_path)
        assert store.stats().entries == 1

    def test_all_green_sweep_still_exits_zero(self, tmp_path, capsys):
        assert main(["sweep", "fig02", "--seeds", "5", "--repetitions", "4",
                     "--store", str(tmp_path)]) == 0


PRECISION = "rel=0.05,conf=0.9,min_blocks=4"


def adaptive_request(seed=9, budget=256):
    return RunRequest(
        "fig02", seed=seed, engine="ensemble",
        overrides={"repetitions": budget},
        precision={"rel": 0.05, "conf": 0.9, "min_blocks": 4},
    )


class TestAdaptivePipeline:
    def test_adaptive_run_stops_early_and_round_trips_store(
        self, tmp_path, no_simulation
    ):
        store = ResultStore(tmp_path)
        request = adaptive_request()
        first = execute_request(request, store=store).result
        info = first.extra["adaptive"]
        assert info["early_stopped"]
        assert info["replications_used"] < info["replication_budget"]
        # Second run: pure lookup, adaptive provenance included.
        no_simulation()
        outcome = execute_request(request, store=store)
        assert outcome.cache_hit
        assert_bit_identical(first, outcome.result)
        back = outcome.result.extra["adaptive"]
        assert back["replications_used"] == info["replications_used"]
        assert back["runs"].keys() == info["runs"].keys()
        assert not store.has_checkpoints(outcome.key)

    def test_killed_adaptive_run_resumes_to_same_stop(self, tmp_path, monkeypatch):
        """The adaptive acceptance scenario: kill an early-stopping run
        mid-stream; the rerun resumes from the checkpointed (reducer,
        monitor) state, stops at the same block, and the stored result is
        bit-identical to an uninterrupted adaptive run."""
        request = adaptive_request()
        reference = execute_request(
            request, store=ResultStore(tmp_path / "ref")
        ).result

        real = fig02mod.simulate_ensemble
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("adaptive run killed")
            return real(*args, **kwargs)

        store = ResultStore(tmp_path / "killed")
        monkeypatch.setattr(fig02mod, "simulate_ensemble", dying)
        with pytest.raises(RuntimeError, match="adaptive run killed"):
            execute_request(request, store=store)
        key = request.cache_key(version=get_experiment("fig02").version)
        assert store.has_checkpoints(key)

        monkeypatch.setattr(fig02mod, "simulate_ensemble", real)
        resumed = execute_request(request, store=store)
        assert not resumed.cache_hit and resumed.resumed
        assert_bit_identical(resumed.result, reference)
        assert (resumed.result.extra["adaptive"]["replications_used"]
                == reference.extra["adaptive"]["replications_used"])

    def test_cli_run_reports_early_stop(self, tmp_path, capsys):
        assert main(["run", "fig02", "--seed", "9", "--engine", "ensemble",
                     "--scale", "0.05", "--precision", PRECISION,
                     "--no-plot", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "early-stopped at R=" in out

    def test_cli_sweep_shows_stopped_column(self, tmp_path, capsys):
        assert main(["sweep", "fig02", "--seeds", "9", "--engines", "ensemble",
                     "--repetitions", "256", "--precision", PRECISION,
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stopped" in out and "early@R=" in out

    def test_cli_rejects_bad_precision(self):
        with pytest.raises(SystemExit, match="bad --precision"):
            main(["run", "fig02", "--precision", "frobnicate=1"])

    def test_cli_rejects_precision_on_scalar_engine(self, tmp_path):
        with pytest.raises(SystemExit, match="ensemble"):
            main(["run", "fig02", "--seed", "9", "--precision", PRECISION,
                  "--no-plot", "--store", str(tmp_path)])

    def test_precision_on_non_adaptive_experiment_rejected(self):
        from repro.experiments.base import PrecisionNotSupportedError

        request = RunRequest(
            "fig06", seed=1, engine="ensemble",
            precision={"rel": 0.05},
        )
        with pytest.raises(PrecisionNotSupportedError, match="fig06"):
            execute_request(request)

    @pytest.mark.parametrize("overrides", [{"repetitions": 4}])
    def test_run_experiment_kwarg_precision(self, tmp_path, overrides):
        from repro.analysis.precision import PrecisionTarget

        result = run_experiment(
            "fig02", seed=9, engine="ensemble", store=ResultStore(tmp_path),
            precision=PrecisionTarget(rel=0.5, min_blocks=2), **overrides,
        )
        assert "adaptive" in result.extra
