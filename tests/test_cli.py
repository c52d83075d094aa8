"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_bin_spec


class TestParseBinSpec:
    def test_single_class(self):
        bins = parse_bin_spec("1x10")
        assert bins.n == 10
        assert bins.is_uniform()

    def test_two_classes(self):
        bins = parse_bin_spec("1x500,10x500")
        assert bins.n == 1000
        assert bins.total_capacity == 5500

    def test_repeated_class_accumulates(self):
        bins = parse_bin_spec("2x3,2x4")
        assert bins.size_class_counts() == {2: 7}

    def test_whitespace_tolerated(self):
        assert parse_bin_spec(" 1x2 , 3x1 ").n == 3

    def test_bad_item_exits(self):
        with pytest.raises(SystemExit, match="bad bin spec"):
            parse_bin_spec("1-10")

    def test_empty_exits(self):
        with pytest.raises(SystemExit, match="empty"):
            parse_bin_spec(",")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig18" in out

    def test_describe(self, capsys):
        assert main(["describe", "1x50,10x50"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3: applies" in out
        assert "C = 550" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "1x20,4x20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max load" in out
        assert "capacity 4" in out

    def test_simulate_custom_balls(self, capsys):
        assert main(["simulate", "1x10", "--balls", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "m = 5 balls" in out

    def test_run_with_plot(self, capsys):
        code = main([
            "run", "fig02", "--scale", "0.0003", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_run_no_plot_saves(self, tmp_path, capsys):
        code = main([
            "run", "fig02", "--scale", "0.0003", "--seed", "5",
            "--no-plot", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "fig02.csv").exists()
        out = capsys.readouterr().out
        assert "saved fig02.csv" in out

    def test_run_ensemble_engine(self, capsys):
        code = main([
            "run", "fig02", "--scale", "0.0003", "--seed", "5",
            "--engine", "ensemble", "--no-plot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig02" in out

    def test_run_ensemble_engine_fully_migrated(self, capsys):
        """The engine matrix is full: formerly scalar-only figures now run
        under --engine ensemble instead of raising."""
        code = main([
            "run", "fig06", "--scale", "0.0003", "--seed", "5",
            "--engine", "ensemble", "--no-plot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig06" in out

    def test_tune(self, capsys):
        code = main([
            "tune", "1x20,3x20", "--reps", "10", "--seed", "2",
            "--t-min", "0.5", "--t-max", "2.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best exponent" in out
        assert "proportional" in out

    def test_report(self, tmp_path, capsys):
        code = main([
            "report", "--only", "fig02", "--scale", "0.0003",
            "--seed", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        report = (tmp_path / "REPORT.md").read_text()
        assert "### fig02" in report
        assert (tmp_path / "fig02.csv").exists()

    def test_verify(self, capsys):
        code = main(["verify", "--n", "400", "--seed", "9"])
        out = capsys.readouterr().out
        assert "claim" in out
        assert code == 0
        assert "checks passed" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReplayCommand:
    ARGS = [
        "replay", "--requests", "500", "--peers", "6", "--rate", "500",
        "--objects", "200", "--users", "1000", "--seed", "5",
    ]

    def test_replay_prints_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "placement digest" in out
        assert "max/mean" in out
        assert "p99" in out

    def test_replay_json_is_deterministic(self, capsys):
        import json

        assert main([*self.ARGS, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main([*self.ARGS, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["placement_digest"] == second["placement_digest"]
        assert first["stats"]["load"]["per_peer"] == second["stats"]["load"]["per_peer"]
        assert first["requests"] == 500

    def test_replay_with_churn(self, capsys):
        assert main([*self.ARGS, "--churn-events", "3", "--json"]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["joins"] + report["leaves"] + report["skips"] == 3

    def test_replay_rejects_bad_peers(self):
        with pytest.raises(SystemExit, match="--peers"):
            main(["replay", "--peers", "0"])

    def test_replay_rejects_bad_spec(self):
        with pytest.raises(SystemExit, match="rate"):
            main(["replay", "--rate", "-1"])

    def test_serve_parser_accepts_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--peers", "4", "--refresh-every", "8"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.refresh_every == 8

    def test_serve_parser_accepts_wal_and_fault_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--wal", "/tmp/svc.wal",
            "--fault-plan", '{"kill_at": 10}',
        ])
        assert args.wal == "/tmp/svc.wal"
        assert args.fault_plan == '{"kill_at": 10}'
        # The fsync cadence is not a knob: every reply is durable.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--wal", "/tmp/svc.wal", "--wal-sync-every", "8"])


class TestRecoverCommand:
    def _write_wal(self, tmp_path):
        from repro.service import AllocationService, ChurnAction

        path = tmp_path / "svc.wal"
        svc = AllocationService(
            [f"peer-{i}" for i in range(4)], d=2, refresh_every=8,
            seed=11, wal=path)
        for i in range(6):
            svc.allocate(f"obj-{i}")
        svc.apply_churn(ChurnAction(time=0.0, kind="join"))
        digest = svc.placement_digest()
        svc.close_wal()
        return path, digest

    def test_recover_prints_report(self, tmp_path, capsys):
        path, digest = self._write_wal(tmp_path)
        assert main(["recover", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recovered 7 record(s)" in out
        assert digest in out
        assert "1 join(s)" in out

    def test_recover_json_matches_live_digest(self, tmp_path, capsys):
        import json

        path, digest = self._write_wal(tmp_path)
        assert main(["recover", str(path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["placement_digest"] == digest
        assert stats["requests"] == 6
        assert stats["churn"]["joins"] == 1

    def test_recover_missing_log_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to recover"):
            main(["recover", str(tmp_path / "nope.wal")])
