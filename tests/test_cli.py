"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "paper"
        assert args.seed == 1

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig3", "fig4", "--scale", "quick", "--seed", "9"]
        )
        assert args.experiments == ["fig3", "fig4"]
        assert args.scale == "quick"
        assert args.seed == 9

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig1", "fig5"):
            assert name in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "finished in" in out

    def test_run_writes_json(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert (
            main(
                [
                    "run",
                    "table1",
                    "--scale",
                    "quick",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        data = json.loads(target.read_text())
        assert data[0]["name"] == "table1"

    def test_serial_run_builds_shared_workload_once(
        self, capsys, tmp_path, monkeypatch
    ):
        """A one-seed serial run registers the workloads its sweep cells
        share: table1 at paper scale builds one APSP matrix, and its JSON
        equals an unregistered run's byte for byte."""
        from repro.experiments.runner import run_experiment
        from repro.graph import distances
        from repro.util.serialization import dump_json

        builds = []
        real = distances.all_pairs_distance_matrix

        def spy(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(distances, "all_pairs_distance_matrix", spy)
        served = tmp_path / "served.json"
        assert main(
            ["run", "table1", "--scale", "paper", "--json", str(served)]
        ) == 0
        assert len(builds) == 1

        builds.clear()
        direct = tmp_path / "direct.json"
        dump_json(
            [run_experiment("table1", scale="paper", seed=1).to_json()],
            direct,
        )
        assert len(builds) > 1  # every sweep cell builds its own
        assert served.read_bytes() == direct.read_bytes()

    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "RG workload" in out and "Gowalla workload" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(Exception):
            main(["run", "fig99", "--scale", "quick"])


class TestFaultToleranceFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run", "all", "--resume", "ckpt", "--retries", "2",
                "--task-timeout", "30.5",
            ]
        )
        assert args.resume == "ckpt"
        assert args.retries == 2
        assert args.task_timeout == 30.5

    def test_flags_default_off(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.resume is None
        assert args.retries == 0
        assert args.task_timeout is None

    @pytest.mark.parametrize(
        "flag", [["--retries", "1"], ["--task-timeout", "1"]]
    )
    def test_serve_rejects_retry_and_timeout(self, flag):
        # Serve solves run on threads, which cannot be terminated.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2

    def test_serve_keeps_jobs_and_resume(self):
        args = build_parser().parse_args(
            ["serve", "--jobs", "2", "--resume", "ckpt"]
        )
        assert args.jobs == 2
        assert args.resume == "ckpt"

    def test_multi_seed_rejects_fault_tolerance_flags(
        self, capsys, tmp_path
    ):
        # --seeds > 1 neither journals, retries nor times out, so the
        # flags are an error rather than silently ignored.
        ckpt = tmp_path / "ck"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run", "table1", "--scale", "quick", "--seeds", "2",
                    "--resume", str(ckpt), "--retries", "3",
                    "--task-timeout", "0.001",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for flag in ("--resume", "--retries", "--task-timeout"):
            assert flag in err
        assert not ckpt.exists()

    def test_resume_checkpoints_and_restores(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = main(
            [
                "run", "table1", "fig1", "--scale", "quick",
                "--resume", str(ckpt),
            ]
        )
        assert first == 0
        assert len(list(ckpt.glob("task-*.json"))) == 2
        capsys.readouterr()
        second = main(
            [
                "run", "table1", "fig1", "--scale", "quick",
                "--resume", str(ckpt),
            ]
        )
        out = capsys.readouterr().out
        assert second == 0
        assert "2 restored" in out

    def test_resume_output_matches_plain_run(self, capsys, tmp_path):
        plain_json = tmp_path / "plain.json"
        resumed_json = tmp_path / "resumed.json"
        main(
            [
                "run", "table1", "--scale", "quick",
                "--json", str(plain_json),
            ]
        )
        ckpt = tmp_path / "ckpt"
        main(
            [
                "run", "table1", "--scale", "quick",
                "--resume", str(ckpt), "--json", str(resumed_json),
            ]
        )
        capsys.readouterr()
        assert plain_json.read_bytes() == resumed_json.read_bytes()


class TestRobustnessCommand:
    def test_parses(self):
        args = build_parser().parse_args(
            ["robustness", "--scale", "quick", "--seed", "4", "--jobs", "2"]
        )
        assert args.command == "robustness"
        assert args.scale == "quick"
        assert args.seed == 4
        assert args.jobs == 2

    def test_runs_and_writes_json(self, capsys, tmp_path):
        target = tmp_path / "robustness.json"
        assert (
            main(
                [
                    "robustness", "--scale", "quick", "--seed", "3",
                    "--json", str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "robustness finished in" in out
        data = json.loads(target.read_text())
        assert data[0]["name"] == "robustness"
        assert data[0]["params"]["baseline_sigma"] >= 0
