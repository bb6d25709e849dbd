"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "lemma15_suburb", "--scale", "full"])
        assert args.experiment == "lemma15_suburb"
        assert args.scale == "full"

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_experiment_alias_parses(self):
        args = build_parser().parse_args(
            ["experiment", "thm3_radius", "--jobs", "2"]
        )
        assert args.command == "experiment"
        assert args.experiment == "thm3_radius"
        assert args.jobs == 2

    def test_jobs_default_to_one(self):
        args = build_parser().parse_args(["run", "thm3_radius"])
        assert args.jobs == 1

    def test_all_and_report_take_jobs(self):
        args = build_parser().parse_args(["all", "--jobs", "3"])
        assert args.jobs == 3
        args = build_parser().parse_args(["report", "--jobs", "2"])
        assert args.jobs == 2

    @pytest.mark.parametrize("command", ["experiment", "all", "sweep", "report", "flood"])
    def test_no_subcommand_takes_an_engine(self, command):
        argv = {
            "experiment": ["experiment", "thm3_radius"],
            "all": ["all"],
            "sweep": ["sweep", "--n", "50", "--parameter", "radius", "--values", "1"],
            "report": ["report"],
            "flood": ["flood", "--n", "50"],
        }[command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--engine", "batch"])

    def test_bench_experiments_suite_parses(self):
        args = build_parser().parse_args(["bench", "--suite", "experiments"])
        assert args.suite == "experiments"

    def test_flood_parses(self):
        args = build_parser().parse_args(["flood", "--n", "500", "--seed", "3"])
        assert args.n == 500
        assert args.seed == 3


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1_spatial" in out
        assert "thm18_lower" in out

    def test_run_deterministic_experiment(self, capsys):
        code = main(["run", "lemma15_suburb"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemma 15" in out
        assert "PASS" in out

    def test_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(["run", "lemma15_suburb", "--csv", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        assert csv_path.exists()

    def test_experiment_alias_runs_with_jobs(self, capsys):
        code = main(["experiment", "thm10_growth", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 10" in out

    def test_jobs_on_non_scheduler_experiment_errors(self, capsys):
        with pytest.raises(SystemExit, match="fan-out"):
            main(["run", "fig1_spatial", "--jobs", "2"])

    def test_flood_command(self, capsys):
        code = main(
            ["flood", "--n", "400", "--radius-factor", "2.0", "--max-steps", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flooding time" in out
        assert "Theorem 3 bound" in out

    def test_flood_with_source_index(self, capsys):
        code = main(["flood", "--n", "400", "--source", "7", "--max-steps", "2000"])
        capsys.readouterr()
        assert code == 0


class TestBenchCommand:
    def test_bench_smoke_writes_stable_schema(self, capsys, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--smoke", "--repeats", "1",
                "--out", str(out), "--label", "unit",
                "--baseline", "pr1_batch=1.0",
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "parity" in text
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["label"] == "unit"
        assert report["smoke"] is True
        assert report["parity"]["ok"] is True
        assert report["baselines"] == {"pr1_batch": 1.0}
        assert "batch_vs_pr1_batch" in report["speedups"]
        assert "batch_vs_scalar" in report["speedups"]
        kernel_names = {k["name"] for k in report["kernels"]}
        assert any(name.startswith("grid_index_") for name in kernel_names)
        assert any(name.startswith("batch_any_within_") for name in kernel_names)
        strategies = {row["name"] for row in report["end_to_end"]}
        assert strategies == {"batch", "scalar"}
        for kernel in report["kernels"]:
            assert kernel["seconds"] > 0
            assert kernel["per_call"] > 0

    def test_bench_rejects_malformed_baseline(self):
        with pytest.raises(SystemExit):
            main(["bench", "--smoke", "--baseline", "nonsense"])
