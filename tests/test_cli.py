"""End-to-end command line checks driven through main(argv)."""

import csv
import json

import pytest

from latticeswap.bench import ALGORITHMS, RESULT_COLUMNS, SAVINGS_COLUMNS
from latticeswap.cli import main
from latticeswap.lattice import CycleStatistics


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_instance_json_shape(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert run("gen", "--m", "7", "--k", "2", "--seed", "5", "-o", str(path)) == 0
        data = json.loads(path.read_text())
        assert set(data) == {"dims", "placement", "k", "seed"}
        assert data["dims"] == [7]
        assert sorted(data["placement"]) == list(range(1, 8))
        assert data["k"] == 2

    def test_gen_2d_rounds_up(self, tmp_path):
        path = tmp_path / "inst.json"
        run("gen", "--m", "10", "--dim", "2", "-o", str(path))
        data = json.loads(path.read_text())
        assert data["dims"] == [4, 4]
        assert len(data["placement"]) == 16

    def test_gen_to_stdout(self, capsys):
        assert run("gen", "--m", "5") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [5]

    @pytest.mark.parametrize("flag", ["--k", "--m"])
    def test_bad_size_exits_two_without_output(self, flag, tmp_path, capsys):
        path = tmp_path / "inst.json"
        argv = {"--k": ("--m", "5", "--k", "0"), "--m": ("--m", "0")}[flag]
        assert run("gen", *argv, "-o", str(path)) == 2
        assert "error:" in capsys.readouterr().err
        assert not path.exists()


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    run("gen", "--m", "8", "--k", "2", "--seed", "11", "-o", str(path))
    return str(path)


class TestPlanEvalRoundTrip:
    def test_plan_records_and_eval(self, instance_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert run("plan", "-i", instance_path, "--algo", "dp", "-o", str(plan_path)) == 0
        capsys.readouterr()
        records = json.loads(plan_path.read_text())
        assert isinstance(records, list)
        for rec in records:
            assert {"index", "cell", "deposit", "pick"} <= set(rec)
        indices = [r["index"] for r in records]
        assert indices == list(range(len(records)))

        assert run("eval", "-i", instance_path, "-p", str(plan_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert set(report) == {"valid", "swaps", "travel", "total"}
        assert report["total"] == pytest.approx(report["swaps"] + report["travel"])

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_algorithm_round_trips(self, algo, instance_path, tmp_path, capsys):
        plan_path = tmp_path / f"{algo}.json"
        assert run(
            "plan", "-i", instance_path, "--algo", algo, "--budget", "64",
            "-o", str(plan_path),
        ) == 0
        capsys.readouterr()
        assert run("eval", "-i", instance_path, "-p", str(plan_path)) == 0

    def test_plan_to_stdout_report_on_stderr(self, instance_path, capsys):
        assert run("plan", "-i", instance_path, "--algo", "switch") == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        report = json.loads(captured.err)
        assert report["swaps"] >= 0

    @pytest.mark.parametrize("argv, fallback", [((), False), (("--timeout", "0"), True)])
    def test_plan_report_shows_fallback(self, argv, fallback, instance_path, tmp_path, capsys):
        # A zero limit sends every exact search to its greedy fallback.
        plan_path = tmp_path / "plan.json"
        assert run("plan", "-i", instance_path, "--algo", "exact", *argv, "-o", str(plan_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"swaps", "travel", "total", "fallback"}
        assert report["fallback"] is fallback
        assert isinstance(json.loads(plan_path.read_text()), list)

    def test_eval_rejects_corrupt_plan(self, instance_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        run("plan", "-i", instance_path, "--algo", "switch", "-o", str(plan_path))
        capsys.readouterr()
        records = json.loads(plan_path.read_text())
        # swap the deposit of the first real action so it no longer
        # matches what the robot holds
        records[1]["deposit"], records[1]["pick"] = records[1]["pick"], records[1]["deposit"]
        plan_path.write_text(json.dumps(records))
        assert run("eval", "-i", instance_path, "-p", str(plan_path)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert report["reason"]
        assert report["failed_index"] is not None


class TestBenchCommand:
    def test_sweep_writes_pinned_columns(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run(
            "bench", "--m", "6", "--k", "1,2", "--algo", "switch,dp",
            "--trials", "2", "-o", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0]) == RESULT_COLUMNS
        assert len(rows) == 8
        assert {r["algo"] for r in rows} == {"switch", "dp"}

    def test_summary_counts_error_rows_apart(self, tmp_path, capsys):
        # m = 0 is an InvalidConfig row with no plan; it is an error, not a finished run.
        out = tmp_path / "r.csv"
        code = run("bench", "--m", "0,5", "--algo", "switch", "--trials", "2", "-o", str(out))
        assert code == 0
        assert f"4 runs (2 finished, 2 errors) -> {out}" in capsys.readouterr().out
        with open(out, newline="") as fh:
            errors = [r["error"] for r in csv.DictReader(fh)]
        assert sorted(errors) == ["", "", "InvalidConfig", "InvalidConfig"]

    def test_size_refusals_are_error_rows_not_timeouts(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run("bench", "--m", "14", "--algo", "opt", "--workers", "1", "-o", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {(r["timeout"], r["error"]) for r in rows} == {("0", "SizeLimitExceeded")}

    def test_worker_count_comes_from_the_flag_only(self, tmp_path, monkeypatch, capsys):
        # Only --workers sets the worker count; a stray variable of that name is ignored.
        monkeypatch.setenv("LATTICESWAP_WORKERS", "two")
        out = tmp_path / "r.csv"
        assert run("bench", "--m", "6", "--algo", "switch", "--trials", "2", "-o", str(out)) == 0
        assert "2 runs (2 finished, 0 errors)" in capsys.readouterr().out

    def test_config_file_supplies_options(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "m": [6],
            "k": [1, 2],
            "algo": ["switch"],
            "trials": 2,
            "out": str(out),
        }))
        assert run("bench", "--config", str(config)) == 0
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_config_takes_int_and_str_forms(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "dim": 1, "m": "6,7", "k": 2, "algo": "switch,follow", "trials": 1, "out": str(out),
        }))
        assert run("bench", "--config", str(config)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["m"], r["k"], r["algo"]) for r in rows] == [
            ("6", "2", "switch"), ("6", "2", "follow"), ("7", "2", "switch"), ("7", "2", "follow"),
        ]

    def test_flags_override_config(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        over = tmp_path / "override.csv"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "m": [6], "algo": "switch", "trials": 3, "out": str(out),
        }))
        assert run("bench", "--config", str(config), "--trials", "1", "-o", str(over)) == 0
        assert not out.exists()
        with open(over, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"m": [6], "algo": "switch", "out": "x.csv", "budgett": 9}))
        with pytest.raises(SystemExit):
            run("bench", "--config", str(config))

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text("[6]")
        assert run("bench", "--config", str(config)) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_required_options(self):
        with pytest.raises(SystemExit):
            run("bench", "--m", "6")

    def test_savings_table(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        savings = tmp_path / "s.csv"
        code = run(
            "bench", "--m", "6", "--k", "1,2", "--algo", "switch,dp",
            "--trials", "2", "-o", str(out),
            "--baseline-algo", "switch", "--savings-out", str(savings),
        )
        assert code == 0
        with open(savings, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0]) == SAVINGS_COLUMNS
        baseline = [r for r in rows if r["algo"] == "switch" and r["k"] == "1"]
        assert baseline[0]["ratio_mean"] == "1.000000"

    def test_savings_needs_baseline(self, tmp_path):
        with pytest.raises(SystemExit):
            run(
                "bench", "--m", "6", "--algo", "switch", "-o", str(tmp_path / "r.csv"),
                "--savings-out", str(tmp_path / "s.csv"),
            )


class TestStatsCommand:
    def test_stats_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        assert run("stats", "--m", "6,8", "--samples", "300", "-o", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0]) == CycleStatistics.CSV_COLUMNS
        assert [r["m"] for r in rows] == ["6", "8"]
        assert rows[0]["samples"] == "300"


class TestErrorPaths:
    def test_planner_failure_exits_two(self, tmp_path, capsys):
        # One 14-cycle is over the oracle's size cap; the CLI reports
        # the failure as exit code 2 rather than a traceback.
        inst = tmp_path / "inst.json"
        placement = list(range(2, 15)) + [1]
        inst.write_text(json.dumps({"dims": [14], "placement": placement, "k": 1, "seed": 0}))
        code = run("plan", "-i", str(inst), "--algo", "opt")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, placement", [([9], [2, 1, 3, 4, 5, 6, 7, 8, 9]), ([3, 3], [2, 1, 3, 4, 5, 6, 7, 8, 9])])
    def test_eval_off_board_cell_is_invalid(self, dims, placement, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"dims": dims, "placement": placement, "k": 1}))
        plan = tmp_path / "plan.json"
        cells = [1, 99, 2, 1, 1]
        plan.write_text(json.dumps([{"index": i, "cell": c} for i, c in enumerate(cells)]))
        assert run("eval", "-i", str(inst), "-p", str(plan)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": False, "reason": "cell 99 outside the lattice", "failed_index": 1}

    def test_eval_rejects_gapped_plan_indices(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"dims": [3], "placement": [2, 1, 3], "k": 1}))
        plan = tmp_path / "plan.json"
        actions = [(1, 0, 0), (1, 0, 2), (2, 2, 1), (1, 1, 0), (1, 0, 0)]
        records = [
            {"index": i, "cell": c, "deposit": d, "pick": p}
            for i, (c, d, p) in zip((0, 7, 7, 9, 40), actions)
        ]
        plan.write_text(json.dumps(records))
        assert run("eval", "-i", str(inst), "-p", str(plan)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "0..4" in captured.err
        assert "valid" not in captured.out

    @pytest.mark.parametrize("broken", ["instance", "plan", "missing"])
    def test_unreadable_input_exits_two(self, broken, instance_path, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        run("plan", "-i", instance_path, "--algo", "switch", "-o", str(plan))
        capsys.readouterr()
        if broken == "instance":
            data = json.loads(open(instance_path).read())
            del data["placement"]
            instance_path = tmp_path / "bare.json"
            instance_path.write_text(json.dumps(data))
        elif broken == "plan":
            records = json.loads(plan.read_text())
            del records[1]["cell"]
            plan.write_text(json.dumps(records))
        else:
            plan = tmp_path / "absent.json"
        assert run("eval", "-i", str(instance_path), "-p", str(plan)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert {"instance": "'placement'", "plan": "'cell'", "missing": "absent.json"}[broken] in err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            run("frobnicate")
