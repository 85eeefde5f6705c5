"""Sweep plumbing: seeds, case grids, result rows, savings tables."""

import csv

import pytest

from latticeswap import bench
from latticeswap.bench import (
    ALGORITHMS,
    RESULT_COLUMNS,
    SAVINGS_COLUMNS,
    BenchCase,
    board_dims,
    build_instance,
    instance_seed,
    report_savings,
    rollout_seed,
    run_case,
    run_stats,
    run_sweep,
    sweep_cases,
    write_results_csv,
    write_savings_csv,
)
from latticeswap.errors import InvalidPlanStructure, MissingBaseline
from latticeswap.lattice import CycleStatistics


class TestSeeds:
    def test_instance_seed_ignores_k_and_algo(self):
        # Every planner must face the same arrangement for a given
        # (m, trial) coordinate, so the instance stream cannot depend
        # on anything else.
        placements = {
            build_instance(1, 9, 7, 3, k).arrangement.placement for k in (1, 2, 5)
        }
        assert len(placements) == 1

    def test_instance_seed_varies_with_trial(self):
        assert instance_seed(7, 9, 0) != instance_seed(7, 9, 1)
        assert instance_seed(7, 9, 0) != instance_seed(7, 10, 0)
        assert instance_seed(7, 9, 0) != instance_seed(8, 9, 0)

    def test_rollout_seed_varies_with_k_and_algo(self):
        base = rollout_seed(7, 9, 0, 1, "mcts")
        assert base != rollout_seed(7, 9, 0, 2, "mcts")
        assert base != rollout_seed(7, 9, 0, 1, "opt")
        # but it is reproducible
        assert base == rollout_seed(7, 9, 0, 1, "mcts")


class TestBoards:
    def test_one_dimensional(self):
        assert board_dims(1, 13) == (13,)

    def test_two_dimensional_rounds_up_to_square(self):
        assert board_dims(2, 9) == (3, 3)
        assert board_dims(2, 10) == (4, 4)
        assert board_dims(2, 17) == (5, 5)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            board_dims(3, 9)

    def test_build_instance_records_actual_m(self):
        inst = build_instance(2, 10, 0, 0, 2)
        assert inst.arrangement.m == 16
        assert inst.k == 2


class TestSweepCases:
    def test_grid_size(self):
        cases = sweep_cases([1], [6, 8], [1, 2], ["switch", "dp"], trials=3)
        assert len(cases) == 2 * 2 * 2 * 3
        assert all(isinstance(c, BenchCase) for c in cases)

    def test_unknown_algo(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sweep_cases([1], [6], [1], ["simulated-annealing"], trials=1)

    def test_algorithm_tuple_is_pinned(self):
        assert ALGORITHMS == ("follow", "switch", "exact", "2d-greedy", "dp", "mcts", "opt")


class TestRunCase:
    def test_valid_row_shape(self):
        row = run_case(BenchCase(1, 7, 1, "switch", trial=0), base_seed=3)
        assert tuple(row) == RESULT_COLUMNS
        assert row["timeout"] == 0
        assert row["valid"] == 1
        assert row["swaps"] >= 0
        # travel and total are fixed-point strings for the CSV
        assert float(row["travel"]) >= 0.0
        assert abs(float(row["total"]) - row["swaps"] - float(row["travel"])) < 1e-6

    def test_timeout_row_shape(self):
        # A zero budget forces the timeout path without waiting.
        row = run_case(BenchCase(1, 12, 1, "exact", trial=0, timeout_s=0.0), base_seed=3)
        assert row["timeout"] == 1
        assert row["valid"] == 0
        assert row["swaps"] == "" and row["travel"] == "" and row["total"] == ""
        assert row["wall_ms"] == 0

    def test_timeout_row_records_the_limit(self):
        row = run_case(BenchCase(1, 12, 1, "exact", trial=0, timeout_s=0.25), base_seed=3)
        if row["timeout"]:
            assert row["wall_ms"] == 250

    def test_valid_row_has_no_error(self):
        row = run_case(BenchCase(1, 7, 1, "switch", trial=0), base_seed=3)
        assert row["error"] == ""

    def test_package_error_gives_one_error_row(self, monkeypatch):
        def broken(instance, algo, case, mcts_seed):
            if case.trial == 1:
                raise InvalidPlanStructure("planner broke")
            return real(instance, algo, case, mcts_seed)

        real = bench.dispatch
        monkeypatch.setattr(bench, "dispatch", broken)
        rows = run_sweep(sweep_cases([1], [6], [1], ["switch"], trials=3), base_seed=0, workers=1)
        assert len(rows) == 3
        assert [r["error"] for r in rows] == ["", "InvalidPlanStructure", ""]
        bad = rows[1]
        assert tuple(bad) == RESULT_COLUMNS
        assert bad["timeout"] == 0 and bad["valid"] == 0
        assert bad["swaps"] == "" and bad["travel"] == "" and bad["total"] == ""
        assert rows[0]["valid"] == 1 and rows[2]["valid"] == 1

    def test_rows_are_deterministic(self):
        # Everything except the wall-clock column repeats exactly.
        case = BenchCase(1, 8, 2, "mcts", trial=1, budget=64)
        first = run_case(case, 5)
        again = run_case(case, 5)
        first.pop("wall_ms")
        again.pop("wall_ms")
        assert first == again


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        cases = sweep_cases([1], [6], [1], ["switch"], trials=2)
        rows = run_sweep(cases, base_seed=0, workers=1)
        path = tmp_path / "results.csv"
        write_results_csv(rows, str(path))
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert tuple(back[0]) == RESULT_COLUMNS
        assert back[0]["algo"] == "switch"
        assert back[0]["valid"] == "1"

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results_csv([], str(path))
        text = path.read_text().strip()
        assert text == ",".join(RESULT_COLUMNS)


def fake_row(dim, m, k, algo, trial, travel, timeout=0, valid=1):
    return {
        "dim": dim,
        "m": m,
        "k": k,
        "algo": algo,
        "cp": 1.0,
        "ct": 1.0,
        "trial": trial,
        "seed": 0,
        "swaps": 5 if not timeout else "",
        "travel": f"{travel:.6f}" if not timeout else "",
        "total": f"{5 + travel:.6f}" if not timeout else "",
        "wall_ms": 1,
        "timeout": timeout,
        "valid": valid,
    }


class TestReportSavings:
    def test_baseline_against_itself_is_one(self):
        rows = [fake_row(1, 9, 1, "switch", t, travel=10.0 + t) for t in range(3)]
        table = report_savings(rows, "switch")
        assert len(table) == 1
        entry = table[0]
        assert entry["samples"] == 3
        assert entry["ratio_mean"] == "1.000000"
        assert entry["ratio_std"] == "0.000000"

    def test_frozen_two_algo_table(self):
        rows = [
            fake_row(1, 9, 1, "switch", 0, travel=10.0),
            fake_row(1, 9, 1, "switch", 1, travel=20.0),
            fake_row(1, 9, 2, "dp", 0, travel=8.0),
            fake_row(1, 9, 2, "dp", 1, travel=14.0),
        ]
        table = report_savings(rows, "switch")
        by_algo = {(r["k"], r["algo"]): r for r in table}
        dp = by_algo[(2, "dp")]
        # per-trial ratios 0.8 and 0.7
        assert dp["ratio_mean"] == "0.750000"
        assert dp["samples"] == 2

    def test_rows_sorted_by_coordinates(self):
        rows = [
            fake_row(1, 9, 2, "dp", 0, travel=8.0),
            fake_row(1, 9, 1, "switch", 0, travel=10.0),
            fake_row(1, 6, 1, "switch", 0, travel=4.0),
        ]
        table = report_savings(rows, "switch")
        assert [(r["m"], r["k"], r["algo"]) for r in table] == [
            (6, 1, "switch"),
            (9, 1, "switch"),
            (9, 2, "dp"),
        ]

    def test_timeout_rows_are_excluded(self):
        rows = [
            fake_row(1, 9, 1, "switch", 0, travel=10.0),
            fake_row(1, 9, 2, "dp", 0, travel=8.0),
            fake_row(1, 9, 2, "dp", 1, travel=0.0, timeout=1, valid=0),
            fake_row(1, 9, 1, "switch", 1, travel=12.0),
        ]
        table = report_savings(rows, "switch")
        by_algo = {(r["k"], r["algo"]): r for r in table}
        assert by_algo[(2, "dp")]["samples"] == 1
        assert by_algo[(1, "switch")]["samples"] == 2

    def test_missing_baseline_raises(self):
        rows = [fake_row(1, 9, 2, "dp", 0, travel=8.0)]
        with pytest.raises(MissingBaseline):
            report_savings(rows, "switch")

    def test_invalid_baseline_row_does_not_count(self):
        rows = [
            fake_row(1, 9, 1, "switch", 0, travel=10.0, valid=0),
            fake_row(1, 9, 2, "dp", 0, travel=8.0),
        ]
        with pytest.raises(MissingBaseline):
            report_savings(rows, "switch")

    def test_zero_travel_pairs_count_as_parity(self):
        rows = [
            fake_row(1, 9, 1, "switch", 0, travel=0.0),
            fake_row(1, 9, 2, "dp", 0, travel=0.0),
        ]
        table = report_savings(rows, "switch")
        by_algo = {(r["k"], r["algo"]): r for r in table}
        assert by_algo[(2, "dp")]["ratio_mean"] == "1.000000"

    def test_savings_csv_columns(self, tmp_path):
        rows = [fake_row(1, 9, 1, "switch", 0, travel=10.0)]
        table = report_savings(rows, "switch")
        path = tmp_path / "savings.csv"
        write_savings_csv(table, str(path))
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert tuple(back[0]) == SAVINGS_COLUMNS


class TestRunStats:
    def test_rows_and_reproducibility(self):
        first = run_stats([6, 8], samples=200, base_seed=1)
        again = run_stats([6, 8], samples=200, base_seed=1)
        assert [s.csv_row() for s in first] == [s.csv_row() for s in again]
        assert all(isinstance(s, CycleStatistics) for s in first)
        assert [s.m for s in first] == [6, 8]

    def test_seed_stream_differs_per_m(self):
        # Stats for different board sizes should not share an RNG
        # stream even at equal sample counts.
        one, two = run_stats([6, 7], samples=50, base_seed=1)
        assert one.csv_row()[1:] != two.csv_row()[1:]
