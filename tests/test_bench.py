"""Sweep plumbing: seeds, case grids, result rows, savings tables."""

import csv
import math
import time

import pytest

from latticeswap import bench
from latticeswap.bench import (
    ALGORITHMS,
    PLANNERS,
    RESULT_COLUMNS,
    SAVINGS_COLUMNS,
    BenchCase,
    board_dims,
    build_instance,
    instance_seed,
    plan_instance,
    report_savings,
    rollout_seed,
    run_case,
    run_stats,
    run_sweep,
    sweep_cases,
    write_results_csv,
    write_savings_csv,
)
from latticeswap.errors import (
    InvalidConfig,
    InvalidPlanStructure,
    MissingBaseline,
    PlanningTimeout,
)
from latticeswap.lattice import EMPTY, Arrangement, CycleStatistics, Lattice, random_arrangement
from latticeswap.oracle import UNRESTRICTED_K_CAP, plan_optimal_unrestricted
from latticeswap.plan import Instance, PickNSwap, simulate


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
        with pytest.raises(InvalidConfig):
            board_dims(3, 9)

    def test_build_instance_records_actual_m(self):
        inst = build_instance(2, 10, 0, 0, 2)
        assert inst.arrangement.m == 16
        assert inst.k == 2


# The planners whose plans carry no buffer labels.
UNLABELLED = {"follow", "switch", "exact", "2d-greedy"}
NO_CYCLE_CASES = [(algo, k) for algo in PLANNERS for k in (1, 2, 3)] + [
    ("unrestricted", k) for k in range(1, UNRESTRICTED_K_CAP + 1)
]


@pytest.mark.parametrize("dims", [(7,), (2, 3)])
@pytest.mark.parametrize(("algo", "k"), NO_CYCLE_CASES)
def test_no_cycle_plan_is_the_two_bookends(algo, k, dims):
    lattice = Lattice(dims)
    arr = Arrangement(lattice, tuple(range(1, math.prod(dims) + 1)))
    if algo == "unrestricted":
        plan = plan_optimal_unrestricted(arr, k)
    else:
        plan = plan_instance(Instance(arr, k), algo)
    be = PickNSwap(lattice.rest, EMPTY, EMPTY)
    assert plan.actions == (be, be)
    assert plan.buffer_of == (None if algo in UNLABELLED else (None, None))
    assert plan.fallback is False


@pytest.mark.parametrize("algo", ["exact", "dp"])
def test_timeout_reaches_the_exact_searches(algo):
    # A zero limit stops each exact search at its first expansion, so the
    # plan falls back to greedy tours only if the limit got through.
    inst = Instance(random_arrangement(10, 0), 2)
    assert not plan_instance(inst, algo).fallback
    plan = plan_instance(inst, algo, timeout_s=0.0)
    assert plan.fallback
    assert simulate(plan, inst.arrangement, k=2).valid


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
        assert isinstance(row["wall_ms"], int) and row["wall_ms"] >= 0

    def test_timeout_row_records_elapsed(self, monkeypatch):
        row = run_case(BenchCase(1, 12, 1, "exact", trial=0, timeout_s=0.25), base_seed=3)
        if row["timeout"] == 1:
            assert row["wall_ms"] >= 250

        # Both timeout paths, forced: a planner that raises after twice
        # its budget, and one that returns a plan that late.
        def slow(instance, algo, **settings):
            time.sleep(0.2)
            if instance.seed == first_seed:
                raise PlanningTimeout("budget spent")
            return real(instance, algo, **settings)

        first_seed = instance_seed(3, 8, 0)
        real = bench.plan_instance
        monkeypatch.setattr(bench, "plan_instance", slow)
        for trial, error in ((0, "PlanningTimeout"), (1, "")):
            row = run_case(BenchCase(1, 8, 1, "switch", trial=trial, timeout_s=0.1), base_seed=3)
            assert row["timeout"] == 1 and row["error"] == error
            assert row["wall_ms"] >= 200

    def test_mcts_row_ends_at_its_limit(self):
        # At its default 2048 rollouts per commit this case plans for
        # about 10 s.  The deadline is checked once per search iteration;
        # on a shared 2-core box the row ended 0-1 ms past the limit.
        # The slack leaves room for a loaded machine.
        limit, slack = 0.5, 0.25
        row = run_case(BenchCase(1, 40, 2, "mcts", trial=0, timeout_s=limit), base_seed=7)
        assert row["timeout"] == 1 and row["error"] == "PlanningTimeout"
        assert row["valid"] == 0 and row["total"] == ""
        assert limit * 1000 <= row["wall_ms"] <= (limit + slack) * 1000

    def test_mcts_give_up_row_is_not_a_timeout(self, monkeypatch):
        # At 4 rollouts per commit the tree search commits its 64-action
        # cap short of the goal on this row, in a few milliseconds.
        arr = Arrangement.from_sequence([9, 10, 5, 6, 8, 7, 3, 2, 1, 4])
        monkeypatch.setattr(bench, "build_instance", lambda dim, m, seed, trial, k: Instance(arr, k=k))
        row = run_case(BenchCase(1, 10, 3, "mcts", trial=0, budget=4), base_seed=0)
        assert row["error"] == "SearchGaveUp"
        assert row["timeout"] == 0 and row["valid"] == 0 and row["total"] == ""

    def test_valid_row_has_no_error(self):
        row = run_case(BenchCase(1, 7, 1, "switch", trial=0), base_seed=3)
        assert row["error"] == ""

    def test_package_error_gives_one_error_row(self, monkeypatch):
        def broken(instance, algo, **settings):
            if instance.seed == second_seed:
                raise InvalidPlanStructure("planner broke")
            return real(instance, algo, **settings)

        second_seed = instance_seed(0, 6, 1)
        real = bench.plan_instance
        monkeypatch.setattr(bench, "plan_instance", broken)
        rows = run_sweep(sweep_cases([1], [6], [1], ["switch"], trials=3), base_seed=0, workers=1)
        assert len(rows) == 3
        assert [r["error"] for r in rows] == ["", "InvalidPlanStructure", ""]
        bad = rows[1]
        assert tuple(bad) == RESULT_COLUMNS
        assert bad["timeout"] == 0 and bad["valid"] == 0
        assert bad["swaps"] == "" and bad["travel"] == "" and bad["total"] == ""
        assert rows[0]["valid"] == 1 and rows[2]["valid"] == 1

    def test_merge_overflow_gives_one_error_row(self, monkeypatch):
        # A 2000-cell row of eight interleaved 250-cell cycles at k = 8
        # has more interleaving states than int64 state codes can hold.
        def interleaved(m, seed, dims=None):
            if m != 2000:
                return real(m, seed, dims)
            placement = [0] * m
            for j in range(1, 9):
                chain = list(range(j, m + 1, 8))
                for i, cell in enumerate(chain):
                    placement[cell - 1] = chain[(i + 1) % len(chain)]
            return Arrangement.from_sequence(placement)

        real = bench.random_arrangement
        monkeypatch.setattr(bench, "random_arrangement", interleaved)
        rows = run_sweep(sweep_cases([1], [2000, 8], [8], ["dp"], trials=1), base_seed=0, workers=1)
        assert [r["error"] for r in rows] == ["MergeStateLimit", ""]
        assert rows[0]["timeout"] == 0 and rows[0]["valid"] == 0
        assert rows[1]["valid"] == 1

    def test_size_refusal_is_not_a_timeout(self):
        # 14 cells are over the oracle's size cap: refused at once.
        row = run_case(BenchCase(1, 14, 1, "opt", trial=0), base_seed=3)
        assert row["error"] == "SizeLimitExceeded"
        assert row["timeout"] == 0 and row["valid"] == 0
        assert row["swaps"] == "" and row["travel"] == "" and row["total"] == ""

    def test_zero_buffers_give_error_rows(self):
        cases = sweep_cases([1], [6], [0], ALGORITHMS, trials=1, budget=16)
        rows = run_sweep(cases, base_seed=0, workers=1)
        assert [r["algo"] for r in rows] == list(ALGORITHMS)
        for row in rows:
            assert row["error"] == "InvalidConfig"
            assert row["timeout"] == 0 and row["valid"] == 0

    def test_empty_board_gives_error_rows_and_sweep_goes_on(self):
        cases = sweep_cases([1, 2], [0, 5], [1], ["switch"], trials=2)
        rows = run_sweep(cases, base_seed=0, workers=1)
        assert [(r["dim"], r["m"], r["error"]) for r in rows] == [
            (1, 0, "InvalidConfig"),
            (1, 0, "InvalidConfig"),
            (1, 5, ""),
            (1, 5, ""),
            (2, 0, "InvalidConfig"),
            (2, 0, "InvalidConfig"),
            (2, 9, ""),
            (2, 9, ""),
        ]
        for row in rows:
            assert tuple(row) == RESULT_COLUMNS
            assert row["timeout"] == 0
            assert row["valid"] == (0 if row["error"] else 1)

    def test_parallel_sweep_gives_the_serial_rows(self):
        # k = 0 gives one InvalidConfig row per algorithm in both paths.
        cases = sweep_cases([1, 2], [6], [0, 2], ["switch", "dp", "mcts"], trials=2, budget=16)
        serial = run_sweep(cases, base_seed=4, workers=1)
        parallel = run_sweep(cases, base_seed=4, workers=2)
        assert any(r["error"] == "InvalidConfig" for r in serial)
        for row in serial + parallel:
            row.pop("wall_ms")
        assert parallel == serial

    def test_pool_is_no_larger_than_the_sweep(self, monkeypatch):
        # A forked pool starts every worker it is given; record the size
        # asked for and map serially instead of starting processes.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        cases = sweep_cases([1], [6], [1, 2], ["switch"], trials=2)
        rows = run_sweep(iter(cases), base_seed=0, workers=64)
        assert sizes == [4]
        assert [r["k"] for r in rows] == [c.k for c in cases]
        assert run_sweep(cases[:1], base_seed=0, workers=64)[0]["valid"] == 1
        assert sizes == [4]

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
