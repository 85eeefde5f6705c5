"""Benchmark sweeps: instance generation, timing, CSV output.

Instances are derived from a base seed with a stable hash over the
sweep coordinates (base, m, trial), so every algorithm and every
buffer count sees the same arrangements.  Randomized planners get a
separate stream keyed additionally by k and the algorithm name.

A 2D sweep entry asks for a nominal m and gets the smallest square
board with at least that many cells; the recorded m is the actual cell
count.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, Sequence

from .errors import (
    LatticeSwapError,
    MergeStateLimit,
    MissingBaseline,
    PlanningTimeout,
    SizeLimitExceeded,
)
from .lattice import cycle_statistics, random_arrangement, CycleStatistics
from .mcts import MctsConfig, plan_mcts
from .multi_buffer import PipelineConfig, plan_multi_buffer_dp
from .oracle import OracleLimits, plan_optimal
from .plan import CostParams, Instance, Plan, evaluate_cost, simulate
from .search import SearchLimits
from .single_buffer import (
    plan_cycle_following,
    plan_cycle_switching,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
)

ALGORITHMS = ("follow", "switch", "exact", "2d-greedy", "dp", "mcts", "opt")

RESULT_COLUMNS = (
    "dim",
    "m",
    "k",
    "algo",
    "cp",
    "ct",
    "trial",
    "seed",
    "swaps",
    "travel",
    "total",
    "wall_ms",
    "timeout",
    "valid",
    "error",
)


def stable_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def instance_seed(base: int, m: int, trial: int) -> int:
    return stable_seed(base, m, trial)


def rollout_seed(base: int, m: int, trial: int, k: int, algo: str) -> int:
    return stable_seed(base, m, trial, k, algo, "rollout")


def board_dims(dim: int, m_nominal: int) -> tuple[int, ...]:
    if dim == 1:
        return (m_nominal,)
    if dim == 2:
        side = math.isqrt(m_nominal)
        if side * side < m_nominal:
            side += 1
        return (side, side)
    raise ValueError(f"dim must be 1 or 2, got {dim}")


def build_instance(dim: int, m_nominal: int, base_seed: int, trial: int, k: int) -> Instance:
    dims = board_dims(dim, m_nominal)
    m = math.prod(dims)
    seed = instance_seed(base_seed, m_nominal, trial)
    return Instance(random_arrangement(m, seed, dims), k=k, seed=seed)


@dataclass(frozen=True)
class BenchCase:
    dim: int
    m: int  # nominal; 2D boards may round up
    k: int
    algo: str
    trial: int
    cp: float = 1.0
    ct: float = 1.0
    timeout_s: float = 60.0
    budget: int = 2048


def sweep_cases(
    dims: Sequence[int],
    ms: Sequence[int],
    ks: Sequence[int],
    algos: Sequence[str],
    trials: int,
    cp: float = 1.0,
    ct: float = 1.0,
    timeout_s: float = 60.0,
    budget: int = 2048,
) -> list[BenchCase]:
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    return [
        BenchCase(dim, m, k, algo, trial, cp, ct, timeout_s, budget)
        for dim in dims
        for m in ms
        for k in ks
        for algo in algos
        for trial in range(trials)
    ]


def dispatch(instance: Instance, algo: str, case: BenchCase, mcts_seed: int) -> Plan:
    arr = instance.arrangement
    k = instance.k
    if algo == "follow":
        return plan_cycle_following(arr)
    if algo == "switch":
        return plan_cycle_switching(arr)
    if algo == "2d-greedy":
        return plan_single_buffer_2d(arr)
    if algo == "exact":
        return plan_single_buffer_exact(arr, SearchLimits(timeout_s=case.timeout_s))
    if algo == "dp":
        return plan_multi_buffer_dp(arr, k, PipelineConfig(search_timeout_s=case.timeout_s))
    if algo == "mcts":
        return plan_mcts(
            arr,
            k,
            CostParams(case.cp, case.ct),
            MctsConfig(budget=case.budget, seed=mcts_seed),
        )
    if algo == "opt":
        return plan_optimal(arr, k, OracleLimits(timeout_s=case.timeout_s))
    raise ValueError(f"unknown algorithm {algo!r}")


def run_case(case: BenchCase, base_seed: int) -> dict:
    instance = build_instance(case.dim, case.m, base_seed, case.trial, case.k)
    arr = instance.arrangement
    seed_mcts = rollout_seed(base_seed, case.m, case.trial, case.k, case.algo)
    row = {
        "dim": case.dim,
        "m": arr.m,
        "k": case.k,
        "algo": case.algo,
        "cp": case.cp,
        "ct": case.ct,
        "trial": case.trial,
        "seed": instance.seed,
        "swaps": "",
        "travel": "",
        "total": "",
        "wall_ms": int(round(case.timeout_s * 1000)),
        "timeout": 1,
        "valid": 0,
        "error": "",
    }
    begin = time.perf_counter()
    try:
        plan = dispatch(instance, case.algo, case, seed_mcts)
    except (PlanningTimeout, SizeLimitExceeded, MergeStateLimit) as exc:
        row["error"] = type(exc).__name__
        return row
    except LatticeSwapError as exc:
        # Any other package error spoils this case only, not the sweep.
        row.update(
            wall_ms=int(round((time.perf_counter() - begin) * 1000)),
            timeout=0,
            error=type(exc).__name__,
        )
        return row
    wall = time.perf_counter() - begin
    if wall > case.timeout_s:
        return row
    report = evaluate_cost(plan, arr.lattice, CostParams(case.cp, case.ct))
    row.update(
        swaps=report.swaps,
        travel=f"{report.travel:.6f}",
        total=f"{report.total:.6f}",
        wall_ms=int(round(wall * 1000)),
        timeout=0,
        valid=1 if simulate(plan, arr, case.k) else 0,
    )
    return row


def _case_worker(packed: tuple[BenchCase, int]) -> dict:
    case, base_seed = packed
    return run_case(case, base_seed)


def run_sweep(cases: Iterable[BenchCase], base_seed: int, workers: int | None = None) -> list[dict]:
    cases = list(cases)
    if workers is None:
        workers = int(os.environ.get("LATTICESWAP_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_case_worker, [(c, base_seed) for c in cases]))
    return [run_case(c, base_seed) for c in cases]


def write_results_csv(rows: Iterable[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


SAVINGS_COLUMNS = ("dim", "m", "k", "algo", "samples", "ratio_mean", "ratio_std")


def report_savings(
    rows: Iterable[dict], baseline_algo: str, baseline_k: int = 1
) -> list[dict]:
    """Travel ratios against a reference algorithm at a fixed k.

    Pairs each valid row with the baseline row of the same (dim, m,
    trial) and aggregates the per-trial travel ratios per (dim, m, k,
    algo).  Rows that timed out or failed validation are left out of
    the averages, mirroring how unfinished trials are reported; a data
    point with no valid baseline raises MissingBaseline.
    """

    def shape(row: dict) -> tuple:
        return (int(row["dim"]), int(row["m"]), int(row["k"]), str(row["algo"]))

    usable = [r for r in rows if not int(r["timeout"]) and int(r["valid"])]
    base: dict[tuple, float] = {}
    for row in usable:
        dim, m, k, algo = shape(row)
        if algo == baseline_algo and k == baseline_k:
            base[(dim, m, int(row["trial"]))] = float(row["travel"])

    grouped: dict[tuple, list[float]] = {}
    for row in usable:
        key = shape(row)
        ref = base.get((key[0], key[1], int(row["trial"])))
        if ref is None:
            raise MissingBaseline(
                f"no valid {baseline_algo!r} k={baseline_k} row for "
                f"dim={key[0]} m={key[1]} trial={row['trial']}"
            )
        travel = float(row["travel"])
        ratio = 1.0 if ref == 0.0 and travel == 0.0 else travel / ref
        grouped.setdefault(key, []).append(ratio)

    out = []
    for (dim, m, k, algo), ratios in sorted(grouped.items()):
        out.append(
            {
                "dim": dim,
                "m": m,
                "k": k,
                "algo": algo,
                "samples": len(ratios),
                "ratio_mean": f"{statistics.fmean(ratios):.6f}",
                "ratio_std": f"{statistics.stdev(ratios) if len(ratios) > 1 else 0.0:.6f}",
            }
        )
    return out


def write_savings_csv(rows: Iterable[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SAVINGS_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def run_stats(ms: Sequence[int], samples: int, base_seed: int) -> list[CycleStatistics]:
    return [cycle_statistics(m, samples, stable_seed(base_seed, m, "stats")) for m in ms]


def write_stats_csv(stats: Iterable[CycleStatistics], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CycleStatistics.CSV_COLUMNS)
        for record in stats:
            writer.writerow(record.csv_row())
