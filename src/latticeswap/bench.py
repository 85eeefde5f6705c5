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
import itertools
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Iterable, Sequence

from .errors import InvalidConfig, LatticeSwapError, MissingBaseline, PlanningTimeout
from .lattice import cycle_statistics, random_arrangement, CycleStatistics
from .mcts import MctsConfig, plan_mcts
from .multi_buffer import plan_multi_buffer_dp
from .oracle import plan_optimal
from .plan import CostParams, Instance, Plan, evaluate_cost, simulate
from .single_buffer import (
    plan_cycle_following,
    plan_cycle_switching,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
)

# The planner registry: name -> planner of (arrangement, k, settings).  The
# settings are the keywords of ``plan_instance``; each planner reads its own.
PLANNERS: dict[str, Callable[..., Plan]] = {
    "follow": lambda arr, k, **_: plan_cycle_following(arr),
    "switch": lambda arr, k, **_: plan_cycle_switching(arr),
    "exact": lambda arr, k, timeout_s, **_: plan_single_buffer_exact(arr, timeout_s),
    "2d-greedy": lambda arr, k, **_: plan_single_buffer_2d(arr),
    "dp": lambda arr, k, timeout_s, **_: plan_multi_buffer_dp(arr, k, timeout_s),
    "mcts": lambda arr, k, cp, ct, timeout_s, budget, seed, **_: plan_mcts(
        arr, k, CostParams(cp, ct), MctsConfig(budget=budget, seed=seed), timeout_s
    ),
    "opt": lambda arr, k, timeout_s, **_: plan_optimal(arr, k, timeout_s),
}

ALGORITHMS = tuple(PLANNERS)

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
    if m_nominal < 1:
        raise InvalidConfig(f"board size must be at least 1 cell, got m={m_nominal}")
    if dim == 1:
        return (m_nominal,)
    if dim == 2:
        side = math.isqrt(m_nominal)
        if side * side < m_nominal:
            side += 1
        return (side, side)
    raise InvalidConfig(f"dim must be 1 or 2, got {dim}")


def build_instance(dim: int, m_nominal: int, base_seed: int, trial: int, k: int) -> Instance:
    dims = board_dims(dim, m_nominal)
    m = math.prod(dims)
    seed = instance_seed(base_seed, m_nominal, trial)
    return Instance(random_arrangement(m, seed, dims), k=k, seed=seed)


@dataclass(frozen=True)
class BenchCase:
    """One sweep case.  Its defaults for ``cp``, ``ct``, ``timeout_s``
    and ``budget`` are also those of ``plan_instance`` and the ``cli``."""

    dim: int
    m: int  # nominal; 2D boards may round up
    k: int
    algo: str
    trial: int
    cp: float = CostParams.c_p
    ct: float = CostParams.c_t
    timeout_s: float = 60.0
    budget: int = MctsConfig.budget


def sweep_cases(
    dims: Sequence[int],
    ms: Sequence[int],
    ks: Sequence[int],
    algos: Sequence[str],
    trials: int,
    **settings,
) -> list[BenchCase]:
    """Every (dim, m, k, algo, trial) case; ``settings`` are the
    ``BenchCase`` fields ``cp``, ``ct``, ``timeout_s`` and ``budget``."""
    for algo in algos:
        if algo not in PLANNERS:
            raise InvalidConfig(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    return [
        BenchCase(dim, m, k, algo, trial, **settings)
        for dim in dims
        for m in ms
        for k in ks
        for algo in algos
        for trial in range(trials)
    ]


def plan_instance(
    instance: Instance,
    algo: str,
    *,
    cp: float = BenchCase.cp,
    ct: float = BenchCase.ct,
    timeout_s: float = BenchCase.timeout_s,
    budget: int = BenchCase.budget,
    seed: int = 0,
) -> Plan:
    """Plan an instance with the registered planner ``algo``.

    ``timeout_s`` is the one setting of ``exact``, ``dp`` and ``opt``,
    passed the same way to each: it bounds each of their exact searches,
    and the whole of ``mcts``; ``cp``/``ct``, ``budget`` and ``seed``
    configure ``mcts``.  The other planners take no settings.  Every
    planner needs at least one buffer, including those that use just
    one.
    """
    if algo not in PLANNERS:
        raise InvalidConfig(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if instance.k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={instance.k}")
    return PLANNERS[algo](
        instance.arrangement, instance.k, cp=cp, ct=ct, timeout_s=timeout_s, budget=budget, seed=seed
    )


def run_case(case: BenchCase, base_seed: int) -> dict:
    """One sweep row.  A package error, bad sizes included, spoils this
    row only: it is recorded in ``error`` and the sweep goes on."""
    row = dict.fromkeys(RESULT_COLUMNS, "")
    row.update(
        dim=case.dim, m=case.m, k=case.k, algo=case.algo, cp=case.cp, ct=case.ct, trial=case.trial,
        seed=instance_seed(base_seed, case.m, case.trial), wall_ms=0, timeout=1, valid=0,
    )
    try:
        instance = build_instance(case.dim, case.m, base_seed, case.trial, case.k)
    except LatticeSwapError as exc:
        row.update(timeout=0, error=type(exc).__name__)
        return row
    arr = instance.arrangement
    row["m"] = arr.m
    seed_mcts = rollout_seed(base_seed, case.m, case.trial, case.k, case.algo)
    begin = time.perf_counter()
    plan = None
    try:
        plan = plan_instance(
            instance, case.algo, cp=case.cp, ct=case.ct, timeout_s=case.timeout_s,
            budget=case.budget, seed=seed_mcts,
        )
    except PlanningTimeout as exc:
        row["error"] = type(exc).__name__
    except LatticeSwapError as exc:
        # Any other package error, a size refusal included, spoils this
        # case only, not the sweep; it is not a timeout.
        row.update(timeout=0, error=type(exc).__name__)
    wall = time.perf_counter() - begin
    row["wall_ms"] = int(round(wall * 1000))
    if plan is None or wall > case.timeout_s:
        return row
    report = evaluate_cost(plan, arr.lattice, CostParams(case.cp, case.ct))
    row.update(
        swaps=report.swaps,
        travel=f"{report.travel:.6f}",
        total=f"{report.total:.6f}",
        timeout=0,
        valid=1 if simulate(plan, arr, case.k) else 0,
    )
    return row


def run_sweep(cases: Iterable[BenchCase], base_seed: int, workers: int = 1) -> list[dict]:
    # A forked pool starts all its workers at once, so start no more than there are cases.
    cases = list(cases)
    workers = min(workers, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_case, cases, itertools.repeat(base_seed)))
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
