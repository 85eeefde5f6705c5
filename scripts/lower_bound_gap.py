"""How far each planner travels above the cut-flow lower bound LB_k.

On fixed-seed random rows (row ``i`` of m cells is
``random_arrangement(m, seed + i)``), plans each row with every planner
that fits its size and prints the mean and largest travel / LB_k per
(m, k, planner).  The one-buffer planners (``follow``, ``switch``,
``exact``) are listed at k = 1 only, and ``opt`` only where the row fits
its scope cap.  It also prints on how many rows the switching tour
travels exactly LB_1.  The ``rows`` column counts the rows in the
means: ``mcts`` at a low budget can give up (SearchGaveUp) before it
reaches the goal, and where it gives up on every row the mean and max
read ``-``.  A second section does the same on fixed-seed 3x3 and 3x4
boards (``random_arrangement(m, seed + i, dims)``, ``--rows`` each),
where LB_k is the cut-flow bound on the axis projections: ``2d-greedy``
and ``exact`` at k = 1, ``dp`` and ``opt`` at k = 2 and 3.  With the
default row count it takes a few seconds on one core.
"""

import argparse
import statistics

from latticeswap.bench import PLANNERS
from latticeswap.errors import SearchGaveUp
from latticeswap.lattice import nontrivial_cycles, random_arrangement
from latticeswap.oracle import OracleLimits
from latticeswap.plan import travel_distance
from latticeswap.search import travel_lower_bound

ONE_BUFFER = ("follow", "switch", "exact")
K_BUFFER = ("dp", "opt", "mcts")
SIZES = (8, 12, 16, 20)
BOARDS = ((3, 3), (3, 4))
BOARD_ALGOS = {1: ("2d-greedy", "exact"), 2: ("dp", "opt"), 3: ("dp", "opt")}
SEED = 1000
MCTS_BUDGET = 16


def plan_travel(algo, arr, k):
    """The travel of ``algo``'s plan, or None when it gives up."""
    try:
        plan = PLANNERS[algo](arr, k, cp=1.0, ct=1.0, timeout_s=600.0, budget=MCTS_BUDGET, seed=0)
    except SearchGaveUp:
        return None
    return travel_distance(plan, arr.lattice)


def ratio_line(size, k, algo, rows, bounds):
    """One line of mean and largest travel / LB_k; returns the travels."""
    travels = [plan_travel(algo, arr, k) for arr in rows]
    ratios = [t / b for t, b in zip(travels, bounds) if b > 0 and t is not None]
    mean, top = (
        (f"{statistics.fmean(ratios):7.4f}", f"{max(ratios):7.4f}") if ratios else ("-", "-")
    )
    print(f"{size:>5} {k:>2}  {algo:<9} {mean:>7} {top:>7} {len(ratios):>4}")
    return travels


def lower_bounds(rows, k):
    return [travel_lower_bound(arr.lattice, nontrivial_cycles(arr), k) for arr in rows]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20, help="rows per size")
    args = parser.parse_args()

    print(
        f"rows: random_arrangement(m, {SEED} + i), i < {args.rows}; "
        f"mcts budget {MCTS_BUDGET}, seed 0"
    )
    print(f"{'m':>5} {'k':>2}  {'planner':<9} {'mean':>7} {'max':>7} {'rows':>4}")
    for m in SIZES:
        rows = [random_arrangement(m, SEED + i) for i in range(args.rows)]
        for k in (1, 2, 3):
            bounds = lower_bounds(rows, k)
            algos = (ONE_BUFFER if k == 1 else ()) + K_BUFFER
            for algo in algos:
                if algo == "opt" and m > OracleLimits.size_cap:
                    continue
                travels = ratio_line(m, k, algo, rows, bounds)
                if algo == "switch":
                    met = sum(t == b for t, b in zip(travels, bounds))
        print(f"m={m}: switch travels exactly LB_1 on {met} of {len(rows)} rows")

    print(f"boards: random_arrangement(m, {SEED} + i, dims), i < {args.rows}")
    print(f"{'dims':>5} {'k':>2}  {'planner':<9} {'mean':>7} {'max':>7} {'rows':>4}")
    for dims in BOARDS:
        rows = [random_arrangement(dims[0] * dims[1], SEED + i, dims) for i in range(args.rows)]
        for k, algos in BOARD_ALGOS.items():
            bounds = lower_bounds(rows, k)
            for algo in algos:
                ratio_line("x".join(map(str, dims)), k, algo, rows, bounds)


if __name__ == "__main__":
    main()
