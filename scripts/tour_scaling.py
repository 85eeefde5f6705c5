"""Plan time of the one-buffer tours, and of ``dp`` built on them, by size.

Times one plan per (planner, input, size) and checks it with
``simulate``.  Rows of m cells are planned with ``switch`` and with
``dp`` at k = 2; square boards of the largest side s with s * s <= m
with ``2d-greedy`` and with ``dp`` at k = 2.  Each gets three inputs:

- ``random``: ``random_arrangement`` from a fixed seed;
- ``adjacent``: cells 2i - 1 and 2i swapped, so m // 2 two-cycles;
- ``one-group``: one cycle through the left half of the cells and the
  last cell, with two-cycles on the pairs of the right half, so the
  long carry to the last cell passes every one of them.

On rows ``switch`` grows about linearly with m; ``dp`` adds its merge
of the two buffers' tours, which grows faster on the random and
one-group rows.  On boards
``2d-greedy`` tests every cell of every untouched cycle at each carried
step, and picks each chain's entry by a pass over the untouched cycles,
so boards with many small cycles grow faster than linearly.  With the
default sizes it takes about 20 s on one core of a shared 2-core box.
"""

import argparse
import math
from time import perf_counter

from latticeswap import (
    Arrangement,
    Lattice,
    plan_cycle_switching,
    plan_multi_buffer_dp,
    plan_single_buffer_2d,
    random_arrangement,
    simulate,
)

SEED = 1


def adjacent(m):
    placement = list(range(1, m + 1))
    for i in range(0, m - 1, 2):
        placement[i], placement[i + 1] = placement[i + 1], placement[i]
    return placement


def one_group(m):
    half = m // 2
    placement = [*range(2, half + 1), m, *range(half + 1, m)]
    for c in range(half + 1, m - 1, 2):
        placement[c - 1], placement[c] = c + 1, c
    placement.append(1)
    return placement


INPUTS = {
    "random": lambda m: list(random_arrangement(m, SEED).placement),
    "adjacent": adjacent,
    "one-group": one_group,
}
PLANNERS = {
    1: (("switch", 1, plan_cycle_switching), ("dp k=2", 2, lambda arr: plan_multi_buffer_dp(arr, 2))),
    2: (("2d-greedy", 1, plan_single_buffer_2d), ("dp k=2", 2, lambda arr: plan_multi_buffer_dp(arr, 2))),
}


def plan_seconds(planner, arr, k):
    t0 = perf_counter()
    plan = planner(arr)
    elapsed = perf_counter() - t0
    if not simulate(plan, arr, k).valid:
        raise SystemExit(f"invalid plan on {arr.lattice.dims}")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", default="1000,2000,4000", help="comma-separated cell counts m")
    args = parser.parse_args()
    sizes = [int(m) for m in args.sizes.split(",")]
    plan_multi_buffer_dp(Arrangement.from_sequence([3, 4, 1, 2]), 2)  # the first merge imports numpy

    for ndim in (1, 2):
        shapes = [(m,) if ndim == 1 else (math.isqrt(m),) * 2 for m in sizes]
        header = "  ".join(f"{'x'.join(map(str, dims)):>9}" for dims in shapes)
        print(f"{'planner':<10} {'input':<10} {header}   (seconds per plan)")
        for name, k, planner in PLANNERS[ndim]:
            for label, make in INPUTS.items():
                times = []
                for dims in shapes:
                    arr = Arrangement(Lattice(dims), tuple(make(math.prod(dims))))
                    times.append(plan_seconds(planner, arr, k))
                print(f"{name:<10} {label:<10} " + "  ".join(f"{t:>9.3f}" for t in times))
        print()


if __name__ == "__main__":
    main()
