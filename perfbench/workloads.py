"""Workloads: the operations of one round, generated from the seed.

An operation plans one instance with one planner at one (k, c_p, c_t),
prices the plan with ``evaluate_cost`` and validates it with
``simulate``, like one row of ``latticeswap bench``.  A round is a fixed
list of operations; a run repeats whole rounds, so every run attempts
the same operations in the same proportions.

Instances are random placements drawn with the benchmark's own
generator, in two steps.  The cycle type (the multiset of cycle lengths)
of instance ``i`` of an ``m``-cell board is drawn as for a uniformly
random permutation, but from a generator that does not depend on the
seed; the seed then draws a uniformly random placement with that cycle
type.  Every seed therefore runs the same mix of cycle types, which fixes
the work the buffer assignment and the merge do, while the positions of
the cycles, and with them the geometry every planner sees, are new for
each seed.  Without this, the few largest cycles of each seed's boards
decide most of a run's time and memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from hashlib import blake2b

from latticeswap import (
    Arrangement,
    CostParams,
    Lattice,
    MctsConfig,
    plan_cycle_switching,
    plan_mcts,
    plan_multi_buffer_dp,
    plan_optimal,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
)

MCTS_BUDGET = 64  # rollouts per committed action


def derive(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def cycle_type(workload: str, m: int, index: int) -> list[int]:
    """Cycle lengths of a uniformly random permutation of m objects, drawn
    independently of the seed: the cycle through a fixed object has a
    length uniform on 1..r when r objects remain."""
    rng = random.Random(derive("cycle-type", workload, m, index))
    lengths = []
    while m:
        length = rng.randint(1, m)
        lengths.append(length)
        m -= length
    return lengths


def board(seed: int, workload: str, dims: tuple[int, ...], index: int) -> Arrangement:
    """Instance ``index`` of a board shape: its cycle type, at cells drawn from the seed."""
    m = math.prod(dims)
    cells = list(range(1, m + 1))
    random.Random(derive(seed, workload, dims, index)).shuffle(cells)
    placement = [0] * m
    at = 0
    for length in cycle_type(workload, m, index):
        chain = cells[at : at + length]
        at += length
        for j, cell in enumerate(chain):
            placement[cell - 1] = chain[(j + 1) % length]  # the object here belongs in the next cell
    return Arrangement(Lattice(dims), tuple(placement))


@dataclass(frozen=True)
class Op:
    algo: str
    arrangement: Arrangement
    k: int = 1
    cp: float = 1.0
    ct: float = 1.0
    instance: int = 0  # index of the arrangement within the round
    mcts_seed: int = 0

    @property
    def label(self) -> str:
        dims = "x".join(str(d) for d in self.arrangement.lattice.dims)
        weights = "" if (self.cp, self.ct) == (1.0, 1.0) else f" ct={self.ct:g}"
        return f"{self.algo} {dims} k={self.k}{weights}"


def plan(op: Op):
    """The one-call planner of an operation."""
    arr = op.arrangement
    if op.algo == "switch":
        return plan_cycle_switching(arr)
    if op.algo == "2d-greedy":
        return plan_single_buffer_2d(arr)
    if op.algo == "exact":
        return plan_single_buffer_exact(arr)
    if op.algo == "dp":
        return plan_multi_buffer_dp(arr, op.k)
    if op.algo == "opt":
        return plan_optimal(arr, op.k)
    if op.algo == "mcts":
        return plan_mcts(
            arr, op.k, CostParams(op.cp, op.ct), MctsConfig(budget=MCTS_BUDGET, seed=op.mcts_seed)
        )
    raise ValueError(f"unknown planner {op.algo!r}")


UNIT = 1.0, 1.0  # c_p, c_t

# name -> (boards of each shape per round, ((dims, ((algo, k, c_p, c_t), ...)), ...))
WORKLOADS = {
    "dp-1d": (
        27,
        tuple(((m,), (("dp", 2, *UNIT), ("dp", 3, *UNIT))) for m in (150, 200))
        + (((300,), (("dp", 2, *UNIT),)),),
    ),
    "dp-2d": (9, (((14, 14), (("dp", 4, *UNIT), ("dp", 5, *UNIT))),)),
    "switch-large": (
        5,
        tuple(((m,), (("switch", 1, *UNIT),)) for m in (5000, 10000, 20000))
        + (((100, 100), (("2d-greedy", 1, *UNIT),)),) * 3,
    ),
    "mcts-small": (48, (((20,), (("mcts", 2, 1.0, 1.0), ("mcts", 2, 1.0, 1e5))),)),
    "exact-small": (
        380,
        tuple(((m,), (("exact", 1, *UNIT), ("opt", 2, *UNIT), ("opt", 3, *UNIT))) for m in (8, 9)),
    ),
}


def round_ops(name: str, seed: int) -> list[Op]:
    """``count`` boards of each shape, each run through its (algo, k, c_p, c_t) list."""
    count, shapes = WORKLOADS[name]
    ops = []
    instance = 0
    for _ in range(count):
        for dims, configs in shapes:
            arr = board(seed, name, dims, instance)
            for algo, k, cp, ct in configs:
                ops.append(Op(algo, arr, k, cp, ct, instance, derive(seed, name, instance, k, ct)))
            instance += 1
    return ops


# Warm-up boards by dimension: adjacent pairs swapped, the same for every seed,
# so set-up time does not depend on how hard a seed's boards are.
WARMUP = {1: ((8,), (2, 1, 4, 3, 6, 5, 8, 7)), 2: ((3, 3), (2, 1, 4, 3, 6, 5, 8, 7, 9))}


def warmup_op(name: str) -> Op:
    """A small untimed operation with the workload's first planner."""
    dims, configs = WORKLOADS[name][1][0]
    algo, k, cp, ct = configs[0]
    small, placement = WARMUP[len(dims)]
    return Op(algo, Arrangement(Lattice(small), placement), k, cp, ct)
