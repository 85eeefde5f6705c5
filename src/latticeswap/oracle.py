"""Exact planners for small instances.

``plan_optimal`` finds the cheapest plan among those using the fewest
pick-n-swap operations, for any buffer count; with travel and operation
costs both positive this is the planner of record for small instances.

``plan_optimal_unrestricted`` searches a wider space where objects may
also be parked at arbitrary unresolved cells and operations need not be
swap-minimal, trading operations against travel under arbitrary cost
weights.  It exists to sanity-check the swap-minimal planners and is
only practical for a handful of cells.

Both searches run on the one A* loop in ``search``: ``plan_optimal``
through ``min_swap_astar``, the unrestricted search with the package's
one state kernel (``search.enumerate_actions`` and
``search.apply_action``, on scope positions) as its successor function.
Its scope is every cell of the board, so position ``p`` is cell
``p + 1``.  The unrestricted search also shares the swap-minimal
search's leg table (``search.leg_table``), bound and goal test: its
step costs read the table, and its bound is ``c_p * unresolved + c_t *
travel``, where every unresolved cell needs one more operation and the
travel bound is the cut-flow bound ``search.state_bound``, on the row
or on a board's two axis projections, which holds for any k-buffer
plan.  Both planners return through ``plan.bracket``, with buffer
slots from ``search.assign_buffers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from .errors import InvalidConfig, SizeLimitExceeded
from .lattice import Arrangement, nontrivial_cycles
from .plan import CostParams, Plan, bracket
from .search import (
    SearchLimits,
    _astar,
    apply_action,
    assign_buffers,
    enumerate_actions,
    goal_test,
    label_actions,
    leg_table,
    min_swap_astar,
    scope_contents,
    state_bound,
)

K_CAP = 6
UNRESTRICTED_M_CAP = 8
UNRESTRICTED_K_CAP = 2


@dataclass(frozen=True)
class OracleLimits(SearchLimits):
    """The exact-search limits with the oracle's smaller scope cap.

    ``plan_optimal`` builds these from its ``timeout_s`` and hands them
    to ``min_swap_astar``.  The buffer and board caps are constants:
    ``K_CAP`` buffers for ``plan_optimal``, and ``UNRESTRICTED_M_CAP``
    cells and ``UNRESTRICTED_K_CAP`` buffers for the unrestricted search.
    """

    size_cap: int = 12


def plan_optimal(start: Arrangement, k: int = 1, timeout_s: float = OracleLimits.timeout_s) -> Plan:
    """Cheapest-travel plan among the swap-minimal plans, k buffers."""
    if k > K_CAP:
        raise SizeLimitExceeded(f"k={k} exceeds the oracle cap of {K_CAP}")
    limits = OracleLimits(timeout_s=timeout_s)
    actions = min_swap_astar(start.lattice, nontrivial_cycles(start), k, limits)
    return bracket(actions, start.lattice, assign_buffers(actions, k))


def plan_optimal_unrestricted(
    start: Arrangement,
    k: int = 1,
    params: CostParams = CostParams(),
    timeout_s: float = OracleLimits.timeout_s,
) -> Plan:
    """A* over the unrestricted action space, minimizing total cost.

    Exponential in every direction, so capped to tiny instances; raises
    PlanningTimeout once the search outlives ``timeout_s``.
    """
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    lattice = start.lattice
    if lattice.m > UNRESTRICTED_M_CAP:
        raise SizeLimitExceeded(
            f"m={lattice.m} exceeds the unrestricted-search cap of {UNRESTRICTED_M_CAP}"
        )
    if k > UNRESTRICTED_K_CAP:
        raise SizeLimitExceeded(f"k={k} exceeds the unrestricted-search cap of {UNRESTRICTED_K_CAP}")
    cells = tuple(range(1, lattice.m + 1))
    n = len(cells)
    goal = tuple(range(n))
    legs = leg_table(lattice, cells)
    reach = state_bound(lattice, cells, k)

    def heuristic(state) -> float:
        return params.c_p * sum(map(ne, state[2], goal)) + params.c_t * reach(state)

    def expand(state):
        p, held, contents = state
        row = legs[p]
        for act in enumerate_actions(contents, held, p, k):
            nc, nh = apply_action(contents, held, act, n)
            yield (act[0], nh, nc), params.c_p + params.c_t * row[act[0]], act

    root = (n, (), scope_contents(cells, dict(zip(cells, start.placement))))
    acts = _astar(root, expand, heuristic, goal_test(n), timeout_s)
    actions = label_actions(acts, cells)
    return bracket(actions, lattice, assign_buffers(actions, k))
