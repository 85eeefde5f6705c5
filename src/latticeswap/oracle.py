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
through ``min_swap_astar``, the unrestricted search with the state
kernel below (``enumerate_actions`` and ``apply_action``) as its
successor function.  The unrestricted search also shares the swap-minimal
search's leg table and farthest-first lists (``search.leg_table``): its
step costs read the table, and its bound ``c_p * unresolved + c_t * far``
takes ``far`` from the first unresolved cell on the position's list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from .errors import SizeLimitExceeded
from .lattice import EMPTY, Arrangement, Lattice, nontrivial_cycles
from .plan import CostParams, PickNSwap, Plan, bookend
from .search import SearchLimits, _astar, assign_buffers, leg_table, min_swap_astar


@dataclass(frozen=True)
class OracleLimits:
    size_cap: int = 12
    k_cap: int = 6
    timeout_s: float = 600.0
    unrestricted_m_cap: int = 8
    unrestricted_k_cap: int = 2


def plan_optimal(
    start: Arrangement, k: int = 1, limits: OracleLimits = OracleLimits()
) -> Plan:
    """Cheapest-travel plan among the swap-minimal plans, k buffers."""
    if k > limits.k_cap:
        raise SizeLimitExceeded(f"k={k} exceeds the oracle cap of {limits.k_cap}")
    cycles = nontrivial_cycles(start)
    actions = min_swap_astar(
        start.lattice,
        cycles,
        k,
        SearchLimits(size_cap=limits.size_cap, timeout_s=limits.timeout_s),
    )
    be = bookend(start.lattice)
    return Plan(
        (be, *actions, be),
        buffer_of=(None, *assign_buffers(actions, k), None),
    )


def enumerate_actions(
    contents: tuple[int, ...],
    held: tuple[int, ...],
    pos: int,
    cells: tuple[int, ...],
    k: int,
    lattice: Lattice,
    range_prune: bool = False,
) -> list[PickNSwap]:
    """Every useful pick-n-swap available in the given hand/cell state.

    The space is pruned by two optimality-preserving rules: cells
    already showing their goal object are never touched, and when the
    hand holds a cell's goal object any action there deposits it.  With
    ``range_prune`` (1D rows only) actions are further restricted to
    the interval between the nearest held-object goals on either side
    of the robot, a heuristic reduction for samplers.
    """
    lo, hi = 1, lattice.m
    if range_prune and lattice.ndim == 1 and held:
        left = [g for g in held if g <= pos]
        right = [g for g in held if g >= pos]
        if left:
            lo = max(left)
        if right:
            hi = min(right)
    room = len(held) < k
    out: list[PickNSwap] = []
    for i, cell in enumerate(cells):
        if not lo <= cell <= hi:
            continue
        resident = contents[i]
        if resident == cell:
            continue
        if cell in held:
            # The goal object is in hand; the only sensible act here
            # deposits it, picking up the resident if there is one.
            if resident != EMPTY:
                out.append(PickNSwap(cell, cell, resident))
            else:
                out.append(PickNSwap(cell, cell, EMPTY))
            continue
        if resident != EMPTY:
            if room:
                out.append(PickNSwap(cell, EMPTY, resident))
            for h in held:
                out.append(PickNSwap(cell, h, resident))
        else:
            for h in held:
                out.append(PickNSwap(cell, h, EMPTY))
    return out


def apply_action(
    contents: tuple[int, ...],
    held: tuple[int, ...],
    action: PickNSwap,
    index: dict[int, int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    i = index[action.cell]
    nc = list(contents)
    nh = list(held)
    if action.pick != EMPTY:
        nc[i] = EMPTY
        nh.append(action.pick)
    if action.deposit != EMPTY:
        nc[i] = action.deposit
        nh.remove(action.deposit)
    nh.sort()
    return tuple(nc), tuple(nh)


def plan_optimal_unrestricted(
    start: Arrangement,
    k: int = 1,
    params: CostParams = CostParams(),
    limits: OracleLimits = OracleLimits(),
) -> Plan:
    """A* over the unrestricted action space, minimizing total cost.

    Exponential in every direction; capped to tiny instances.
    """
    lattice = start.lattice
    if lattice.m > limits.unrestricted_m_cap:
        raise SizeLimitExceeded(
            f"m={lattice.m} exceeds the unrestricted-search cap of {limits.unrestricted_m_cap}"
        )
    if k > limits.unrestricted_k_cap:
        raise SizeLimitExceeded(
            f"k={k} exceeds the unrestricted-search cap of {limits.unrestricted_k_cap}"
        )
    cells = tuple(range(1, lattice.m + 1))
    index = {cell: i for i, cell in enumerate(cells)}
    goal = cells
    rest = lattice.rest
    legs, far = leg_table(lattice, cells)
    home = len(cells)

    def heuristic(state) -> float:
        pos, _, contents = state
        p = index[pos]
        reach = legs[p][home]
        for i, bound in far[p]:
            if contents[i] != cells[i]:
                reach = max(bound, reach)
                break
        return params.c_p * sum(map(ne, contents, cells)) + params.c_t * reach

    def is_goal(state) -> bool:
        return state[2] == goal and not state[1]

    def expand(state):
        pos, held, contents = state
        row = legs[index[pos]]
        for action in enumerate_actions(contents, held, pos, cells, k, lattice):
            nc, nh = apply_action(contents, held, action, index)
            yield (action.cell, nh, nc), params.c_p + params.c_t * row[index[action.cell]], action

    actions = _astar((rest, (), start.placement), expand, heuristic, is_goal, limits.timeout_s)
    be = bookend(lattice)
    return Plan(
        (be, *actions, be),
        buffer_of=(None, *assign_buffers(actions, k), None),
    )
