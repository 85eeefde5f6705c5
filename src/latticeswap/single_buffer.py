"""Single-buffer planners: cycle following, cycle switching, exact.

Cycle following resolves one cycle at a time and returns to pick up the
next, which wastes travel whenever cycles overlap.  Cycle switching
keeps the chains but, whenever a leg passes over a cell of a cycle
nobody has touched, swaps the held object into that cell, resolves the
new cycle, and recovers the parked object on the way out; the swap
count is unchanged.

Plans for span-disjoint groups are combined by splicing rather than
concatenation: the inner plan is inserted right after the composed
plan's first visit to its rightmost cell, with the object held at that
moment parked at the entry of each inner chain and recovered when that
chain closes.  Relative to concatenation this saves exactly twice the
distance from the rest cell to that rightmost cell, no matter what
either plan looks like inside.

Cost per plan, on n cells: ``switch`` on a row is O(n).  Each carried
step finds its stop with a cursor that only moves right (see
:func:`greedy_switch_actions`), and :func:`compose_group_actions`
splices all groups in one pass.  ``2d-greedy`` tests every cell of
every untouched cycle at each carried step and picks each chain's
entry by a pass over the untouched cycles, so on a board with many
small cycles it grows faster than linearly; once no cycle is untouched
it costs O(1) per step.  Actions are :class:`~latticeswap.plan.PickNSwap`
named tuples, unpacked as ``cell, deposit, pick`` in the hot loops.
"""

from __future__ import annotations

from itertools import chain
from typing import Literal, Sequence

from .errors import InvalidPlanStructure, PlanningTimeout, SizeLimitExceeded
from .lattice import (
    EMPTY,
    Arrangement,
    Cycle,
    Lattice,
    group_cycles,
    leg_function,
    nontrivial_cycles,
    resident_map,
)
from .plan import PickNSwap, Plan, bracket
from .search import SearchLimits, min_swap_astar

ON_SEGMENT_SLACK = 1e-9
DETOUR_SLACK_2D = 1.0


def cycle_following_actions(cycles: Sequence[Cycle]) -> list[PickNSwap]:
    """Resolve each cycle on its own: enter at the smallest cell, chase
    the chain until it closes, move on to the next cycle."""
    actions: list[PickNSwap] = []
    content = resident_map(cycles)
    for cyc in cycles:
        if cyc.trivial:
            continue
        entry = min(cyc.cells)
        held = content[entry]
        content[entry] = EMPTY
        actions.append(PickNSwap(entry, EMPTY, held))
        while held != EMPTY:
            picked = content[held]
            actions.append(PickNSwap(held, held, picked))
            content[held] = held
            held = picked
    return actions


def plan_cycle_following(start: Arrangement) -> Plan:
    cycles = nontrivial_cycles(start)
    return bracket(cycle_following_actions(cycles), start.lattice)


def greedy_switch_actions(
    cycles: Sequence[Cycle],
    lattice: Lattice,
    detour_slack: float = ON_SEGMENT_SLACK,
    order: Literal["canonical", "nearest"] = "canonical",
) -> list[PickNSwap]:
    """Cycle following with opportunistic switching.

    Chains are entered at their default entry (the goal cell of the
    cycle's smallest label), in the given order ("canonical" keeps the
    smallest-label order, "nearest" always enters the cycle whose entry
    is closest to the robot).  While carrying an object toward its goal
    the tour stops at a cell of an untouched cycle whenever visiting it
    adds less than ``detour_slack`` travel, parking the carried object
    there and resolving the new cycle before resuming.

    On a row with ``0 < detour_slack <= 2`` a cell passes the detour
    test exactly when it lies strictly between the robot and the goal.
    Starting from the rest cell at the left end, the tour then never
    passes a cell of an untouched cycle, so all such cells lie right of
    every cell visited so far.  The next stop is the nearer of the goal
    and the leftmost such cell, found by a cursor that only moves right,
    and "nearest" enters the same cycle as "canonical": the tour costs
    O(n) on a span of n cells.  Elsewhere every cell of every untouched cycle is
    tested at each carried step.
    """
    work = [c for c in cycles if not c.trivial]
    if not work:
        return []
    dist = leg_function(lattice.dims)
    entries = [min(c.cells) for c in work]
    # Lookups are lists over the cells' span, from cell base + 1 at slot
    # 1; the last slot is a sentinel.
    base = min(entries) - 1
    size = max(max(c.cells) for c in work) - base + 2
    content = [EMPTY] * size
    cycle_at = [-1] * size
    for j, c in enumerate(work):
        objs = c.objects
        for cell, obj in zip(objs, objs[1:] + objs[:1]):
            content[cell - base] = obj
            cycle_at[cell - base] = j
    on_row = lattice.ndim == 1 and 0 < detour_slack <= 2
    if on_row:
        # The cells of untouched cycles, and the sentinel that ends the cursor.
        live = bytearray(c >= 0 for c in cycle_at)
        live[-1] = 1
        frontier = 0
    untouched = set(range(len(work)))

    actions: list[PickNSwap] = []
    pos = lattice.rest
    held = EMPTY
    queue = sorted(untouched, key=entries.__getitem__)
    cursor = 0
    while untouched:
        if order == "nearest" and not on_row:
            j = min(untouched, key=lambda j: (dist(pos, entries[j]), entries[j]))
        else:
            while queue[cursor] not in untouched:
                cursor += 1
            j = queue[cursor]
        target = entries[j]
        while True:
            if held != EMPTY:
                target = held
                if untouched and on_row:
                    while not live[frontier]:
                        frontier += 1
                    target = min(target, frontier + base)
                elif untouched:
                    direct = dist(pos, target)
                    en_route = [
                        s
                        for i in untouched
                        for s in work[i].cells
                        if dist(pos, s) + dist(s, target) - direct < detour_slack
                    ]
                    if en_route:
                        target = min(en_route, key=lambda s: (dist(pos, s), s))
            slot = target - base
            picked = content[slot]
            actions.append(PickNSwap(target, held, picked))
            content[slot] = held
            j = cycle_at[slot]
            if j in untouched:
                untouched.remove(j)
                if on_row:
                    for cell in work[j].cells:
                        live[cell - base] = 0
            pos, held = target, picked
            if held == EMPTY:
                break
    return actions


def greedy_tour_actions(cycles: Sequence[Cycle], lattice: Lattice) -> list[PickNSwap]:
    """The greedy tour for the board's dimension: canonical order with
    on-segment switching on a row, nearest-first with ``DETOUR_SLACK_2D``
    on a 2D board."""
    if lattice.ndim == 1:
        return greedy_switch_actions(cycles, lattice)
    return greedy_switch_actions(cycles, lattice, DETOUR_SLACK_2D, order="nearest")


def _hand_after(actions: Sequence[PickNSwap]) -> int:
    """Hand content after a one-buffer action list, empty-handed before
    it: set by its last action that is not a no-op."""
    for _, deposit, pick in reversed(actions):
        if pick != EMPTY:
            return pick
        if deposit != EMPTY:
            return EMPTY
    return EMPTY


def _park_carried(inner: Sequence[PickNSwap], carried: int) -> list[PickNSwap]:
    """``inner`` with ``carried`` parked at the entry of each chain and
    recovered when that chain closes."""
    if carried == EMPTY:
        raise InvalidPlanStructure("outer plan holds nothing at its rightmost cell")
    out = []
    held = EMPTY
    opening = True
    for a in inner:
        cell, deposit, pick = a
        if opening and deposit != EMPTY:
            raise InvalidPlanStructure("inner chain does not begin with a bare pick")
        if pick != EMPTY:
            held = pick
        elif deposit != EMPTY:
            held = EMPTY
        if held == EMPTY:
            out.append(PickNSwap(cell, deposit, carried))
            opening = True
        elif opening:
            out.append(PickNSwap(cell, carried, pick))
            opening = False
        else:
            out.append(a)
    return out


def splice_actions(outer: list[PickNSwap], inner: list[PickNSwap]) -> list[PickNSwap]:
    """Insert an inner group's action sequence into the outer plan mid-carry.

    The insertion point is the outer plan's first action at its
    rightmost cell; the object in hand there is parked at the entry of
    each inner chain and recovered when that chain closes, so capacity
    one is never exceeded and the swap count is the sum of the parts.
    """
    return compose_group_actions([outer, inner])


def compose_group_actions(per_group: Sequence[list[PickNSwap]]) -> list[PickNSwap]:
    """Splice left-to-right group action sequences into one sequence.

    The same as folding :func:`splice_actions` over the groups, in one
    pass.  The plan so far is kept as a head, which ends at the first
    visit to its rightmost cell with ``carried`` in hand there, then
    the latest block, then a stack of tail pieces.  Before the next
    block goes in after the head, the latest block joins the tails
    whole or, when it reaches further right, gives the head its part up
    to its own first visit to its rightmost cell.  The last block is
    never split, so a single group is copied as it is.
    """
    head: list[PickNSwap] = []
    tails: list[Sequence[PickNSwap]] = []
    latest: Sequence[PickNSwap] = ()
    rightmost = carried = EMPTY
    for actions in per_group:
        if not actions:
            continue
        if not latest:
            latest = actions
            continue
        cells = [a.cell for a in latest]
        top = max(cells)
        if head and top <= rightmost:
            tails.append(latest)
        else:
            at = cells.index(top) + 1
            head.extend(latest[:at])
            tails.append(latest[at:])
            carried = _hand_after(head)
            rightmost = top
        latest = _park_carried(actions, carried)
    head.extend(latest)
    head.extend(chain.from_iterable(reversed(tails)))
    return head


def plan_cycle_switching(start: Arrangement) -> Plan:
    """Greedy cycle-switching plan; groups are planned and spliced."""
    lattice = start.lattice
    groups = group_cycles(nontrivial_cycles(start), lattice)
    per_group = [greedy_switch_actions(g.cycles, lattice) for g in groups]
    return bracket(compose_group_actions(per_group), lattice)


def plan_single_buffer_2d(start: Arrangement) -> Plan:
    """Greedy tour for 2D boards: nearest untouched cycle first, with
    switching into cycles whose cells sit within ``DETOUR_SLACK_2D``."""
    cycles = nontrivial_cycles(start)
    actions = greedy_switch_actions(cycles, start.lattice, DETOUR_SLACK_2D, order="nearest")
    return bracket(actions, start.lattice)


def exact_group_actions(
    cycles: Sequence[Cycle], lattice: Lattice, limits: SearchLimits = SearchLimits()
) -> tuple[list[PickNSwap], bool]:
    """Cheapest swap-minimal actions for one group of cycles.

    Falls back to ``greedy_tour_actions`` (flagged) when the group is
    too large for the exact search or the search runs out of time.
    """
    try:
        return min_swap_astar(lattice, cycles, 1, limits), False
    except (SizeLimitExceeded, PlanningTimeout):
        return greedy_tour_actions(cycles, lattice), True


def groupwise_exact_actions(
    cycles: Sequence[Cycle], lattice: Lattice, limits: SearchLimits = SearchLimits()
) -> tuple[list[PickNSwap], bool]:
    """``exact_group_actions`` per span-disjoint group, spliced left to
    right; the flag is set when any group fell back to the greedy tour."""
    per_group = []
    fallback = False
    for g in group_cycles(cycles, lattice):
        actions, degraded = exact_group_actions(g.cycles, lattice, limits)
        fallback = fallback or degraded
        per_group.append(actions)
    return compose_group_actions(per_group), fallback


def plan_single_buffer_exact(start: Arrangement, limits: SearchLimits = SearchLimits()) -> Plan:
    """Cheapest single-buffer plan, solved per span-disjoint group.

    Groups beyond the search cap degrade to the greedy tour and mark
    the plan as a fallback.
    """
    actions, fallback = groupwise_exact_actions(nontrivial_cycles(start), start.lattice, limits)
    return bracket(actions, start.lattice, fallback=fallback)
