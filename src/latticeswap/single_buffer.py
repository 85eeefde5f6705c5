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
"""

from __future__ import annotations

from typing import Literal, Sequence

from .errors import InvalidPlanStructure, PlanningTimeout, SizeLimitExceeded
from .lattice import (
    EMPTY,
    Arrangement,
    Cycle,
    Lattice,
    group_cycles,
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
    """
    work = [c for c in cycles if not c.trivial]
    if not work:
        return []
    content = resident_map(work)
    cycle_at = {cell: j for j, c in enumerate(work) for cell in c.cells}
    untouched = set(range(len(work)))
    dist = lattice.distance

    actions: list[PickNSwap] = []
    pos = lattice.rest
    held = EMPTY
    entries = {j: min(work[j].cells) for j in range(len(work))}
    queue = sorted(untouched, key=lambda j: entries[j])
    while untouched:
        if order == "nearest":
            j = min(untouched, key=lambda j: (dist(pos, entries[j]), entries[j]))
        else:
            j = next(i for i in queue if i in untouched)
        target = entries[j]
        while True:
            if held != EMPTY:
                target = held
                en_route = [
                    s
                    for i in untouched
                    for s in work[i].cells
                    if dist(pos, s) + dist(s, target) - dist(pos, target) < detour_slack
                ]
                if en_route:
                    target = min(en_route, key=lambda s: (dist(pos, s), s))
            picked = content[target]
            actions.append(PickNSwap(target, held, picked))
            content[target] = held
            untouched.discard(cycle_at[target])
            pos, held = target, picked
            if held == EMPTY:
                break
    return actions


def _held_after(actions: Sequence[PickNSwap]) -> list[int]:
    """Hand content after each action of a one-buffer action list."""
    held = EMPTY
    out = []
    for a in actions:
        if a.pick != EMPTY:
            held = a.pick
        elif a.deposit != EMPTY:
            held = EMPTY
        out.append(held)
    return out


def splice_actions(outer: list[PickNSwap], inner: list[PickNSwap]) -> list[PickNSwap]:
    """Insert an inner group's action sequence into the outer plan mid-carry.

    The insertion point is the outer plan's first action at its
    rightmost cell; the object in hand there is parked at the entry of
    each inner chain and recovered when that chain closes, so capacity
    one is never exceeded and the swap count is the sum of the parts.
    """
    if not outer:
        return list(inner)
    if not inner:
        return list(outer)
    rightmost = max(a.cell for a in outer)
    at = next(i for i, a in enumerate(outer) if a.cell == rightmost)
    carried = _held_after(outer[: at + 1])[-1]
    if carried == EMPTY:
        raise InvalidPlanStructure("outer plan holds nothing at its rightmost cell")

    rewritten = list(inner)
    hand = _held_after(inner)
    tree_start = 0
    for i, a in enumerate(rewritten):
        if i == tree_start:
            if a.deposit != EMPTY:
                raise InvalidPlanStructure("inner chain does not begin with a bare pick")
            rewritten[i] = PickNSwap(a.cell, carried, a.pick)
        if hand[i] == EMPTY:
            if a.pick != EMPTY:
                raise InvalidPlanStructure("inner chain does not end with a bare deposit")
            rewritten[i] = PickNSwap(a.cell, a.deposit, carried)
            tree_start = i + 1
    return outer[: at + 1] + rewritten + outer[at + 1 :]


def compose_group_actions(per_group: Sequence[list[PickNSwap]]) -> list[PickNSwap]:
    """Splice left-to-right group action sequences into one sequence."""
    composed: list[PickNSwap] = []
    for actions in per_group:
        composed = splice_actions(composed, actions)
    return composed


def cycle_group_switching(group_plans: Sequence[Plan], lattice: Lattice) -> Plan:
    """Combine single-buffer plans of span-disjoint groups by splicing.

    Plans must be ordered left to right and bracketed by rest bookends.
    The result costs the sum of the parts minus, for every splice,
    twice the distance from rest to the rightmost cell already covered.
    """
    stripped = []
    for plan in group_plans:
        actions = [a for a in plan.actions if not a.is_noop]
        if not actions:
            continue
        stripped.append(actions)
    fallback = any(p.fallback for p in group_plans)
    return bracket(compose_group_actions(stripped), lattice, fallback=fallback)


def plan_cycle_switching(start: Arrangement, detour_slack: float = ON_SEGMENT_SLACK) -> Plan:
    """Greedy cycle-switching plan; groups are planned and spliced."""
    lattice = start.lattice
    groups = group_cycles(nontrivial_cycles(start), lattice)
    per_group = [greedy_switch_actions(g.cycles, lattice, detour_slack) for g in groups]
    return bracket(compose_group_actions(per_group), lattice)


def plan_single_buffer_2d(start: Arrangement, detour_slack: float = DETOUR_SLACK_2D) -> Plan:
    """Greedy tour for 2D boards: nearest untouched cycle first, with
    switching into cycles whose cells sit within a small detour."""
    cycles = nontrivial_cycles(start)
    actions = greedy_switch_actions(cycles, start.lattice, detour_slack, order="nearest")
    return bracket(actions, start.lattice)


def exact_group_actions(
    cycles: Sequence[Cycle], lattice: Lattice, limits: SearchLimits = SearchLimits()
) -> tuple[list[PickNSwap], bool]:
    """Cheapest swap-minimal actions for one group of cycles.

    Falls back to the greedy switching tour (flagged) when the group is
    too large for the exact search or the search runs out of time.
    """
    try:
        return min_swap_astar(lattice, cycles, 1, limits), False
    except (SizeLimitExceeded, PlanningTimeout):
        slack = ON_SEGMENT_SLACK if lattice.ndim == 1 else DETOUR_SLACK_2D
        order = "canonical" if lattice.ndim == 1 else "nearest"
        return greedy_switch_actions(cycles, lattice, slack, order), True


def plan_single_buffer_exact(start: Arrangement, limits: SearchLimits = SearchLimits()) -> Plan:
    """Cheapest single-buffer plan, solved per span-disjoint group.

    Groups beyond the search cap degrade to the greedy tour and mark
    the plan as a fallback.
    """
    lattice = start.lattice
    groups = group_cycles(nontrivial_cycles(start), lattice)
    per_group = []
    fallback = False
    for g in groups:
        actions, degraded = exact_group_actions(g.cycles, lattice, limits)
        fallback = fallback or degraded
        per_group.append(actions)
    return bracket(compose_group_actions(per_group), lattice, fallback=fallback)
