"""Optimal search over the swap-minimal action space.

Every plan that solves an instance with the fewest pick-n-swap
operations has a rigid shape: each non-trivial cycle is acted on
exactly ``size + 1`` times, once per cell plus one extra visit to the
cell where the cycle is first touched.  The first touch either starts
a fresh chain (pick with nothing deposited) or parks an object carried
from another cycle; afterwards each held object is dropped at its goal
cell, picking up whatever sat there.  Parking is only ever useful into
a cycle that has not been touched yet, so the swap-minimal plans are
exactly the executions of the small action system below.

Because the swap count is fixed across this space, finding the best
swap-minimal plan reduces to minimizing travel.  ``min_swap_astar``
runs A* over (position, held objects, cell contents).  Its heuristic is
the cut-flow bound ``state_bound``, built from one axis bound,
``cut_bound``: every gap between two neighbouring coordinates is
crossed at least twice per ``k`` objects that must cross it, and at
least twice while an unresolved cell lies beyond it (one-object
robot-arm travel on a line is the setting of Atallah & Kosaraju, SIAM
J. Comput. 1988).  On a row it is ``cut_bound`` on the cells; on a
board it is ``cut_bound`` on the column and on the row coordinates,
combined as ``max(Lx, Ly, (Lx + Ly) / sqrt(2))``.
The bound at the start state, ``travel_lower_bound``, is LB_k, a
travel certificate for every plan on a row or a board.

The package's one (position, hand, contents) state kernel lives here,
on scope positions rather than cell labels: the n cells in scope are
``0..n-1`` in label order, ``n`` names both the rest cell and "no
object", and an object is named by its goal cell's position.
``actions_at`` lists the useful acts at one position as ``(position,
deposit, pick)`` triples, ``enumerate_actions`` collects them over the
unresolved positions, and ``apply_action`` is the one transition rule.
``min_swap_astar`` asks ``actions_at`` only about cells of untouched
cycles and adds the goal drops; the unrestricted oracle and ``plan_mcts``
use ``enumerate_actions``.  Three things keep a push cheap:

- ``leg_table`` computes every leg between two positions once per
  search, after one range check, and every step cost reads it.
- ``cut_bound`` takes one difference array over the gaps per state.
  Each position's gap index comes from a table built once per search,
  so on either axis of a board the state is read as it is, never
  renamed or copied.
- A state also carries a bitmask of the cycles already touched.  A
  touched cycle never shows its original residents again, so the mask
  is a function of the contents and the states are the same as without
  it; it just replaces a scan of every cycle's cells per expansion.

``_astar`` is the package's one A* loop: ``min_swap_astar`` and the
oracle's unrestricted search both run on it, each supplying its own
successor function.  It reopens a state whose cost improves, so an
admissible bound that is not consistent still gives an optimal plan,
and among states of equal ``g + h`` it expands the deeper one first,
which walks a tight bound's plateaus depth-first.
Both searches take their legs from ``leg_table``, their bound from
``state_bound`` and their goal test from ``goal_test``, which
``plan_mcts`` uses too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Hashable, Iterable, Sequence

from .errors import InvalidConfig, PlanningTimeout, SizeLimitExceeded
from .lattice import EMPTY, Cycle, Lattice, coordinate_table, leg_function, resident_map
from .plan import PickNSwap


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the exact searches.

    ``size_cap`` bounds the number of cells in scope; the state space
    grows too fast past a dozen or so cells for an interactive tool.
    ``timeout_s`` aborts a search that the cap let through anyway.
    """

    size_cap: int = 14
    timeout_s: float = 600.0


DEADLINE_CHECK_EVERY = 1024  # expansions between wall-clock checks

Act = tuple[int, int, int]  # (position, deposit, pick) on scope positions


def _astar(
    start: Hashable,
    expand: Callable[[Hashable], Iterable[tuple[Hashable, float, Any]]],
    heuristic: Callable[[Hashable], float],
    is_goal: Callable[[Hashable], bool],
    timeout_s: float,
) -> list:
    """Cheapest action path from ``start`` to a goal state.

    ``expand(state)`` yields ``(next_state, step_cost, action)``.  Ties
    in ``g + h`` go to the larger ``g``, then to the state pushed first,
    so a tight bound's plateau of equal ``f`` is walked depth-first, not
    swept breadth-first.  A state is re-pushed only when its cost
    improves by more than 1e-12, and a popped entry whose stored cost
    lies more than 1e-9 above the state's best is stale.
    Raises PlanningTimeout once the search outlives ``timeout_s``; the
    clock is read at the first expansion and every
    ``DEADLINE_CHECK_EVERY`` expansions after it.
    """
    best_g: dict = {start: 0.0}
    parent: dict = {}
    frontier: list = [(heuristic(start), 0.0, 0, 0.0, start)]
    counter = 0
    expanded = 0
    deadline = time.monotonic() + timeout_s
    while frontier:
        _, _, _, entry_g, state = heappop(frontier)
        g = best_g[state]
        if entry_g > g + 1e-9:
            continue
        if is_goal(state):
            actions = []
            while state in parent:
                state, action = parent[state]
                actions.append(action)
            actions.reverse()
            return actions
        expanded += 1
        if expanded % DEADLINE_CHECK_EVERY == 1 and time.monotonic() >= deadline:
            raise PlanningTimeout(f"search gave up after {timeout_s:.0f}s")
        for nxt, step, action in expand(state):
            ng = g + step
            old = best_g.get(nxt)
            if old is not None and old <= ng + 1e-12:
                continue
            best_g[nxt] = ng
            parent[nxt] = (state, action)
            counter += 1
            heappush(frontier, (ng + heuristic(nxt), -ng, counter, ng, nxt))
    raise RuntimeError("search exhausted without reaching the goal; this is a bug")


def leg_table(lattice: Lattice, cells: Sequence[int]) -> list[list[float]]:
    """Legs between scope positions: ``legs[p][q]`` is ``lattice.distance``
    from position ``p`` to position ``q``, where position ``p < n`` is
    ``cells[p]`` and position ``n`` is the rest cell.  The cells are
    range-checked once, raising ``distance``'s ValueError, then the
    unchecked ``leg_function`` fills the table with the same floats."""
    points = (*cells, lattice.rest)
    if not 0 < min(points) <= max(points) <= lattice.m:
        raise ValueError(f"cells {list(cells)} not all inside lattice of size {lattice.m}")
    leg = leg_function(lattice.dims)
    return [[leg(a, b) for b in points] for a in points]


def cut_bound(coord: Sequence[int], rest: int, k: int) -> Callable[[tuple], float]:
    """The cut-flow bound on one axis, for a state whose entries 0, 1
    and 2 are the position, the hand and the contents.

    ``coord[p]`` is scope position ``p``'s coordinate on the axis and
    ``rest``, at or below every one of them, is the rest cell's.  The
    gaps lie between neighbouring distinct coordinates; ``slot[p] + 1``
    is the number of gaps left of position ``p``, so the gaps a plan
    must cross to carry an object from ``p`` to ``q`` run from
    ``slot[p] + 1`` to ``slot[q]``.  ``slot[n]`` is -1: the robot at
    rest has no gap on its left, and an empty cell (whose content is
    ``n``) sends nothing anywhere.  A plan crosses every gap a whole
    number of times and carries at most ``k`` objects per crossing.
    Let R count the objects at or left of the gap that belong right of
    it; a held object sits at the robot.  With the robot left of the
    gap, the plan crosses it an even number of times, at least ``2 *
    ceil(R/k)``, and at least twice if an unresolved cell lies right of
    it.  With the robot right of the gap, one more crossing goes left
    than right, since the robot ends at the rest cell: at least ``2 *
    ceil(R/k) + 1``.  The bound is the sum of width times crossings.
    It is admissible for any plan with ``k`` buffers, swap-minimal or
    not, and a leg is at least as long as its projection on the axis.

    The L objects that cross the other way add nothing.  Every state
    the kernel reaches has as many empty cells as held objects, at most
    ``k``.  So L is at most R at a gap right of the robot, and at most
    R + k at a gap left of it, where ``2 * ceil(L/k) - 1`` crossings
    never exceed ``2 * ceil(R/k) + 1``.

    At the start state (robot at rest, empty hand) this is the static
    bound LB_k of ``travel_lower_bound``.  Per state it takes one
    difference array and one pass over the gaps up to the farther of
    the robot and the last unresolved cell; past both, R is 0.
    """
    n = len(coord)
    line = sorted({rest, *coord})
    widths = [b - a for a, b in zip(line, line[1:])]
    slot_of = {x: g - 1 for g, x in enumerate(line)}
    slot = [slot_of[x] for x in coord] + [-1]
    up = [-(-c // k) for c in range(n + 1)]
    size = len(line)

    def bound(state) -> float:
        p, held, contents = state[0], state[1], state[2]
        s = slot[p] + 1  # gaps below s lie left of the robot
        flow = [0] * size
        last = -1
        for i, o in enumerate(contents):
            if o != i:
                a, b = slot[i], slot[o]
                if a > last:
                    last = a
                if a < b:
                    flow[a + 1] += 1
                    flow[b + 1] -= 1
        for h in held:
            b = slot[h]
            if b >= s:
                flow[s] += 1
                flow[b + 1] -= 1
        total = 0.0
        r = 0
        for g in range(max(s, last + 1)):
            r += flow[g]
            c = up[r]
            total += widths[g] * (2 * c + 1 if g < s else 2 * c if c else 2)
        return total

    return bound


def state_bound(lattice: Lattice, cells: Sequence[int], k: int) -> Callable[[tuple], float]:
    """The cut-flow bound on the scope positions of ``cells``: the
    searches' heuristic and, at the start state, LB_k.  On a row it is
    ``cut_bound`` on the cells.  On a board it is ``cut_bound`` on each
    axis, Lx on the columns and Ly on the rows, and since a leg is at
    least its column offset, its row offset and their sum over sqrt(2),
    the bound is ``max(Lx, Ly, (Lx + Ly) / sqrt(2))``."""
    if lattice.ndim == 1:
        return cut_bound(cells, lattice.rest, k)
    rows, cols = coordinate_table(lattice.dims)
    rest = lattice.rest
    down = cut_bound([rows[c] for c in cells], rows[rest], k)
    across = cut_bound([cols[c] for c in cells], cols[rest], k)

    def bound(state) -> float:
        x, y = across(state), down(state)
        return max(x, y, (x + y) / math.sqrt(2.0))

    return bound


def travel_lower_bound(lattice: Lattice, cycles: Sequence[Cycle], k: int) -> float:
    """LB_k, a lower bound on the travel of every plan, swap-minimal or
    not, that puts the objects of ``cycles`` in place with ``k`` buffers:
    ``state_bound`` at the start state of the cycles' scope, in O(n log
    n) on n scope cells, on a row or a board.  Raises InvalidConfig for
    ``k < 1``."""
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    work = [c for c in cycles if not c.trivial]
    cells = sorted(cell for c in work for cell in c.cells)
    start = (len(cells), (), scope_contents(cells, resident_map(work)))
    return state_bound(lattice, cells, k)(start)


def goal_test(n: int) -> Callable[[tuple], bool]:
    """The goal test on ``n`` scope positions: every position holds its
    own object (entry 2) and the hand (entry 1) is empty."""
    goal = tuple(range(n))

    def is_goal(state) -> bool:
        return state[2] == goal and not state[1]

    return is_goal


def actions_at(
    i: int, contents: tuple[int, ...], held: tuple[int, ...], room: bool, empty: int
) -> list[Act]:
    """The useful acts at unresolved position ``i``, as ``(i, deposit, pick)``.

    With the cell's goal object in hand the only sensible act deposits
    it, taking over whatever sits there.  Otherwise: a pick into a free
    slot first (when ``room`` and the cell is not empty), then one swap
    per held object, in ``held`` order.
    """
    resident = contents[i]
    if i in held:
        return [(i, i, resident)]
    swaps = [(i, h, resident) for h in held]
    return [(i, empty, resident), *swaps] if room and resident != empty else swaps


def enumerate_actions(
    contents: tuple[int, ...],
    held: tuple[int, ...],
    pos: int,
    k: int,
    range_prune: bool = False,
) -> list[Act]:
    """Every useful act in a state, unresolved positions in order.

    Cells already showing their goal object are never touched.  With
    ``range_prune``, which only makes sense on a 1D row, acts are
    restricted to the positions between the nearest held-object goals
    on either side of the robot, a heuristic reduction for samplers.
    """
    n = len(contents)
    lo, hi = 0, n - 1
    if range_prune and held:
        left = [g for g in held if g <= pos]
        right = [g for g in held if g >= pos]
        if left:
            lo = max(left)
        if right:
            hi = min(right)
    room = len(held) < k
    out: list[Act] = []
    for i in range(lo, hi + 1):
        if contents[i] != i:
            out += actions_at(i, contents, held, room, n)
    return out


def apply_action(
    contents: tuple[int, ...], held: tuple[int, ...], act: Act, empty: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The contents and sorted hand after ``act``, the one transition rule.

    It runs once per successor of every search, so each kind of act
    builds its hand directly; a generic filter over ``held`` is slower.
    """
    i, deposit, pick = act
    nc = list(contents)
    if deposit == empty:
        nc[i] = empty
        return tuple(nc), tuple(sorted(held + (pick,))) if held else (pick,)
    nc[i] = deposit
    if len(held) == 1:
        return tuple(nc), () if pick == empty else (pick,)
    if pick == empty:
        return tuple(nc), tuple([h for h in held if h != deposit])
    return tuple(nc), tuple(sorted([h for h in held if h != deposit] + [pick]))


def scope_contents(cells: Sequence[int], resident: dict[int, int]) -> tuple[int, ...]:
    """The object at each scope position, named by its goal's position."""
    index = {cell: i for i, cell in enumerate(cells)}
    return tuple(index[resident[cell]] for cell in cells)


def label_actions(acts: Iterable[Act], cells: Sequence[int]) -> list[PickNSwap]:
    """Position triples back to pick-n-swaps on cell labels."""
    label = (*cells, EMPTY)
    return [PickNSwap(cells[i], label[deposit], label[pick]) for i, deposit, pick in acts]


def min_swap_astar(
    lattice: Lattice,
    cycles: Sequence[Cycle],
    k: int = 1,
    limits: SearchLimits = SearchLimits(),
) -> list[PickNSwap]:
    """Cheapest-travel swap-minimal action sequence for the given cycles.

    Only the cells of ``cycles`` are touched; the robot starts and
    finishes at the rest cell with an empty hand.  Returns the bare
    actions, without the rest bookends.  Raises InvalidConfig for
    ``k < 1``, SizeLimitExceeded when the scope is larger than
    ``limits.size_cap`` and PlanningTimeout when the search outlives
    ``limits.timeout_s``.
    """
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    work = [c for c in cycles if not c.trivial]
    if not work:
        return []
    cells = sorted(cell for c in work for cell in c.cells)
    if len(cells) > limits.size_cap:
        raise SizeLimitExceeded(
            f"{len(cells)} cells in scope exceeds the exact-search cap of {limits.size_cap}"
        )

    n = len(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    cycle_idx = [tuple(index[cell] for cell in c.cells) for c in work]
    legs = leg_table(lattice, cells)

    def expand(state):
        p, held, contents, touched = state
        row = legs[p]
        room = len(held) < k
        # Start or park into a cycle nobody has touched yet.
        for j, idxs in enumerate(cycle_idx):
            if touched >> j & 1:
                continue
            mask = touched | 1 << j
            for i in idxs:
                for act in actions_at(i, contents, held, room, n):
                    nc, nh = apply_action(contents, held, act, n)
                    yield (i, nh, nc, mask), row[i], act
        # Drop a held object at its goal cell, taking over whatever sits there.
        for h in held:
            act = (h, h, contents[h])
            nc, nh = apply_action(contents, held, act, n)
            yield (h, nh, nc, touched), row[h], act

    start = (n, (), scope_contents(cells, resident_map(work)), 0)
    acts = _astar(start, expand, state_bound(lattice, cells, k), goal_test(n), limits.timeout_s)
    return label_actions(acts, cells)


def assign_buffers(actions: Sequence[PickNSwap], k: int) -> tuple[int | None, ...]:
    """Label each action with the 1-based buffer slot that serves it.

    Picked objects take the lowest free slot; a swap reuses the slot
    freed by its deposit.  No-ops get ``None``.  No more slots than
    actions are ever in use, so the free list holds at most that many.
    """
    slot_of: dict[int, int] = {}
    free = list(range(min(k, len(actions)), 0, -1))
    labels: list[int | None] = []
    for a in actions:
        if a.is_noop:
            labels.append(None)
            continue
        if a.deposit != EMPTY and a.pick != EMPTY:
            slot = slot_of.pop(a.deposit)
            slot_of[a.pick] = slot
        elif a.pick != EMPTY:
            slot = free.pop()
            slot_of[a.pick] = slot
        else:
            slot = slot_of.pop(a.deposit)
            free.append(slot)
            free.sort(reverse=True)
        labels.append(slot)
    return tuple(labels)
