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
runs A* over (position, held objects, cell contents) with the
admissible bound "farthest unresolved cell, then home".

``_astar`` is the package's one A* loop: ``min_swap_astar`` and the
oracle's unrestricted search both run on it, each supplying its own
successor function, bound and goal test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Hashable, Iterable, Sequence

from .errors import InvalidConfig, PlanningTimeout, SizeLimitExceeded
from .lattice import EMPTY, Cycle, Lattice, resident_map
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


def _astar(
    start: Hashable,
    expand: Callable[[Hashable], Iterable[tuple[Hashable, float, Any]]],
    heuristic: Callable[[Hashable], float],
    is_goal: Callable[[Hashable], bool],
    timeout_s: float,
) -> list:
    """Cheapest action path from ``start`` to a goal state.

    ``expand(state)`` yields ``(next_state, step_cost, action)``.  Ties
    in ``g + h`` go to the state pushed first; a state is re-pushed only
    when its cost improves by more than 1e-12, and a popped entry whose
    stored cost lies more than 1e-9 above the state's best is stale.
    Raises PlanningTimeout once the search outlives ``timeout_s``.
    """
    best_g: dict = {start: 0.0}
    parent: dict = {}
    frontier: list = [(heuristic(start), 0, 0.0, start)]
    counter = 0
    expanded = 0
    deadline = time.monotonic() + timeout_s
    while frontier:
        _, _, entry_g, state = heappop(frontier)
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
        if expanded % DEADLINE_CHECK_EVERY == 0 and time.monotonic() > deadline:
            raise PlanningTimeout(f"search gave up after {timeout_s:.0f}s")
        for nxt, step, action in expand(state):
            ng = g + step
            old = best_g.get(nxt)
            if old is not None and old <= ng + 1e-12:
                continue
            best_g[nxt] = ng
            parent[nxt] = (state, action)
            counter += 1
            heappush(frontier, (ng + heuristic(nxt), counter, ng, nxt))
    raise RuntimeError("search exhausted without reaching the goal; this is a bug")


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

    index = {cell: i for i, cell in enumerate(cells)}
    cycle_idx = [tuple(index[cell] for cell in c.cells) for c in work]
    initial = resident_map(work)
    orig = tuple(initial[cell] for cell in cells)
    goal = tuple(cells)
    rest = lattice.rest
    dist = lattice.distance

    def heuristic(state) -> float:
        pos, _, contents = state
        best = dist(pos, rest)
        for i, cell in enumerate(cells):
            if contents[i] != cell:
                cand = dist(pos, cell) + dist(cell, rest)
                if cand > best:
                    best = cand
        return best

    def is_goal(state) -> bool:
        return state[2] == goal and not state[1]

    def expand(state):
        pos, held, contents = state
        untouched = [
            j for j, idxs in enumerate(cycle_idx) if all(contents[i] == orig[i] for i in idxs)
        ]
        # Start or park into a cycle nobody has touched yet.
        for j in untouched:
            for i in cycle_idx[j]:
                cell = cells[i]
                resident = contents[i]
                leg = dist(pos, cell)
                if len(held) < k:
                    nc = list(contents)
                    nc[i] = EMPTY
                    nh = tuple(sorted(held + (resident,)))
                    yield (cell, nh, tuple(nc)), leg, PickNSwap(cell, EMPTY, resident)
                for h in held:
                    nc = list(contents)
                    nc[i] = h
                    nh = tuple(sorted([x for x in held if x != h] + [resident]))
                    yield (cell, nh, tuple(nc)), leg, PickNSwap(cell, h, resident)
        # Drop a held object at its goal cell, taking over whatever sits there.
        for h in held:
            i = index[h]
            resident = contents[i]
            nc = list(contents)
            nc[i] = h
            rest_held = [x for x in held if x != h]
            if resident != EMPTY:
                rest_held.append(resident)
            yield (h, tuple(sorted(rest_held)), tuple(nc)), dist(pos, h), PickNSwap(h, h, resident)

    return _astar((rest, (), orig), expand, heuristic, is_goal, limits.timeout_s)


def assign_buffers(actions: Sequence[PickNSwap], k: int) -> tuple[int | None, ...]:
    """Label each action with the 1-based buffer slot that serves it.

    Picked objects take the lowest free slot; a swap reuses the slot
    freed by its deposit.  No-ops get ``None``.
    """
    slot_of: dict[int, int] = {}
    free = list(range(k, 0, -1))
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
