"""Brute-force reference implementations used to check the planners.

Everything here trades speed for obviousness: plain breadth-first or
exhaustive enumeration over tiny instances, written independently of
the package's search code so agreement is meaningful.  The one-buffer
tour references are the plain quadratic forms of the package's linear
ones: a full scan of the untouched cells at every carried step, and a
fold of whole-plan splices.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Sequence

from latticeswap.errors import InvalidPlanStructure
from latticeswap.lattice import EMPTY, Arrangement, Cycle, Lattice, resident_map
from latticeswap.plan import PickNSwap


def brute_min_operations(start: Arrangement, k: int = 1) -> int:
    """Fewest pick-n-swap operations to sort, by BFS over raw states.

    The state ignores robot position (operation count does not depend
    on travel) and tracks cell contents plus the multiset in hand.
    """
    lattice = start.lattice
    m = lattice.m
    goal = tuple(range(1, m + 1))
    init = (tuple(start.placement), ())
    if init[0] == goal:
        return 0
    seen = {init}
    frontier = deque([(init, 0)])
    while frontier:
        (contents, held), depth = frontier.popleft()
        for cell in range(1, m + 1):
            occupant = contents[cell - 1]
            options = []
            if occupant != EMPTY and len(held) < k:
                options.append((EMPTY, occupant))
            for obj in set(held):
                if occupant != EMPTY:
                    options.append((obj, occupant))
                else:
                    options.append((obj, EMPTY))
            for deposit, pick in options:
                row = list(contents)
                row[cell - 1] = deposit
                hand = list(held)
                if deposit != EMPTY:
                    hand.remove(deposit)
                if pick != EMPTY:
                    hand.append(pick)
                state = (tuple(row), tuple(sorted(hand)))
                if state in seen:
                    continue
                if state[0] == goal and not state[1]:
                    return depth + 1
                seen.add(state)
                frontier.append((state, depth + 1))
    raise AssertionError("unsolvable state reached")


def brute_min_travel(start: Arrangement, k: int = 1, op_cap: int | None = None) -> float:
    """Cheapest travel among operation-minimal plans, by depth-bounded
    Dijkstra over (position, contents, hand) with travel as cost."""
    import heapq

    lattice = start.lattice
    m = lattice.m
    goal = tuple(range(1, m + 1))
    ops = op_cap if op_cap is not None else brute_min_operations(start, k)
    init = (lattice.rest, tuple(start.placement), ())
    if init[1] == goal:
        return 0.0
    best: dict[tuple, float] = {(init, 0): 0.0}
    heap = [(0.0, 0, init, 0)]
    tick = 0
    answer = math.inf
    while heap:
        travel, _, state, depth = heapq.heappop(heap)
        if travel > best.get((state, depth), math.inf):
            continue
        if travel >= answer:
            continue
        pos, contents, held = state
        if depth == ops:
            continue
        for cell in range(1, m + 1):
            occupant = contents[cell - 1]
            options = []
            if occupant != EMPTY and len(held) < k:
                options.append((EMPTY, occupant))
            for obj in set(held):
                options.append((obj, occupant))
            for deposit, pick in options:
                row = list(contents)
                row[cell - 1] = deposit
                hand = list(held)
                if deposit != EMPTY:
                    hand.remove(deposit)
                if pick != EMPTY:
                    hand.append(pick)
                nxt = (cell, tuple(row), tuple(sorted(hand)))
                cost = travel + lattice.distance(pos, cell)
                if nxt[1] == goal and not nxt[2]:
                    answer = min(answer, cost + lattice.distance(cell, lattice.rest))
                    continue
                key = (nxt, depth + 1)
                if cost < best.get(key, math.inf):
                    best[key] = cost
                    tick += 1
                    heapq.heappush(heap, (cost, tick, nxt, depth + 1))
    return answer


def state_cut_bound(cells: Sequence[int], rest: int, k: int, state: tuple) -> float:
    """The state form of the cut-flow bound by its definition, one gap
    between neighbouring points of ``(rest, *cells)`` at a time.

    ``state`` is a search state on the scope positions of ``cells``
    (position, hand, contents; position ``len(cells)`` is the rest
    cell and names an empty cell).  Per gap: R objects sit at or left
    of it and belong right of it, L go the other way (a held object
    sits at the robot), and U says whether an unresolved cell lies
    right of it.  The robot crosses ``2 * max(ceil(R/k), ceil(L/k), U)``
    times from the left of the gap and ``max(2*ceil(R/k) + 1,
    2*ceil(L/k) - 1, 1)`` times from the right of it.
    """
    pos, held, contents = state[0], state[1], state[2]
    n = len(cells)
    robot = cells[pos] if pos < n else rest
    at = {obj: cells[i] for i, obj in enumerate(contents) if obj != n}
    at.update((obj, robot) for obj in held)
    total = 0.0
    points = (rest, *cells)
    for lo, hi in zip(points, points[1:]):
        r = sum(1 for obj, cell in at.items() if cell <= lo and cells[obj] >= hi)
        left = sum(1 for obj, cell in at.items() if cell >= hi and cells[obj] <= lo)
        u = any(contents[i] != i for i in range(n) if cells[i] >= hi)
        a, b = math.ceil(r / k), math.ceil(left / k)
        if robot <= lo:
            crossings = 2 * max(a, b, int(u))
        else:
            crossings = max(2 * a + 1, 2 * b - 1, 1)
        total += (hi - lo) * crossings
    return total


def state_projection_bound(lattice: Lattice, cells: Sequence[int], k: int, state: tuple) -> float:
    """The board form of the cut-flow bound by its definition: one gap
    between neighbouring distinct coordinates of the rest cell and
    ``cells`` at a time, on each axis separately, with R, L and U
    counted as in ``state_cut_bound``.  The two axes' sums Lx and Ly
    combine as ``max(Lx, Ly, (Lx + Ly) / sqrt(2))``, since a leg is at
    least its longer offset and at least its offsets' sum over sqrt(2).
    """
    pos, held, contents = state[0], state[1], state[2]
    n = len(cells)
    robot = cells[pos] if pos < n else lattice.rest
    at = {obj: cells[i] for i, obj in enumerate(contents) if obj != n}
    at.update((obj, robot) for obj in held)
    sums = []
    for axis in range(2):

        def x(cell: int) -> int:
            return lattice.coords(cell)[axis]

        points = sorted({x(lattice.rest), *(x(cell) for cell in cells)})
        total = 0.0
        for lo, hi in zip(points, points[1:]):
            r = sum(1 for obj, cell in at.items() if x(cell) <= lo and x(cells[obj]) >= hi)
            left = sum(1 for obj, cell in at.items() if x(cell) >= hi and x(cells[obj]) <= lo)
            u = any(contents[i] != i for i in range(n) if x(cells[i]) >= hi)
            a, b = math.ceil(r / k), math.ceil(left / k)
            if x(robot) <= lo:
                crossings = 2 * max(a, b, int(u))
            else:
                crossings = max(2 * a + 1, 2 * b - 1, 1)
            total += (hi - lo) * crossings
        sums.append(total)
    across, down = sums[1], sums[0]
    return max(across, down, (across + down) / math.sqrt(2.0))


def exhaustive_interleave_travel(
    sequences: Sequence[Sequence[PickNSwap]], lattice: Lattice
) -> float:
    """Minimum tour length over every interleaving of the sequences."""
    active = [list(s) for s in sequences if s]
    if not active:
        return 0.0
    counts = [len(s) for s in active]
    slots = []
    for i, n in enumerate(counts):
        slots.extend([i] * n)
    best = math.inf
    for order in set(itertools.permutations(slots)):
        pos = lattice.rest
        cursor = [0] * len(active)
        travel = 0.0
        for i in order:
            cell = active[i][cursor[i]].cell
            cursor[i] += 1
            travel += lattice.distance(pos, cell)
            pos = cell
        travel += lattice.distance(pos, lattice.rest)
        best = min(best, travel)
    return best


def reference_merge(
    sequences: Sequence[Sequence[PickNSwap]], lattice: Lattice, keep: int | None = None
) -> tuple[list[PickNSwap], tuple[int, ...], float]:
    """Stage-by-stage interleaving DP over a dict of (progress, last) states.

    Mirrors the contract of the package's merge, tie rules included:
    a state keeps its cheapest predecessor, ties to the smallest
    previous mover; with ``keep`` set, each stage keeps its ``keep``
    cheapest states by (cost, code); the tour ends in the state of
    least (total, code); a beamed tour is replaced by the sequences run
    back to back when that is shorter.  The code of a state is
    last + n * sum(progress[b] * stride[b]), stride[b] being the
    product of (len + 1) over the earlier sequences.
    """
    active = [(label, list(seq)) for label, seq in enumerate(sequences, start=1) if seq]
    rest = lattice.rest

    def tour(actions: Sequence[PickNSwap]) -> float:
        cells = [rest, *(a.cell for a in actions), rest]
        return sum(lattice.distance(a, b) for a, b in zip(cells, cells[1:]))

    if not active:
        return [], (), 0.0
    if len(active) == 1:
        label, seq = active[0]
        return seq, (label,) * len(seq), tour(seq)

    n = len(active)
    stride = [math.prod(len(s) + 1 for _, s in active[:b]) for b in range(n)]

    def code(state: tuple[tuple[int, ...], int]) -> int:
        progress, last = state
        return last + n * sum(p * w for p, w in zip(progress, stride))

    def cell(state: tuple[tuple[int, ...], int]) -> int:
        progress, last = state
        return active[last][1][progress[last] - 1].cell

    stages: list[dict] = [{}]
    for b in range(n):
        progress = tuple(int(c == b) for c in range(n))
        stages[0][(progress, b)] = (lattice.distance(rest, active[b][1][0].cell), None)
    for _ in range(sum(len(s) for _, s in active) - 1):
        nxt: dict = {}
        for state in sorted(stages[-1], key=code):  # smallest mover first
            progress, _ = state
            cost = stages[-1][state][0]
            for b in range(n):
                if progress[b] == len(active[b][1]):
                    continue
                moved = tuple(p + (c == b) for c, p in enumerate(progress))
                leg = lattice.distance(cell(state), active[b][1][progress[b]].cell)
                if (moved, b) not in nxt or cost + leg < nxt[(moved, b)][0]:
                    nxt[(moved, b)] = (cost + leg, state)
        if keep is not None and len(nxt) > keep:
            kept = sorted(nxt, key=lambda st: (nxt[st][0], code(st)))[:keep]
            nxt = {st: nxt[st] for st in kept}
        stages.append(nxt)

    final = stages[-1]
    state = min(
        final, key=lambda st: (final[st][0] + lattice.distance(cell(st), rest), code(st))
    )
    travel = final[state][0] + lattice.distance(cell(state), rest)
    order = []
    for stage in reversed(stages):
        order.append(state[1])
        state = stage[state][1]
    order.reverse()
    merged, labels, cursor = [], [], [0] * n
    for b in order:
        label, seq = active[b]
        merged.append(seq[cursor[b]])
        labels.append(label)
        cursor[b] += 1

    if keep is not None:
        flat = [a for _, seq in active for a in seq]
        if tour(flat) < travel - 1e-9:
            return flat, tuple(label for label, seq in active for _ in seq), tour(flat)
    return merged, tuple(labels), travel


def exhaustive_best_min_load(loads: Sequence[int], k: int) -> int:
    """Best achievable minimum bin load over all k-way partitions."""
    n = len(loads)
    best = -1
    for labels in itertools.product(range(k), repeat=n):
        bins = [0] * k
        for i, b in enumerate(labels):
            bins[b] += loads[i]
        best = max(best, min(bins))
    return best


def reference_largest_first(loads: Sequence[int], k: int) -> list[list[int]]:
    """Largest-first packing: each item, heaviest first (ties to the
    lower index), joins the lightest of k bins (ties to the lower bin)."""
    bins: list[list[int]] = [[] for _ in range(k)]
    totals = [0] * k
    for i in sorted(range(len(loads)), key=lambda i: (-loads[i], i)):
        b = totals.index(min(totals))
        totals[b] += loads[i]
        bins[b].append(i)
    return bins


def permutation_cycle_sizes(placement: Sequence[int]) -> list[int]:
    """Cycle sizes of a permutation given as a placement row, written
    with direct index chasing rather than the package's decomposition."""
    m = len(placement)
    seen = [False] * m
    sizes = []
    for s in range(m):
        if seen[s]:
            continue
        size = 0
        i = s
        while not seen[i]:
            seen[i] = True
            size += 1
            i = placement[i] - 1
        sizes.append(size)
    return sizes


def largest_cycle_fraction_exact(m: int) -> float:
    """E[largest cycle / m] over all permutations of m objects."""
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(1, m + 1)):
        sizes = permutation_cycle_sizes(perm)
        total += max(sizes) / m
        count += 1
    return total / count


def reference_greedy_switch_actions(
    cycles: Sequence[Cycle], lattice: Lattice, detour_slack: float = 1e-9, order: str = "canonical"
) -> list[PickNSwap]:
    """``single_buffer.greedy_switch_actions`` by brute force: at every
    carried step, scan every cell of every untouched cycle for the
    detour test."""
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


def _reference_held_after(actions: Sequence[PickNSwap]) -> list[int]:
    held = EMPTY
    out = []
    for a in actions:
        if a.pick != EMPTY:
            held = a.pick
        elif a.deposit != EMPTY:
            held = EMPTY
        out.append(held)
    return out


def reference_splice_actions(outer: list[PickNSwap], inner: list[PickNSwap]) -> list[PickNSwap]:
    """``single_buffer.splice_actions`` with a replay of the whole outer
    plan up to the insertion point."""
    if not outer:
        return list(inner)
    if not inner:
        return list(outer)
    rightmost = max(a.cell for a in outer)
    at = next(i for i, a in enumerate(outer) if a.cell == rightmost)
    carried = _reference_held_after(outer[: at + 1])[-1]
    if carried == EMPTY:
        raise InvalidPlanStructure("outer plan holds nothing at its rightmost cell")

    rewritten = list(inner)
    hand = _reference_held_after(inner)
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


def reference_compose_group_actions(per_group: Sequence[list[PickNSwap]]) -> list[PickNSwap]:
    """``single_buffer.compose_group_actions`` as a fold of splices."""
    composed: list[PickNSwap] = []
    for actions in per_group:
        composed = reference_splice_actions(composed, actions)
    return composed
