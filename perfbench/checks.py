"""Checks of plans made without the planner package's own code.

Everything here reads only plain data from the program (action cells,
deposits and picks, the start placement and the board dimensions) and
recomputes the rest itself: cell coordinates, the cycle decomposition,
travel, a step-by-step replay of the plan, and the reference tour that
the quality ratios are measured against.  A change to any planner or to
``latticeswap.plan`` therefore cannot move the reference or weaken a
check.
"""

from __future__ import annotations

import math

EMPTY = 0
REST = 1
TRAVEL_RTOL = 1e-9


def coords(dims: tuple[int, ...], cell: int) -> tuple[int, int]:
    """Row-major (row, column) of a 1-based cell; 1D rows use row 1."""
    if len(dims) == 1:
        return (1, cell)
    return ((cell - 1) // dims[1] + 1, (cell - 1) % dims[1] + 1)


def tour_length(dims: tuple[int, ...], cells) -> float:
    """Euclidean length of rest -> cells... -> rest."""
    total = 0.0
    pr, pc = coords(dims, REST)
    for cell in cells:
        r, c = coords(dims, cell)
        total += math.hypot(r - pr, c - pc)
        pr, pc = r, c
    r, c = coords(dims, REST)
    return total + math.hypot(r - pr, c - pc)


def cycles(placement: tuple[int, ...]) -> list[list[int]]:
    """Non-trivial cycles of a placement against the identity goal.

    Each cycle is listed from its smallest cell: the object found in a
    listed cell belongs in the next listed cell.
    """
    seen = [False] * (len(placement) + 1)
    out = []
    for start in range(1, len(placement) + 1):
        if seen[start]:
            continue
        chain = []
        cell = start
        while not seen[cell]:
            seen[cell] = True
            chain.append(cell)
            cell = placement[cell - 1]
        if len(chain) > 1:
            out.append(chain)
    return out


def min_swaps(placement: tuple[int, ...]) -> int:
    """Sum of L + 1 over the non-trivial cycles."""
    return sum(len(c) + 1 for c in cycles(placement))


def reference(placement: tuple[int, ...], dims: tuple[int, ...]) -> tuple[int, float]:
    """Swaps and travel of the one-buffer cycle-following tour."""
    return min_swaps(placement), tour_length(dims, [a[0] for a in follow_actions(placement)])


def replay(actions, placement: tuple[int, ...], k: int) -> str | None:
    """Execute ``(cell, deposit, pick)`` actions; return why they fail, or None."""
    m = len(placement)
    if len(actions) < 2:
        return "fewer than two actions"
    for at in (0, len(actions) - 1):
        if actions[at] != (REST, EMPTY, EMPTY):
            return f"action {at} is not the rest-cell no-op bookend"
    contents = list(placement)
    hand: set[int] = set()
    for at in range(1, len(actions) - 1):
        cell, deposit, pick = actions[at]
        if not 1 <= cell <= m:
            return f"action {at}: cell {cell} is off the board"
        if deposit == EMPTY and pick == EMPTY:
            return f"action {at}: interior no-op"
        resident = contents[cell - 1]
        if pick != EMPTY and pick != resident:
            return f"action {at}: picks {pick} but cell {cell} holds {resident}"
        if pick == EMPTY and resident != EMPTY and deposit != EMPTY:
            return f"action {at}: deposits into occupied cell {cell}"
        if deposit != EMPTY and deposit not in hand:
            return f"action {at}: deposits {deposit} which is not in hand"
        if pick != EMPTY:
            hand.add(pick)
        hand.discard(deposit)
        contents[cell - 1] = deposit
        if len(hand) > k:
            return f"action {at}: {len(hand)} objects in hand with capacity {k}"
    if hand:
        return f"objects {sorted(hand)} still in hand at the end"
    if any(contents[i] != i + 1 for i in range(m)):
        return "final arrangement is not the identity"
    return None


def action_tuples(plan) -> list[tuple[int, int, int]]:
    return [(a.cell, a.deposit, a.pick) for a in plan.actions]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TRAVEL_RTOL * max(1.0, abs(a), abs(b))


def check_plan(op, plan, report, sim_valid: bool) -> list[str]:
    """Independent checks of one priced and validated plan."""
    placement = op.arrangement.placement
    dims = op.arrangement.lattice.dims
    acts = action_tuples(plan)
    errors = []
    why = replay(acts, placement, op.k)
    if why is not None:
        errors.append(f"replay: {why}")
    if not sim_valid:
        errors.append("simulate() reports the plan invalid")
    travel = tour_length(dims, [a[0] for a in acts])
    if not close(travel, report.travel):
        errors.append(f"travel {report.travel!r} from evaluate_cost, {travel!r} recomputed")
    swaps = sum(1 for a in acts[1:-1] if a[1:] != (EMPTY, EMPTY))
    if swaps != report.swaps:
        errors.append(f"swaps {report.swaps} from evaluate_cost, {swaps} counted")
    if op.algo != "mcts" and swaps != min_swaps(placement):
        errors.append(f"{swaps} swaps, the cycles need {min_swaps(placement)}")
    if not close(report.total, op.cp * report.swaps + op.ct * report.travel):
        errors.append(f"total {report.total!r} is not c_p*swaps + c_t*travel")
    if op.algo == "dp":
        errors.extend(check_merge(plan, dims, travel))
    return errors


def check_merge(plan, dims, merged_travel: float) -> list[str]:
    """A merged tour is no longer than its buffer sequences back to back."""
    if plan.buffer_of is None:
        return ["dp plan carries no buffer labels"]
    by_buffer: dict[int, list[int]] = {}
    for a, label in zip(plan.actions[1:-1], plan.buffer_of[1:-1]):
        by_buffer.setdefault(label, []).append(a.cell)
    flat = [cell for label in sorted(by_buffer) for cell in by_buffer[label]]
    back_to_back = tour_length(dims, flat)
    if merged_travel > back_to_back + TRAVEL_RTOL * max(1.0, back_to_back):
        return [f"merged travel {merged_travel} exceeds back-to-back {back_to_back}"]
    return []


def follow_actions(placement: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Bare ``(cell, deposit, pick)`` actions of the cycle-following tour.

    Each cycle is entered at its smallest cell, its resident is carried
    to its goal cell, the resident there is carried on, and so on until
    the chain returns to the entry; cycles are taken in order of their
    smallest cell.
    """
    actions = []
    for chain in cycles(placement):
        carried = EMPTY
        for cell in chain:
            actions.append((cell, carried, placement[cell - 1]))
            carried = placement[cell - 1]
        actions.append((chain[0], carried, EMPTY))
    return actions


def self_test() -> list[str]:
    """Show that ``replay`` accepts good plans and rejects corrupted ones."""
    placement = (3, 1, 2, 5, 4, 6)  # cycles (1 3 2) and (4 5)
    be = (REST, EMPTY, EMPTY)
    good = [be, *follow_actions(placement), be]
    dropped = good[:2] + good[3:]
    swapped = good[:1] + [good[2], good[1]] + good[3:]
    # Start the second cycle while the first cycle's object is in hand:
    # valid with two buffers, a pick beyond capacity with one.
    two_held = good[:2] + [good[5]] + good[2:5] + good[6:]
    failures = []
    for name, plan, k in (("the cycle-following plan", good, 1), ("a two-buffer plan", two_held, 2)):
        why = replay(plan, placement, k)
        if why is not None:
            failures.append(f"rejects {name}: {why}")
    for name, plan in (("a dropped action", dropped), ("two swapped actions", swapped),
                       ("a pick beyond capacity", two_held)):
        if replay(plan, placement, 1) is None:
            failures.append(f"accepts a plan with {name}")
    return failures
