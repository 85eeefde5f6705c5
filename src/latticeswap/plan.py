"""Pick-n-swap actions, plans, validity checking, and plan cost.

A plan is a sequence of actions (cell, deposit, pick).  The robot moves
to the cell, deposits one held object (or ``EMPTY`` for none), then
picks up the object resting there (or ``EMPTY``).  Deposit and pick
happen in one stop, which is what lets a single visit swap the held
object for the resident one.

Every well-formed plan starts and ends with the no-op bookend
(rest, EMPTY, EMPTY): the robot begins and finishes at the rest cell
with nothing in hand.

Plan cost is ``c_p * n_swaps + c_t * travel`` where ``n_swaps`` counts
the non-bookend actions and ``travel`` sums the Euclidean leg lengths
of the tour through the action cells, rest to rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidInput, InvalidPlanStructure
from .lattice import EMPTY, Arrangement, Lattice, leg_function


class PickNSwap(NamedTuple):
    """One stop of the robot: deposit then pick at a single cell.

    An immutable named tuple, so an action unpacks as
    ``cell, deposit, pick``.
    """

    cell: int
    deposit: int = EMPTY
    pick: int = EMPTY

    @property
    def is_noop(self) -> bool:
        return self.deposit == EMPTY and self.pick == EMPTY

    def record(self, index: int, buffer: int | None = None) -> dict:
        rec = {"index": index, "cell": self.cell, "deposit": self.deposit, "pick": self.pick}
        if buffer is not None:
            rec["buffer"] = buffer
        return rec


@dataclass(frozen=True)
class Plan:
    """An action sequence, optionally annotated with buffer assignments.

    ``buffer_of`` maps action index to the buffer slot (1-based) that
    performs it, for planners that track which of the k buffers holds
    what.  Bookends carry no buffer.  ``fallback`` marks plans produced
    by a degraded path (e.g. a planner that gave up on optimality).
    """

    actions: tuple[PickNSwap, ...]
    buffer_of: tuple[int | None, ...] | None = None
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.buffer_of is not None and len(self.buffer_of) != len(self.actions):
            raise InvalidPlanStructure("buffer annotation length differs from action count")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @property
    def n_swaps(self) -> int:
        """Number of pick-n-swap operations (no-op bookends excluded)."""
        return sum(1 for _, deposit, pick in self.actions if deposit != EMPTY or pick != EMPTY)

    def records(self) -> list[dict]:
        out = []
        for i, a in enumerate(self.actions):
            buf = self.buffer_of[i] if self.buffer_of is not None else None
            out.append(a.record(i, buf))
        return out

    @classmethod
    def from_records(cls, records: Sequence[Mapping]) -> "Plan":
        """A plan from its records, in any order; their indices must be 0..n-1."""
        recs = sorted(records, key=lambda r: r["index"])
        if [r["index"] for r in recs] != list(range(len(recs))):
            raise InvalidInput(f"plan record indices must be exactly 0..{len(recs) - 1}")
        actions = tuple(
            PickNSwap(int(r["cell"]), int(r.get("deposit", EMPTY)), int(r.get("pick", EMPTY)))
            for r in recs
        )
        if any("buffer" in r for r in recs):
            buffers = tuple(int(r["buffer"]) if "buffer" in r else None for r in recs)
            return cls(actions, buffers)
        return cls(actions)

    def to_json(self, **dump_kwargs) -> str:
        return json.dumps(self.records(), **dump_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        return cls.from_records(json.loads(text))


def bookend(lattice: Lattice) -> PickNSwap:
    return PickNSwap(lattice.rest, EMPTY, EMPTY)


def bracket(
    actions: Iterable[PickNSwap],
    lattice: Lattice,
    buffers: Iterable[int | None] | None = None,
    fallback: bool = False,
) -> Plan:
    """Wrap bare actions in the rest-cell bookends; ``buffers``, if given,
    labels the bare actions with buffer slots and the bookends with ``None``."""
    be = bookend(lattice)
    buffer_of = None if buffers is None else (None, *buffers, None)
    return Plan((be, *actions, be), buffer_of, fallback)


@dataclass(frozen=True)
class SimulationResult:
    valid: bool
    reason: str = ""
    failed_index: int | None = None
    final_placement: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.valid


def simulate(plan: Plan, start: Arrangement, k: int = 1) -> SimulationResult:
    """Execute a plan from ``start`` and check every validity rule.

    A plan is valid when it is bracketed by the rest-cell no-ops,
    contains no other no-ops, never deposits an object it does not
    hold, never picks an object other than the cell's current content,
    never leaves two objects in one cell, never holds more than k
    objects, and finishes with the identity arrangement and an empty
    hand.
    """

    def fail(reason: str, idx: int | None) -> SimulationResult:
        return SimulationResult(False, reason, idx)

    lattice = start.lattice
    m = lattice.m
    acts = plan.actions
    if len(acts) < 2:
        return fail("plan must contain at least the two rest bookends", None)
    for idx in (0, len(acts) - 1):
        a = acts[idx]
        if a.cell != lattice.rest or not a.is_noop:
            return fail("plan must start and end with a no-op at the rest cell", idx)

    contents = list(start.placement)  # contents[c-1] = object in cell c, EMPTY if none
    held: set[int] = set()
    for idx in range(1, len(acts) - 1):
        cell, deposit, pick = acts[idx]
        if not 1 <= cell <= m:
            return fail(f"cell {cell} outside the lattice", idx)
        if deposit == EMPTY and pick == EMPTY:
            return fail("no-op action in the interior of the plan", idx)
        resident = contents[cell - 1]
        if pick != EMPTY and pick != resident:
            return fail(
                f"pick of {pick} at cell {cell} which holds "
                f"{'nothing' if resident == EMPTY else resident}",
                idx,
            )
        if deposit != EMPTY:
            if deposit not in held:
                return fail(f"deposit of {deposit} which is not in hand", idx)
            if resident != EMPTY and pick == EMPTY:
                return fail(f"deposit into occupied cell {cell} without picking", idx)
        if pick != EMPTY and deposit == EMPTY and len(held) >= k:
            return fail(f"pick at cell {cell} with all {k} buffers in use", idx)
        # Deposit and pick are simultaneous: the freed slot may receive
        # the deposit while the resident moves to hand.
        if pick != EMPTY:
            held.add(pick)
            contents[cell - 1] = EMPTY
        if deposit != EMPTY:
            held.discard(deposit)
            contents[cell - 1] = deposit
        if len(held) > k:
            return fail(f"holding {len(held)} objects with capacity {k}", idx)

    if held:
        return fail(f"objects {sorted(held)} still in hand at the end", len(acts) - 1)
    if contents != list(range(1, m + 1)):
        return fail("final arrangement is not the goal", len(acts) - 1)
    final = tuple(contents)
    return SimulationResult(True, final_placement=final)


@dataclass(frozen=True)
class CostParams:
    """Weights of the plan cost: c_p per swap, c_t per unit distance."""

    c_p: float = 1.0
    c_t: float = 1.0


@dataclass(frozen=True)
class CostReport:
    swaps: int
    travel: float
    total: float

    def to_dict(self) -> dict:
        return {"swaps": self.swaps, "travel": round(self.travel, 6), "total": self.total}

    def to_json(self, **dump_kwargs) -> str:
        return json.dumps(self.to_dict(), **dump_kwargs)


def sequence_travel(actions: Sequence[PickNSwap], lattice: Lattice) -> float:
    """Length of the tour through the actions' cells, rest to rest.

    Raises InvalidPlanStructure if an action names a cell outside the
    lattice.
    """
    cells = [a.cell for a in actions]
    if cells:
        lo, hi = min(cells), max(cells)
        if lo < 1 or hi > lattice.m:
            bad = lo if lo < 1 else hi
            raise InvalidPlanStructure(f"plan visits cell {bad} outside the lattice of {lattice.m} cells")
    leg = leg_function(lattice.dims)
    total = 0.0
    pos = lattice.rest
    for cell in cells:
        total += leg(pos, cell)
        pos = cell
    return total + leg(pos, lattice.rest)


def travel_distance(plan: Plan, lattice: Lattice) -> float:
    """Length of the plan's tour; its rest bookends add nothing."""
    return sequence_travel(plan.actions, lattice)


def evaluate_cost(plan: Plan, lattice: Lattice, params: CostParams = CostParams()) -> CostReport:
    travel = travel_distance(plan, lattice)
    swaps = plan.n_swaps
    return CostReport(swaps=swaps, travel=travel, total=params.c_p * swaps + params.c_t * travel)


def min_swap_count(start: Arrangement) -> int:
    """Fewest pick-n-swap operations that can solve an instance.

    Each cycle of length L > 1 needs L + 1 operations: one per cell,
    plus a second visit to the cell where the cycle is entered or where
    a carried object is parked.
    """
    from .lattice import nontrivial_cycles

    return sum(c.size + 1 for c in nontrivial_cycles(start))


@dataclass(frozen=True)
class Instance:
    """A problem instance: start arrangement, buffer count, and its seed."""

    arrangement: Arrangement
    k: int = 1
    seed: int | None = None

    def to_dict(self) -> dict:
        d: dict = {
            "dims": list(self.arrangement.lattice.dims),
            "placement": list(self.arrangement.placement),
            "k": self.k,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def to_json(self, **dump_kwargs) -> str:
        return json.dumps(self.to_dict(), **dump_kwargs)

    @classmethod
    def from_dict(cls, d: Mapping) -> "Instance":
        lattice = Lattice(tuple(int(x) for x in d["dims"]))
        arr = Arrangement(lattice, tuple(int(x) for x in d["placement"]))
        return cls(arr, k=int(d.get("k", 1)), seed=d.get("seed"))

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))
