"""Monte Carlo tree search over the general pick-n-swap space.

For arbitrary cost weightings and several buffers no exact
decomposition is known, so this planner commits one action at a time:
it grows a search tree from the current state with UCB selection
(cost-minimizing, so the bound subtracts the exploration term), scores
leaves by rollouts, and commits the child with the lowest mean total
cost.  Backups store the full episode cost from the decision root, and
the tree is rebuilt from scratch after every commitment.

The default rollout policy places some held object at its goal
whenever the hand is non-empty and otherwise picks from a uniformly
random unresolved cell.  Such a rollout always finishes within 2m + 2
actions and its cost is a real completion estimate, which keeps the
child means on the scale of actual plan costs.  A "uniform" policy
(any pruned legal action, equally likely) is available for
experimentation; it rarely reaches the goal within the step cap on
boards beyond a dozen cells, so its values degenerate to the stall
penalty.

Rollout costs set the scale of the exploration constant: unless one is
given, it is fixed to twice the mean episode cost of the first rollouts
at each decision point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidConfig, PlanningTimeout
from .lattice import EMPTY, Arrangement, nontrivial_cycles, resident_map
from .oracle import apply_action, enumerate_actions
from .plan import CostParams, PickNSwap, Plan, bookend
from .search import assign_buffers

STALL_PENALTY_OPS = 1_000_000
CALIBRATION_ROLLOUTS = 32
EXPLORATION_FRACTION = 0.1


@dataclass(frozen=True)
class MctsConfig:
    """Search budget and behavior knobs.

    ``budget`` is the number of rollouts per committed action, the main
    quality/time dial.  ``exploration`` overrides the automatic UCB
    scale, which otherwise settles at a tenth of the mean episode cost
    seen in the first iterations (large enough to keep sampling
    alternatives, small enough that the tree still deepens).  Rollouts
    stop after ``rollout_cap_factor * m`` actions and charge a large
    penalty, which keeps walks that never reach the goal from looking
    acceptable.
    """

    budget: int = 2048
    exploration: float | None = None
    rollout_cap_factor: int = 4
    range_prune: bool = True
    rollout: str = "resolve"
    seed: int = 0


@dataclass
class _Node:
    state: tuple
    untried: list[PickNSwap]
    children: list[tuple[PickNSwap, float, "_Node"]] = field(default_factory=list)
    visits: int = 0
    cost_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.cost_sum / self.visits


def ucb_choice(
    children: Sequence[tuple[PickNSwap, float, _Node]], parent_visits: int, c_ucb: float
) -> tuple[PickNSwap, float, _Node]:
    """Child with the best mean-minus-exploration score.

    Costs are minimized, so the exploration bonus is subtracted; ties
    fall to the smallest cell index.
    """
    log_n = math.log(parent_visits)
    return min(
        children,
        key=lambda entry: (
            entry[2].mean - c_ucb * math.sqrt(log_n / entry[2].visits),
            entry[0].cell,
        ),
    )


def plan_mcts(
    start: Arrangement,
    k: int = 1,
    params: CostParams = CostParams(),
    config: MctsConfig = MctsConfig(),
) -> Plan:
    if config.budget < 1:
        raise InvalidConfig(f"budget must be at least one rollout, got {config.budget}")
    if config.rollout not in ("resolve", "uniform"):
        raise InvalidConfig(f"unknown rollout policy {config.rollout!r}")
    lattice = start.lattice
    rng = random.Random(config.seed)
    cycles = nontrivial_cycles(start)
    be = bookend(lattice)
    if not cycles:
        return Plan((be, be), buffer_of=(None, None))

    cells = tuple(sorted(cell for c in cycles for cell in c.cells))
    index = {cell: i for i, cell in enumerate(cells)}
    goal = cells
    dist = lattice.distance
    rest = lattice.rest
    rollout_cap = config.rollout_cap_factor * lattice.m

    def legal(state) -> list[PickNSwap]:
        pos, held, contents = state
        options = enumerate_actions(
            contents, held, pos, cells, k, lattice, range_prune=config.range_prune
        )
        options.sort(key=lambda a: (dist(pos, a.cell), a.cell))
        return options

    def step(state, action) -> tuple[tuple, float]:
        pos, held, contents = state
        nc, nh = apply_action(contents, held, action, index)
        return (action.cell, nh, nc), params.c_p + params.c_t * dist(pos, action.cell)

    def terminal(state) -> bool:
        return state[2] == goal and not state[1]

    def rollout_resolve(state) -> float:
        """Place-first completion: deposit a held object at its goal,
        or pick from a random unresolved cell when empty-handed."""
        pos, held, contents = state
        content = list(contents)
        hand = list(held)
        open_cells = [c for i, c in enumerate(cells) if content[i] != c]
        cost = 0.0
        for _ in range(rollout_cap):
            if hand:
                target = hand[rng.randrange(len(hand))] if len(hand) > 1 else hand[0]
                i = index[target]
                picked = content[i]
                content[i] = target
                hand.remove(target)
                if picked != EMPTY:
                    hand.append(picked)
                open_cells.remove(target)
                cost += params.c_p + params.c_t * dist(pos, target)
                pos = target
            elif open_cells:
                pickable = [c for c in open_cells if content[index[c]] != EMPTY]
                at = pickable[rng.randrange(len(pickable))]
                i = index[at]
                hand.append(content[i])
                content[i] = EMPTY
                cost += params.c_p + params.c_t * dist(pos, at)
                pos = at
            else:
                return cost + params.c_t * dist(pos, rest)
        if not hand and not open_cells:
            return cost + params.c_t * dist(pos, rest)
        return cost + STALL_PENALTY_OPS * params.c_p

    def rollout_uniform(state) -> float:
        cost = 0.0
        for _ in range(rollout_cap):
            if terminal(state):
                return cost + params.c_t * dist(state[0], rest)
            options = legal(state)
            state, edge = step(state, options[rng.randrange(len(options))])
            cost += edge
        return cost + STALL_PENALTY_OPS * params.c_p

    rollout = rollout_resolve if config.rollout == "resolve" else rollout_uniform

    def decide(root_state, seen: set) -> PickNSwap:
        options = legal(root_state)
        # Committing into a hand/contents configuration the executed
        # prefix already produced would let the plan walk in circles,
        # so those actions are dropped up front when anything else is
        # available.
        fresh = [a for a in options if step(root_state, a)[0][1:] not in seen]
        root = _Node(root_state, fresh or options)
        if len(root.untried) == 1:
            return root.untried[0]
        calibration: list[float] = []
        explore = config.exploration
        for _ in range(config.budget):
            if explore is not None:
                c_ucb = explore
            elif calibration:
                c_ucb = EXPLORATION_FRACTION * sum(calibration) / len(calibration)
            else:
                c_ucb = 0.0
            node = root
            path = [root]
            spent = 0.0
            while not node.untried and node.children:
                _, edge, node = ucb_choice(node.children, node.visits, c_ucb)
                path.append(node)
                spent += edge
            if node.untried:
                action = node.untried.pop(0)
                child_state, edge = step(node.state, action)
                child = _Node(child_state, [] if terminal(child_state) else legal(child_state))
                node.children.append((action, edge, child))
                path.append(child)
                spent += edge
                node = child
            tail = (
                params.c_t * dist(node.state[0], rest) if terminal(node.state) else rollout(node.state)
            )
            total = spent + tail
            if len(calibration) < CALIBRATION_ROLLOUTS:
                calibration.append(total)
            for n in path:
                n.visits += 1
                n.cost_sum += total
        action, _, _ = min(root.children, key=lambda entry: (entry[2].mean, entry[0].cell))
        return action

    resident = resident_map(cycles)
    contents = tuple(resident[cell] for cell in cells)
    state = (rest, (), contents)
    actions: list[PickNSwap] = []
    seen = {state[1:]}
    commit_cap = max(64, 6 * lattice.m)
    while not terminal(state):
        if len(actions) >= commit_cap:
            raise PlanningTimeout(f"no goal after committing {commit_cap} actions")
        action = decide(state, seen)
        actions.append(action)
        state, _ = step(state, action)
        seen.add(state[1:])
    return Plan(
        (be, *actions, be),
        buffer_of=(None, *assign_buffers(actions, k), None),
    )
