"""Monte Carlo tree search over the general pick-n-swap space.

For arbitrary cost weightings and several buffers no exact
decomposition is known, so this planner commits one action at a time:
it grows a search tree from the current state with UCB selection
(cost-minimizing, so the bound subtracts the exploration term), scores
leaves by rollouts, and commits the child with the lowest mean total
cost.  Backups store the full episode cost from the decision root, and
the tree is rebuilt from scratch after every commitment.

The rollout policy places some held object at its goal whenever the
hand is non-empty and otherwise picks from a uniformly random
unresolved cell.  Such a rollout always finishes within 2m + 2 actions
and its cost is a real completion estimate, which keeps the child
means on the scale of actual plan costs.

Rollout costs set the scale of the exploration constant: it is a tenth
of the mean episode cost of the first rollouts at each decision point.
On a 1D row the acts are pruned to the span between the nearest
held-object goals on either side of the robot.

States, acts and rollouts use the scope positions of the one state
kernel in ``search`` (``enumerate_actions`` and ``apply_action``,
reached through ``oracle``); acts become cell labels once, when the
plan is returned.  Every leg the search prices is read from the leg
table of ``search.leg_table``, computed once per plan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidConfig, PlanningTimeout
from .lattice import Arrangement, nontrivial_cycles, resident_map
from .oracle import apply_action, enumerate_actions
from .plan import CostParams, Plan, bookend
from .search import Act, assign_buffers, label_actions, leg_table, scope_contents

STALL_PENALTY_OPS = 1_000_000
CALIBRATION_ROLLOUTS = 32
EXPLORATION_FRACTION = 0.1
ROLLOUT_CAP_FACTOR = 4


@dataclass(frozen=True)
class MctsConfig:
    """Search budget and rollout seed.

    ``budget`` is the number of rollouts per committed action, the main
    quality/time dial.  The UCB scale is not set here: it settles at
    ``EXPLORATION_FRACTION`` of the mean episode cost seen in the first
    ``CALIBRATION_ROLLOUTS`` iterations (large enough to keep sampling
    alternatives, small enough that the tree still deepens).  Rollouts
    stop after ``ROLLOUT_CAP_FACTOR * m`` actions and charge a large
    penalty, which keeps walks that never reach the goal from looking
    acceptable.
    """

    budget: int = 2048
    seed: int = 0


@dataclass
class _Node:
    state: tuple
    untried: list[Act]
    children: list[tuple[Act, float, "_Node"]] = field(default_factory=list)
    visits: int = 0
    cost_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.cost_sum / self.visits


def ucb_choice(
    children: Sequence[tuple[Act, float, _Node]], parent_visits: int, c_ucb: float
) -> tuple[Act, float, _Node]:
    """Child with the best mean-minus-exploration score.

    Costs are minimized, so the exploration bonus is subtracted; ties
    fall to the smallest cell position.
    """
    log_n = math.log(parent_visits)
    return min(
        children,
        key=lambda entry: (
            entry[2].mean - c_ucb * math.sqrt(log_n / entry[2].visits),
            entry[0][0],
        ),
    )


def plan_mcts(
    start: Arrangement,
    k: int = 1,
    params: CostParams = CostParams(),
    config: MctsConfig = MctsConfig(),
) -> Plan:
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    if config.budget < 1:
        raise InvalidConfig(f"budget must be at least one rollout, got {config.budget}")
    lattice = start.lattice
    rng = random.Random(config.seed)
    cycles = nontrivial_cycles(start)
    be = bookend(lattice)
    if not cycles:
        return Plan((be, be), buffer_of=(None, None))

    cells = tuple(sorted(cell for c in cycles for cell in c.cells))
    n = len(cells)
    goal = tuple(range(n))
    legs = leg_table(lattice, cells)[0]
    range_prune = lattice.ndim == 1
    rollout_cap = ROLLOUT_CAP_FACTOR * lattice.m

    def legal(state) -> list[Act]:
        pos, held, contents = state
        options = enumerate_actions(contents, held, pos, k, range_prune)
        row = legs[pos]
        options.sort(key=lambda a: (row[a[0]], a[0]))
        return options

    def step(state, action) -> tuple[tuple, float]:
        pos, held, contents = state
        nc, nh = apply_action(contents, held, action, n)
        return (action[0], nh, nc), params.c_p + params.c_t * legs[pos][action[0]]

    def terminal(state) -> bool:
        return state[2] == goal and not state[1]

    def rollout(state) -> float:
        """Place-first completion: deposit a held object at its goal,
        or pick from a random unresolved cell when empty-handed."""
        pos, held, contents = state
        content = list(contents)
        hand = list(held)
        open_cells = [i for i in range(n) if content[i] != i]
        cost = 0.0
        for _ in range(rollout_cap):
            if hand:
                target = hand[rng.randrange(len(hand))] if len(hand) > 1 else hand[0]
                picked = content[target]
                content[target] = target
                hand.remove(target)
                if picked != n:
                    hand.append(picked)
                open_cells.remove(target)
                cost += params.c_p + params.c_t * legs[pos][target]
                pos = target
            elif open_cells:
                pickable = [i for i in open_cells if content[i] != n]
                at = pickable[rng.randrange(len(pickable))]
                hand.append(content[at])
                content[at] = n
                cost += params.c_p + params.c_t * legs[pos][at]
                pos = at
            else:
                return cost + params.c_t * legs[pos][n]
        if not hand and not open_cells:
            return cost + params.c_t * legs[pos][n]
        return cost + STALL_PENALTY_OPS * params.c_p

    def decide(root_state, seen: set) -> Act:
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
        for _ in range(config.budget):
            c_ucb = EXPLORATION_FRACTION * sum(calibration) / len(calibration) if calibration else 0.0
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
            tail = params.c_t * legs[node.state[0]][n] if terminal(node.state) else rollout(node.state)
            total = spent + tail
            if len(calibration) < CALIBRATION_ROLLOUTS:
                calibration.append(total)
            for visited in path:
                visited.visits += 1
                visited.cost_sum += total
        action, _, _ = min(root.children, key=lambda entry: (entry[2].mean, entry[0][0]))
        return action

    state = (n, (), scope_contents(cells, resident_map(cycles)))
    actions: list[Act] = []
    seen = {state[1:]}
    commit_cap = max(64, 6 * lattice.m)
    while not terminal(state):
        if len(actions) >= commit_cap:
            raise PlanningTimeout(f"no goal after committing {commit_cap} actions")
        action = decide(state, seen)
        actions.append(action)
        state, _ = step(state, action)
        seen.add(state[1:])
    plan = label_actions(actions, cells)
    return Plan(
        (be, *plan, be),
        buffer_of=(None, *assign_buffers(plan, k), None),
    )
