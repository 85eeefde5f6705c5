"""Monte Carlo tree search over the general pick-n-swap space.

For arbitrary cost weightings and several buffers no exact
decomposition is known, so this planner commits one action at a time:
it grows a search tree from the current state with UCB selection
(cost-minimizing, so the bound subtracts the exploration term), scores
leaves by rollouts, and commits the child with the lowest mean total
cost.  Backups store the full episode cost from the decision root, and
the tree is rebuilt from scratch after every commitment.  A node's
action list is built on its first selection, not when the node is
created: most nodes are leaves that one rollout scores and no later
iteration selects again, so they never list their actions.

The rollout policy places some held object at its goal whenever the
hand is non-empty and otherwise picks from a uniformly random
unresolved cell.  Such a rollout always finishes within 2n + 1 steps
on the n cells in scope, and its cost is a real completion estimate,
which keeps the child means on the scale of actual plan costs.  The
kernel keeps as many empty cells as objects in hand: a pick into a
free slot adds one to each count, a deposit into an empty cell takes
one from each, and every other act leaves both alone.  So with the
hand empty every unresolved cell holds an object, and the draw needs
no filter.

Rollout costs set the scale of the exploration constant: it is a tenth
of the mean episode cost of the first rollouts at each decision point.
On a 1D row the acts are pruned to the span between the nearest
held-object goals on either side of the robot.

States, acts and rollouts use the scope positions of the one state
kernel in ``search`` (``enumerate_actions`` and ``apply_action``,
reached through ``oracle``) and its goal test ``search.goal_test``;
acts become cell labels once, when the plan is returned.  Every step
the search prices, in the tree and in rollouts, reads one table
``cost_of[p][q] = c_p + c_t * legs[p][q]`` built once per plan from
the leg table of ``search.leg_table``.

``timeout_s`` bounds the whole plan: one monotonic deadline is checked
once per search iteration, and on expiry ``PlanningTimeout`` is raised
with no partial plan.  A plan that commits max(64, 6 m) actions short of
the goal raises ``SearchGaveUp`` instead: no clock ran out.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidConfig, PlanningTimeout, SearchGaveUp
from .lattice import Arrangement, nontrivial_cycles, resident_map
from .oracle import apply_action, enumerate_actions
from .plan import CostParams, Plan, bracket
from .search import (
    Act,
    SearchLimits,
    assign_buffers,
    goal_test,
    label_actions,
    leg_table,
    scope_contents,
)

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
    alternatives, small enough that the tree still deepens).

    A rollout ends within 2n + 1 steps on n cells in scope: each
    deposit resolves a cell, and by the kernel's empty-cell invariant
    each pick is followed by a deposit.  So the stop after
    ``ROLLOUT_CAP_FACTOR * m`` steps and its ``STALL_PENALTY_OPS``
    charge are reached only on a kernel fault.  They stay because
    ``timeout_s`` is checked only between iterations and would not stop
    a runaway rollout.
    """

    budget: int = 2048
    seed: int = 0


class _Node:
    """A search-tree node.  ``untried`` is ``None`` until the node is
    first selected; then it holds the acts not yet expanded."""

    __slots__ = ("state", "untried", "children", "visits", "cost_sum")

    def __init__(
        self, state: tuple, untried: list[Act] | None, visits: int = 0, cost_sum: float = 0.0
    ):
        self.state = state
        self.untried = untried
        self.children: list[tuple[Act, float, _Node]] = []
        self.visits = visits
        self.cost_sum = cost_sum


def ucb_choice(
    children: Sequence[tuple[Act, float, _Node]], parent_visits: int, c_ucb: float
) -> tuple[Act, float, _Node]:
    """Child with the best mean-minus-exploration score.

    Costs are minimized, so the exploration bonus is subtracted; ties
    fall to the smallest cell position, then to the earlier child.  At
    ``c_ucb = 0`` the score is the mean.
    """
    log_n = math.log(parent_visits)
    best = children[0]
    best_score = math.inf
    for entry in children:
        node = entry[2]
        score = node.cost_sum / node.visits - c_ucb * math.sqrt(log_n / node.visits)
        if score < best_score or (score == best_score and entry[0][0] < best[0][0]):
            best, best_score = entry, score
    return best


def plan_mcts(
    start: Arrangement,
    k: int = 1,
    params: CostParams = CostParams(),
    config: MctsConfig = MctsConfig(),
    timeout_s: float = SearchLimits.timeout_s,
) -> Plan:
    """Commit one tree-searched action at a time until the goal.

    Raises ``PlanningTimeout`` once the plan outlives ``timeout_s``, and
    ``SearchGaveUp`` if it commits max(64, 6 m) actions short of the goal.
    """
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    if config.budget < 1:
        raise InvalidConfig(f"budget must be at least one rollout, got {config.budget}")
    deadline = time.monotonic() + timeout_s
    lattice = start.lattice
    rng = random.Random(config.seed)
    cycles = nontrivial_cycles(start)
    cells = tuple(sorted(cell for c in cycles for cell in c.cells))
    n = len(cells)
    legs = leg_table(lattice, cells)
    c_p, c_t = params.c_p, params.c_t
    cost_of = [[c_p + c_t * leg for leg in row] for row in legs]
    range_prune = lattice.ndim == 1
    rollout_cap = ROLLOUT_CAP_FACTOR * lattice.m
    terminal = goal_test(n)

    def legal(state) -> list[Act]:
        pos, held, contents = state
        options = enumerate_actions(contents, held, pos, k, range_prune)
        row = legs[pos]
        options.sort(key=lambda a: (row[a[0]], a[0]))
        return options

    def step(state, action) -> tuple[tuple, float]:
        pos, held, contents = state
        nc, nh = apply_action(contents, held, action, n)
        return (action[0], nh, nc), cost_of[pos][action[0]]

    def rollout(state) -> float:
        """Place-first completion: deposit a held object at its goal,
        or pick from a random unresolved cell when empty-handed.  With
        the hand empty no cell is empty, so every unresolved cell can
        be picked."""
        pos, held, contents = state
        content = list(contents)
        hand = list(held)
        open_cells = [i for i in range(n) if content[i] != i]
        cost = 0.0
        for _ in range(rollout_cap):
            if hand:
                target = rng.choice(hand) if len(hand) > 1 else hand[0]
                picked = content[target]
                content[target] = target
                hand.remove(target)
                if picked != n:
                    hand.append(picked)
                open_cells.remove(target)
                cost += cost_of[pos][target]
                pos = target
            elif open_cells:
                at = rng.choice(open_cells)
                hand.append(content[at])
                content[at] = n
                cost += cost_of[pos][at]
                pos = at
            else:
                return cost + c_t * legs[pos][n]
        if not hand and not open_cells:
            return cost + c_t * legs[pos][n]
        return cost + STALL_PENALTY_OPS * c_p

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
            if time.monotonic() > deadline:
                raise PlanningTimeout(f"tree search gave up after {timeout_s:g}s")
            c_ucb = EXPLORATION_FRACTION * sum(calibration) / len(calibration) if calibration else 0.0
            node = root
            path = [root]
            spent = 0.0
            while True:
                if node.untried is None:
                    node.untried = [] if terminal(node.state) else legal(node.state)
                if node.untried or not node.children:
                    break
                _, edge, node = ucb_choice(node.children, node.visits, c_ucb)
                path.append(node)
                spent += edge
            if node.untried:
                action = node.untried.pop(0)
                child_state, edge = step(node.state, action)
                child = _Node(child_state, None)
                node.children.append((action, edge, child))
                path.append(child)
                spent += edge
                node = child
            tail = c_t * legs[node.state[0]][n] if terminal(node.state) else rollout(node.state)
            total = spent + tail
            if len(calibration) < CALIBRATION_ROLLOUTS:
                calibration.append(total)
            for visited in path:
                visited.visits += 1
                visited.cost_sum += total
        return ucb_choice(root.children, root.visits, 0.0)[0]

    state = (n, (), scope_contents(cells, resident_map(cycles)))
    actions: list[Act] = []
    seen = {state[1:]}
    commit_cap = max(64, 6 * lattice.m)
    while not terminal(state):
        if len(actions) >= commit_cap:
            raise SearchGaveUp(f"no goal after committing {commit_cap} actions")
        action = decide(state, seen)
        actions.append(action)
        state, _ = step(state, action)
        seen.add(state[1:])
    plan = label_actions(actions, cells)
    return bracket(plan, lattice, assign_buffers(plan, k))
