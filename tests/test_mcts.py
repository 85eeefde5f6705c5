"""Tree-search planner: selection rule, validity, objective shaping."""

import statistics

import pytest

from latticeswap.errors import InvalidConfig
from latticeswap.lattice import Arrangement, random_arrangement
from latticeswap.mcts import MctsConfig, _Node, plan_mcts, ucb_choice
from latticeswap.plan import (
    CostParams,
    PickNSwap,
    evaluate_cost,
    min_swap_count,
    simulate,
)

TWO_CYCLE_BOARD = [4, 2, 5, 1, 3]


def child(cell, visits, cost_sum):
    return (PickNSwap(cell, 0, cell), 1.0, _Node(state=(), untried=[], visits=visits, cost_sum=cost_sum))


class TestUcbChoice:
    def test_exploration_prefers_undersampled(self):
        # Means 10 vs 12 with visit counts 100 vs 2: at C=5 the score of
        # the barely-sampled child (12 - 5*sqrt(ln 102 / 2) = 4.39) beats
        # the well-known one (10 - 5*sqrt(ln 102 / 100) = 8.92).
        children = [child(1, 100, 1000.0), child(2, 2, 24.0)]
        picked = ucb_choice(children, parent_visits=102, c_ucb=5.0)
        assert picked is children[1]

    def test_greedy_at_zero_exploration(self):
        children = [child(1, 10, 120.0), child(2, 10, 100.0)]
        assert ucb_choice(children, 20, 0.0) is children[1]

    def test_tie_breaks_by_cell(self):
        children = [child(4, 5, 50.0), child(2, 5, 50.0)]
        assert ucb_choice(children, 10, 1.0) is children[1]

    def test_single_child(self):
        children = [child(3, 1, 7.0)]
        assert ucb_choice(children, 1, 2.0) is children[0]


class TestPlanMcts:
    def test_identity_is_empty_plan(self):
        arr = Arrangement.from_sequence([1, 2, 3, 4])
        plan = plan_mcts(arr)
        assert simulate(plan, arr).valid
        assert len(plan.actions) == 2
        assert evaluate_cost(plan, arr.lattice).total == 0

    def test_valid_on_random_lines(self):
        cfg = MctsConfig(budget=128, seed=11)
        for seed in range(6):
            arr = random_arrangement(10, seed)
            for k in (1, 2):
                plan = plan_mcts(arr, k=k, config=cfg)
                assert simulate(plan, arr, k=k).valid
                assert plan.n_swaps >= min_swap_count(arr)

    def test_valid_on_random_boards(self):
        cfg = MctsConfig(budget=128, seed=5)
        for seed in range(4):
            arr = random_arrangement(9, seed, dims=(3, 3))
            plan = plan_mcts(arr, k=2, config=cfg)
            assert simulate(plan, arr, k=2).valid

    def test_matches_known_single_buffer_optimum(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_mcts(arr, k=1, config=MctsConfig(seed=3))
        assert simulate(plan, arr).valid
        assert evaluate_cost(plan, arr.lattice, CostParams(1.0, 1.0)).total <= 16

    def test_swap_only_objective_recovers_cycle_structure(self):
        """With travel free, the searched objective counts operations
        only, and the planner should find a swap-minimal plan."""
        params = CostParams(c_p=1.0, c_t=0.0)
        cfg = MctsConfig(budget=512, seed=1)
        for seed in range(30):
            arr = random_arrangement(7, seed)
            plan = plan_mcts(arr, k=2, params=params, config=cfg)
            assert simulate(plan, arr, k=2).valid
            assert plan.n_swaps == min_swap_count(arr)

    def test_more_budget_does_not_hurt(self):
        params = CostParams()
        medians = {}
        for budget in (100, 10_000):
            costs = []
            for seed in range(30):
                arr = random_arrangement(6, seed * 7 + 2)
                plan = plan_mcts(
                    arr, k=1, params=params, config=MctsConfig(budget=budget, seed=seed)
                )
                assert simulate(plan, arr).valid
                costs.append(evaluate_cost(plan, arr.lattice, params).total)
            medians[budget] = statistics.median(costs)
        assert medians[10_000] <= medians[100]

    def test_deterministic_for_fixed_seed(self):
        arr = random_arrangement(8, 4)
        cfg = MctsConfig(budget=64, seed=9)
        assert plan_mcts(arr, config=cfg).actions == plan_mcts(arr, config=cfg).actions

    def test_uniform_rollout_still_valid(self):
        arr = random_arrangement(6, 2)
        cfg = MctsConfig(budget=256, seed=7, rollout="uniform")
        plan = plan_mcts(arr, k=1, config=cfg)
        assert simulate(plan, arr).valid

    def test_range_prune_off_still_valid(self):
        arr = random_arrangement(8, 6)
        cfg = MctsConfig(budget=128, seed=2, range_prune=False)
        plan = plan_mcts(arr, k=2, config=cfg)
        assert simulate(plan, arr, k=2).valid

    def test_unknown_rollout_rejected(self):
        with pytest.raises(ValueError):
            plan_mcts(random_arrangement(5, 0), config=MctsConfig(rollout="greedy"))

    def test_zero_budget_rejected(self):
        with pytest.raises(InvalidConfig):
            plan_mcts(random_arrangement(5, 0), config=MctsConfig(budget=0))
