"""Ground-truth planners and the pruned action enumeration."""

import pytest

from latticeswap.errors import InvalidConfig, PlanningTimeout, SizeLimitExceeded
from latticeswap.lattice import EMPTY, Arrangement, nontrivial_cycles, random_arrangement
from latticeswap.oracle import OracleLimits, plan_optimal, plan_optimal_unrestricted
from latticeswap.plan import (
    CostParams,
    evaluate_cost,
    min_swap_count,
    simulate,
    travel_distance,
)
from latticeswap.search import apply_action, enumerate_actions
from oracles import brute_min_operations, brute_min_travel

TWO_CYCLE_BOARD = [4, 2, 5, 1, 3]
THREE_CYCLE_BOARD = [2, 3, 1, 5, 7, 8, 4, 6]


class TestPlanOptimal:
    def test_worked_examples(self):
        arr2 = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_optimal(arr2)
        assert (plan.n_swaps, travel_distance(plan, arr2.lattice)) == (6, 10)

        arr3 = Arrangement.from_sequence(THREE_CYCLE_BOARD)
        one = plan_optimal(arr3, k=1)
        two = plan_optimal(arr3, k=2)
        assert (one.n_swaps, travel_distance(one, arr3.lattice)) == (11, 16)
        assert (two.n_swaps, travel_distance(two, arr3.lattice)) == (11, 14)
        assert simulate(two, arr3, k=2).valid

    @pytest.mark.parametrize("k", [1, 2])
    def test_agrees_with_raw_state_search(self, k):
        for seed in range(8):
            arr = random_arrangement(5, seed)
            plan = plan_optimal(arr, k=k)
            assert simulate(plan, arr, k=k).valid
            assert plan.n_swaps == brute_min_operations(arr, k=k) == min_swap_count(arr)
            assert travel_distance(plan, arr.lattice) == pytest.approx(
                brute_min_travel(arr, k=k)
            )

    def test_buffers_beyond_cycle_count_are_idle(self):
        for seed in range(5):
            arr = random_arrangement(7, seed)
            n = len(nontrivial_cycles(arr))
            if n == 0:
                continue
            enough = travel_distance(plan_optimal(arr, k=n), arr.lattice)
            extra = travel_distance(plan_optimal(arr, k=min(n + 2, 6)), arr.lattice)
            assert extra == pytest.approx(enough)

    def test_size_and_k_caps(self):
        big = Arrangement.from_sequence([*range(2, 14), 1])
        with pytest.raises(SizeLimitExceeded):
            plan_optimal(big)
        with pytest.raises(SizeLimitExceeded):
            plan_optimal(Arrangement.from_sequence([2, 1]), k=7)

    def test_timeout(self):
        # Adjacent pairs swapped on the largest row the scope cap lets
        # through: far more than the 1024 expansions between clock checks.
        n = OracleLimits.size_cap
        arr = Arrangement.from_sequence([c + 1 if c % 2 else c - 1 for c in range(1, n + 1)])
        with pytest.raises(PlanningTimeout):
            plan_optimal(arr, k=2, timeout_s=0.0)


class TestPlanOptimalUnrestricted:
    def test_identity_costs_nothing(self):
        arr = Arrangement.from_sequence([1, 2, 3])
        plan = plan_optimal_unrestricted(arr)
        assert evaluate_cost(plan, arr.lattice).total == 0

    def test_worked_example_cost(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_optimal_unrestricted(arr, k=1, params=CostParams(1.0, 1.0))
        assert simulate(plan, arr).valid
        assert evaluate_cost(plan, arr.lattice, CostParams(1.0, 1.0)).total == 16

    def test_second_buffer_never_hurts(self):
        params = CostParams(1.0, 1.0)
        for seed in range(5):
            arr = random_arrangement(6, seed)
            c1 = evaluate_cost(plan_optimal_unrestricted(arr, 1, params), arr.lattice, params)
            c2 = evaluate_cost(plan_optimal_unrestricted(arr, 2, params), arr.lattice, params)
            assert c2.total <= c1.total + 1e-9

    def test_never_beaten_by_swap_minimal_planner(self):
        params = CostParams(1.0, 1.0)
        for seed in range(6):
            arr = random_arrangement(5, seed + 20)
            free = evaluate_cost(plan_optimal_unrestricted(arr, 1, params), arr.lattice, params)
            fixed = evaluate_cost(plan_optimal(arr, 1), arr.lattice, params)
            assert free.total <= fixed.total + 1e-9

    def test_timeout(self):
        arr = Arrangement.from_sequence([2, 1, 4, 3, 6, 5, 8, 7])
        with pytest.raises(PlanningTimeout):
            plan_optimal_unrestricted(arr, k=2, timeout_s=0.0)

    def test_board_search_is_guided_by_the_projections(self):
        """On a 2x4 board with travel weighed far above operations, the
        projected cut-flow bound guides the search to the optimum within
        a 2 s limit, which "farthest unresolved cell, then home" overran
        tenfold."""
        arr = Arrangement.from_sequence((8, 4, 7, 6, 3, 5, 2, 1), (2, 4))
        plan = plan_optimal_unrestricted(arr, 1, CostParams(1.0, 1e5), timeout_s=2.0)
        assert simulate(plan, arr).valid
        assert (plan.n_swaps, travel_distance(plan, arr.lattice)) == (10, 16.284695155040843)

    def test_caps(self):
        with pytest.raises(SizeLimitExceeded):
            plan_optimal_unrestricted(random_arrangement(9, 0))
        with pytest.raises(SizeLimitExceeded):
            plan_optimal_unrestricted(random_arrangement(6, 0), k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_needs_a_buffer(self, k):
        with pytest.raises(InvalidConfig):
            plan_optimal_unrestricted(Arrangement.from_sequence([2, 1, 3]), k=k)


class TestEnumerateActions:
    """The state kernel on scope positions: cell ``c`` of the 8-cell row
    is position ``c - 1``, and position 8 is both the rest cell and "no
    object"; an object is named by its goal cell's position."""

    N = 8

    def pos(self, *labels):
        return tuple(self.N if c == EMPTY else c - 1 for c in labels)

    def test_holding_far_goals_narrows_the_window(self):
        # Mid-plan state of the two-group example: objects 1 and 4 in
        # hand, robot parked at cell 7.  Everything useful now happens
        # between the nearest held goal on the left (4) and the row end.
        contents = self.pos(2, 3, EMPTY, 5, 7, 8, EMPTY, 6)
        held, at = self.pos(1, 4), 6
        pruned = enumerate_actions(contents, held, at, 2, range_prune=True)
        assert pruned
        assert all(3 <= a[0] <= 7 for a in pruned)
        full = enumerate_actions(contents, held, at, 2)
        assert {a[0] for a in full} - {a[0] for a in pruned} == set(self.pos(1, 2, 3))

    def test_goal_state_offers_nothing(self):
        contents = tuple(range(self.N))
        assert enumerate_actions(contents, (), 0, 2) == []

    def test_resolved_cells_left_alone(self):
        contents = self.pos(1, 3, 2, 4, 5, 6, 7, 8)
        acts = enumerate_actions(contents, (), 0, 1)
        assert {a[0] for a in acts} == set(self.pos(2, 3))

    def test_held_goal_forces_deposit(self):
        contents = self.pos(2, EMPTY, 1, 4, 5, 6, 7, 8)
        acts = enumerate_actions(contents, self.pos(3), 2, 1)
        at_three = [a for a in acts if a[0] == 2]
        assert at_three == [self.pos(3, 3, 1)]

    def test_full_hand_must_deposit(self):
        contents = self.pos(2, 1, EMPTY, EMPTY, 5, 6, 7, 8)
        acts = enumerate_actions(contents, self.pos(3, 4), 4, 2)
        assert acts
        assert all(a[1] != self.N for a in acts)

    def test_apply_action_round_trip(self):
        contents = self.pos(2, 3, 1, 5, 7, 8, 4, 6)
        nc, nh = apply_action(contents, (), self.pos(3, EMPTY, 1), self.N)
        assert nc[2] == self.N and nh == self.pos(1)
        nc, nh = apply_action(nc, nh, self.pos(1, 1, 2), self.N)
        assert nc[0] == 0 and nh == self.pos(2)
