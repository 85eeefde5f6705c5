"""Single-buffer planners: following, switching, splicing, exact."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap.errors import InvalidPlanStructure
from latticeswap.lattice import (
    EMPTY,
    Arrangement,
    group_cycles,
    nontrivial_cycles,
    random_arrangement,
)
from latticeswap.plan import (
    PickNSwap,
    bracket,
    min_swap_count,
    sequence_travel,
    simulate,
    travel_distance,
)
from latticeswap.search import SearchLimits, min_swap_astar
from latticeswap.single_buffer import (
    compose_group_actions,
    greedy_switch_actions,
    plan_cycle_following,
    plan_cycle_switching,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
    splice_actions,
)

TWO_CYCLE_BOARD = [4, 2, 5, 1, 3]
THREE_CYCLE_BOARD = [2, 3, 1, 5, 7, 8, 4, 6]

small_perms = st.integers(min_value=2, max_value=9).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
)


def costs(plan, arr):
    return plan.n_swaps, travel_distance(plan, arr.lattice)


class TestWorkedExamples:
    def test_following_plan_verbatim(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_cycle_following(arr)
        E = EMPTY
        assert plan.actions == (
            PickNSwap(1, E, E),
            PickNSwap(1, E, 4),
            PickNSwap(4, 4, 1),
            PickNSwap(1, 1, E),
            PickNSwap(3, E, 5),
            PickNSwap(5, 5, 3),
            PickNSwap(3, 3, E),
            PickNSwap(1, E, E),
        )
        assert costs(plan, arr) == (6, 14)

    def test_switching_saves_travel(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_cycle_switching(arr)
        assert simulate(plan, arr).valid
        assert costs(plan, arr) == (6, 10)
        assert costs(plan_single_buffer_exact(arr), arr) == (6, 10)

    def test_two_group_instance(self):
        arr = Arrangement.from_sequence(THREE_CYCLE_BOARD)
        # Following returns to the rest side between chains: 4 + 9 + 6
        # within the groups plus the 5-cell ride home.
        assert costs(plan_cycle_following(arr), arr) == (11, 24)
        assert costs(plan_cycle_switching(arr), arr) == (11, 16)
        assert costs(plan_single_buffer_exact(arr), arr) == (11, 16)

    def test_identity_is_a_noop_plan(self):
        arr = Arrangement.from_sequence([1, 2, 3, 4])
        for planner in (plan_cycle_following, plan_cycle_switching, plan_single_buffer_exact):
            plan = planner(arr)
            assert simulate(plan, arr).valid
            assert costs(plan, arr) == (0, 0)


class TestProperties:
    @given(small_perms)
    @settings(max_examples=40, deadline=None)
    def test_valid_swap_minimal_and_ordered(self, perm):
        arr = Arrangement.from_sequence(list(perm))
        follow = plan_cycle_following(arr)
        switch = plan_cycle_switching(arr)
        exact = plan_single_buffer_exact(arr)
        need = min_swap_count(arr)
        for plan in (follow, switch, exact):
            assert simulate(plan, arr).valid
            assert plan.n_swaps == need
        t_follow = travel_distance(follow, arr.lattice)
        t_switch = travel_distance(switch, arr.lattice)
        t_exact = travel_distance(exact, arr.lattice)
        assert t_exact <= t_switch + 1e-9 <= t_follow + 2e-9

    def test_switching_is_exact_on_small_lines(self):
        """On 1D boards the greedy switching tour is not a heuristic:
        it matches the optimal swap-minimal travel everywhere we can
        afford to check (every permutation of up to six cells)."""
        for m in range(2, 7):
            for perm in itertools.permutations(range(1, m + 1)):
                arr = Arrangement.from_sequence(perm)
                t_switch = travel_distance(plan_cycle_switching(arr), arr.lattice)
                t_exact = travel_distance(plan_single_buffer_exact(arr), arr.lattice)
                assert t_switch == pytest.approx(t_exact), perm

    def test_switching_matches_exact_on_random_lines(self):
        for seed in range(20):
            arr = random_arrangement(9, seed)
            t_switch = travel_distance(plan_cycle_switching(arr), arr.lattice)
            t_exact = travel_distance(plan_single_buffer_exact(arr), arr.lattice)
            assert t_switch == pytest.approx(t_exact)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_spliced_switching_matches_astar_on_cycle_subsets(self, data):
        """The spliced greedy tour of any set of cycles of a short row,
        all of them or a share of them, travels as little as the exact
        swap-minimal search over the same cycles."""
        m = data.draw(st.integers(min_value=2, max_value=10))
        perm = data.draw(st.permutations(list(range(1, m + 1))))
        arr = Arrangement.from_sequence(list(perm))
        lattice = arr.lattice
        cycles = nontrivial_cycles(arr)
        keep = data.draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
        share = [c for c, kept in zip(cycles, keep) if kept]
        runs = group_cycles(share, lattice)
        greedy = compose_group_actions([greedy_switch_actions(r.cycles, lattice) for r in runs])
        exact = min_swap_astar(lattice, share, 1)
        assert abs(sequence_travel(greedy, lattice) - sequence_travel(exact, lattice)) <= 1e-9

    def test_deterministic(self):
        arr = random_arrangement(30, 7)
        assert plan_cycle_switching(arr).actions == plan_cycle_switching(arr).actions


class TestSplicing:
    def test_savings_identity(self):
        """Splicing beats concatenating the group plans by exactly twice
        the rest-to-rightmost distance of every group but the last."""
        for seed in range(15):
            arr = random_arrangement(14, seed * 31 + 5)
            lattice = arr.lattice
            groups = group_cycles(nontrivial_cycles(arr), lattice)
            if len(groups) < 2:
                continue
            parts = [greedy_switch_actions(g.cycles, lattice) for g in groups]
            plans = [bracket(p, lattice) for p in parts]
            combined = bracket(compose_group_actions(parts), lattice)
            assert simulate(combined, arr).valid
            total_parts = sum(travel_distance(p, lattice) for p in plans)
            saved = sum(
                2 * lattice.distance(lattice.rest, max(g.cells)) for g in groups[:-1]
            )
            assert travel_distance(combined, lattice) == pytest.approx(total_parts - saved)

    def test_group_switching_equals_whole_plan(self):
        for seed in range(10):
            arr = random_arrangement(12, seed)
            lattice = arr.lattice
            groups = group_cycles(nontrivial_cycles(arr), lattice)
            plans = [bracket(greedy_switch_actions(g.cycles, lattice), lattice) for g in groups]
            inner = [[a for a in p.actions if not a.is_noop] for p in plans]
            combined = bracket(compose_group_actions(inner), lattice)
            assert combined.actions == plan_cycle_switching(arr).actions

    def test_outer_empty_handed_at_rightmost(self):
        outer = [PickNSwap(3, EMPTY, 5), PickNSwap(5, 5, EMPTY)]
        inner = [PickNSwap(7, EMPTY, 8), PickNSwap(8, 8, 7), PickNSwap(7, 7, EMPTY)]
        with pytest.raises(InvalidPlanStructure):
            splice_actions(outer, inner)

    def test_inner_must_open_with_bare_pick(self):
        outer = [PickNSwap(1, EMPTY, 2), PickNSwap(2, 2, 1), PickNSwap(1, 1, EMPTY)]
        with pytest.raises(InvalidPlanStructure):
            splice_actions(outer, [PickNSwap(4, 4, EMPTY)])

    def test_empty_sides_pass_through(self):
        chain = [PickNSwap(1, EMPTY, 2), PickNSwap(2, 2, 1), PickNSwap(1, 1, EMPTY)]
        assert splice_actions([], chain) == chain
        assert splice_actions(chain, []) == chain


class TestTwoDimensional:
    def test_valid_and_swap_minimal(self):
        for seed in range(12):
            arr = random_arrangement(16, seed, dims=(4, 4))
            plan = plan_single_buffer_2d(arr)
            assert simulate(plan, arr).valid
            assert plan.n_swaps == min_swap_count(arr)

    def test_matches_exact_travel_on_tiny_boards(self):
        gaps = []
        for seed in range(10):
            arr = random_arrangement(6, seed, dims=(2, 3))
            t_greedy = travel_distance(plan_single_buffer_2d(arr), arr.lattice)
            t_exact = travel_distance(plan_single_buffer_exact(arr), arr.lattice)
            assert t_greedy >= t_exact - 1e-9
            gaps.append(t_greedy - t_exact)
        # The greedy tour is allowed to lose a little, not a lot.
        assert sum(gaps) / len(gaps) < 1.0


class TestFallback:
    def test_degraded_search_is_flagged(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        plan = plan_single_buffer_exact(arr, limits=SearchLimits(size_cap=3))
        assert plan.fallback
        assert simulate(plan, arr).valid
        assert costs(plan, arr) == (6, 10)

    def test_clean_search_is_not(self):
        arr = Arrangement.from_sequence(TWO_CYCLE_BOARD)
        assert not plan_single_buffer_exact(arr).fallback
        assert not plan_cycle_switching(arr).fallback
