"""Single-buffer planners: following, switching, splicing, exact."""

import itertools
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap.errors import InvalidPlanStructure
from latticeswap.lattice import (
    EMPTY,
    Arrangement,
    Lattice,
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
from latticeswap.multi_buffer import plan_multi_buffer_dp
from latticeswap.search import SearchLimits, min_swap_astar
from latticeswap.single_buffer import (
    DETOUR_SLACK_2D,
    ON_SEGMENT_SLACK,
    compose_group_actions,
    greedy_switch_actions,
    plan_cycle_following,
    plan_cycle_switching,
    plan_single_buffer_2d,
    plan_single_buffer_exact,
    splice_actions,
)
from oracles import (
    reference_compose_group_actions,
    reference_greedy_switch_actions,
    reference_splice_actions,
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


def adjacent_swap_row(m):
    """Cells 2i - 1 and 2i swapped: m // 2 groups of one 2-cycle each."""
    placement = list(range(1, m + 1))
    for i in range(0, m - 1, 2):
        placement[i], placement[i + 1] = placement[i + 1], placement[i]
    return Arrangement.from_sequence(placement)


def one_group_row(m):
    """One group: a cycle through the left half and cell m, whose long
    carry to cell m passes 2-cycles on every pair of the right half."""
    half = m // 2
    placement = [*range(2, half + 1), m, *range(half + 1, m)]
    for c in range(half + 1, m - 1, 2):
        placement[c - 1], placement[c] = c + 1, c
    placement.append(1)
    return Arrangement.from_sequence(placement)


def outcome(fn, *args):
    """The actions ``fn`` returns, or the message it raises."""
    try:
        return fn(*args)
    except InvalidPlanStructure as exc:
        return f"InvalidPlanStructure: {exc}"


@st.composite
def placements(draw, m):
    """A uniformly shuffled placement of m objects, or one made of many
    short cycles, where the nearest-first order and the switching rule
    have more to choose from."""
    cells = draw(st.permutations(list(range(1, m + 1))))
    if draw(st.booleans()):
        return cells
    placement = [0] * m
    at = 0
    while at < m:
        chain = cells[at : at + draw(st.integers(1, 3))]
        at += len(chain)
        for i, cell in enumerate(chain):
            placement[cell - 1] = chain[(i + 1) % len(chain)]
    return placement


row_perms = st.integers(min_value=2, max_value=60).flatmap(placements)
board_perms = st.tuples(st.integers(1, 7), st.integers(2, 7)).flatmap(
    lambda dims: st.tuples(st.just(dims), placements(dims[0] * dims[1]))
)
slacks = st.sampled_from([0.0, ON_SEGMENT_SLACK, DETOUR_SLACK_2D, 2.0, 2.5, 4.5])
orders = st.sampled_from(["canonical", "nearest"])
# Chains of a one-buffer tour: a bare pick, swaps, a bare deposit.
chains = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=2, max_size=5).map(
    lambda stops: [
        PickNSwap(cell, EMPTY if i == 0 else stops[i - 1][1], EMPTY if i == len(stops) - 1 else obj)
        for i, (cell, obj) in enumerate(stops)
    ]
)
action_lists = st.one_of(
    st.lists(chains, max_size=3).map(lambda cs: [a for c in cs for a in c]),
    st.lists(st.builds(PickNSwap, st.integers(1, 12), st.integers(0, 4), st.integers(0, 4)), max_size=6),
)


class TestAgainstReferences:
    """The skip-pointer tours and the one-pass splice return the same
    actions as the plain quadratic forms in ``oracles``."""

    @given(row_perms, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_their_shares(self, perm, data):
        arr = Arrangement.from_sequence(list(perm))
        lattice = arr.lattice
        cycles = nontrivial_cycles(arr)
        keep = data.draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
        share = [c for c, kept in zip(cycles, keep) if kept]
        for scope in (cycles, share):
            assert greedy_switch_actions(scope, lattice) == reference_greedy_switch_actions(scope, lattice)
            per_group = [greedy_switch_actions(g.cycles, lattice) for g in group_cycles(scope, lattice)]
            assert per_group == [
                reference_greedy_switch_actions(g.cycles, lattice) for g in group_cycles(scope, lattice)
            ]
            assert compose_group_actions(per_group) == reference_compose_group_actions(per_group)

    @given(row_perms, slacks, orders)
    @settings(max_examples=150, deadline=None)
    def test_rows_at_every_slack_and_order(self, perm, slack, order):
        arr = Arrangement.from_sequence(list(perm))
        cycles = nontrivial_cycles(arr)
        assert greedy_switch_actions(cycles, arr.lattice, slack, order) == reference_greedy_switch_actions(
            cycles, arr.lattice, slack, order
        )

    @given(board_perms, slacks, orders)
    @settings(max_examples=100, deadline=None)
    def test_boards(self, board, slack, order):
        dims, perm = board
        arr = Arrangement(Lattice(dims), tuple(perm))
        cycles = nontrivial_cycles(arr)
        assert greedy_switch_actions(cycles, arr.lattice, slack, order) == reference_greedy_switch_actions(
            cycles, arr.lattice, slack, order
        )

    @pytest.mark.parametrize("m", [300, 1000])
    def test_larger_random_and_structured_rows(self, m):
        rows = [random_arrangement(m, seed) for seed in range(3)] + [adjacent_swap_row(m), one_group_row(m)]
        for arr in rows:
            lattice = arr.lattice
            groups = group_cycles(nontrivial_cycles(arr), lattice)
            per_group = [greedy_switch_actions(g.cycles, lattice) for g in groups]
            reference = [reference_greedy_switch_actions(g.cycles, lattice) for g in groups]
            assert per_group == reference
            assert compose_group_actions(per_group) == reference_compose_group_actions(reference)

    @given(st.lists(action_lists, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_compose_on_arbitrary_inputs(self, per_group):
        assert outcome(compose_group_actions, per_group) == outcome(reference_compose_group_actions, per_group)

    @given(action_lists, action_lists)
    @settings(max_examples=200, deadline=None)
    def test_splice_on_arbitrary_inputs(self, outer, inner):
        assert outcome(splice_actions, outer, inner) == outcome(reference_splice_actions, outer, inner)


class TestLinearTime:
    """Rows on which a pass per carried step or per group is quadratic.
    The bounds are generous: a linear pass needs a fraction of them,
    and the quadratic forms need over ten times as long."""

    def timed(self, planner, arr, k=1):
        t0 = perf_counter()
        plan = planner(arr)
        elapsed = perf_counter() - t0
        assert simulate(plan, arr, k).valid
        return elapsed

    def test_switch_on_adjacent_swaps(self):
        assert self.timed(plan_cycle_switching, adjacent_swap_row(20_000)) < 1.5

    def test_dp_on_adjacent_swaps(self):
        assert self.timed(lambda arr: plan_multi_buffer_dp(arr, 2), adjacent_swap_row(20_000), k=2) < 3.0

    def test_switch_on_one_group(self):
        arr = one_group_row(10_000)
        assert len(group_cycles(nontrivial_cycles(arr), arr.lattice)) == 1
        assert self.timed(plan_cycle_switching, arr) < 1.0
