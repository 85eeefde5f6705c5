"""Exact swap-minimal search, the state kernel and the buffer slot labeling helper."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap import search
from latticeswap.bench import PLANNERS
from latticeswap.errors import InvalidConfig, PlanningTimeout, SearchGaveUp, SizeLimitExceeded
from latticeswap.lattice import (
    EMPTY,
    Arrangement,
    Lattice,
    leg_function,
    nontrivial_cycles,
    random_arrangement,
    resident_map,
)
from latticeswap.oracle import plan_optimal_unrestricted
from latticeswap.plan import (
    CostParams,
    PickNSwap,
    bracket,
    min_swap_count,
    simulate,
    travel_distance,
)
from latticeswap.search import (
    SearchLimits,
    _astar,
    apply_action,
    assign_buffers,
    enumerate_actions,
    leg_table,
    min_swap_astar,
    scope_contents,
    state_bound,
    travel_lower_bound,
)
from latticeswap.single_buffer import plan_cycle_switching
from oracles import brute_min_travel, state_cut_bound, state_projection_bound


def solve(arr, k=1, limits=SearchLimits()):
    actions = min_swap_astar(arr.lattice, nontrivial_cycles(arr), k=k, limits=limits)
    return bracket(actions, arr.lattice)


class TestMinSwapAstar:
    def test_identity_needs_no_actions(self):
        arr = Arrangement.from_sequence([1, 2, 3])
        assert min_swap_astar(arr.lattice, nontrivial_cycles(arr)) == []

    def test_worked_example(self):
        arr = Arrangement.from_sequence([4, 2, 5, 1, 3])
        plan = solve(arr)
        assert simulate(plan, arr).valid
        assert plan.n_swaps == 6
        assert travel_distance(plan, arr.lattice) == 10

    def test_swap_count_is_minimal(self):
        for seed in range(25):
            arr = random_arrangement(6, seed)
            plan = solve(arr)
            assert simulate(plan, arr).valid
            assert plan.n_swaps == min_swap_count(arr)

    @pytest.mark.parametrize("k", [1, 2])
    def test_travel_matches_brute_force(self, k):
        """Restricting to the structured swap-minimal action space loses
        nothing: travel equals a brute-force search over raw states."""
        for seed in range(10):
            arr = random_arrangement(5, seed)
            plan = solve(arr, k=k)
            assert simulate(plan, arr, k=k).valid
            assert travel_distance(plan, arr.lattice) == pytest.approx(
                brute_min_travel(arr, k=k)
            )

    def test_travel_matches_brute_force_2d(self):
        for seed in range(6):
            arr = random_arrangement(6, seed, dims=(2, 3))
            plan = solve(arr)
            assert simulate(plan, arr).valid
            assert travel_distance(plan, arr.lattice) == pytest.approx(brute_min_travel(arr))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_travel_matches_brute_force_on_cycle_subsets(self, data):
        """On short rows and 2x3 boards, at k = 1..3, the search over all
        of a board's cycles or a share of them travels exactly as little
        as a brute-force search over raw states of the board on which
        only those cycles are displaced."""
        dims = data.draw(st.sampled_from([(2,), (3,), (4,), (5,), (6,), (2, 3)]))
        k = data.draw(st.integers(min_value=1, max_value=3))
        lattice = Lattice(dims)
        perm = data.draw(st.permutations(list(range(1, lattice.m + 1))))
        cycles = nontrivial_cycles(Arrangement(lattice, tuple(perm)))
        if data.draw(st.booleans()):
            scope = cycles
        else:
            keep = data.draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
            scope = [c for c, kept in zip(cycles, keep) if kept]
        placement = list(range(1, lattice.m + 1))
        for cell, obj in resident_map(scope).items():
            placement[cell - 1] = obj
        arr = Arrangement(lattice, tuple(placement))
        plan = bracket(min_swap_astar(lattice, scope, k=k), lattice)
        assert simulate(plan, arr, k=k).valid
        assert abs(travel_distance(plan, lattice) - brute_min_travel(arr, k=k)) <= 1e-9

    def test_distance_calls_bounded_by_leg_table(self, monkeypatch):
        """One search computes each leg between two of its n scope cells
        and the rest cell once: at most (n+1)**2 distance calls, checked
        or through the unchecked ``leg_function``."""
        arr = Arrangement.from_sequence([2, 3, 1, 5, 4, 7, 8, 9, 6])
        calls = 0
        original = Lattice.distance

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return original(self, a, b)

        def counted_legs(dims):
            def leg(a, b):
                nonlocal calls
                calls += 1
                return leg_function(dims)(a, b)

            return leg

        monkeypatch.setattr(Lattice, "distance", counted)
        monkeypatch.setattr(search, "leg_function", counted_legs)
        actions = min_swap_astar(arr.lattice, nontrivial_cycles(arr), k=2)
        monkeypatch.undo()
        assert simulate(bracket(actions, arr.lattice), arr, k=2).valid
        assert 0 < calls <= (9 + 1) ** 2

    def test_deeper_ties_cut_bound_calls(self, monkeypatch):
        """On a 13-cell one-group row at k=1 the bound is tight, and
        expanding the deeper of two states of equal g + h first walks
        its plateaus depth-first: 92 bound calls, where first-in
        first-out order made 2963."""
        arr = Arrangement.from_sequence([7, 3, 11, 13, 1, 9, 12, 4, 6, 8, 2, 5, 10])
        calls = 0

        def counted_bound(lattice, cells, k):
            bound = state_bound(lattice, cells, k)

            def counted(state):
                nonlocal calls
                calls += 1
                return bound(state)

            return counted

        monkeypatch.setattr(search, "state_bound", counted_bound)
        plan = solve(arr, k=1)
        monkeypatch.undo()
        assert simulate(plan, arr, k=1).valid
        assert travel_distance(plan, arr.lattice) == 64.0
        assert travel_lower_bound(arr.lattice, nontrivial_cycles(arr), 1) == 64.0
        assert calls <= 300

    def test_second_buffer_never_hurts(self):
        for seed in range(10):
            arr = random_arrangement(6, seed)
            t1 = travel_distance(solve(arr, k=1), arr.lattice)
            t2 = travel_distance(solve(arr, k=2), arr.lattice)
            assert t2 <= t1 + 1e-9

    def test_size_cap(self):
        shift = Arrangement.from_sequence([*range(2, 16), 1])
        with pytest.raises(SizeLimitExceeded):
            min_swap_astar(shift.lattice, nontrivial_cycles(shift))
        small = Arrangement.from_sequence([4, 2, 5, 1, 3])
        with pytest.raises(SizeLimitExceeded):
            min_swap_astar(small.lattice, nontrivial_cycles(small), limits=SearchLimits(size_cap=3))

    def test_timeout(self):
        pairs = Arrangement.from_sequence([2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13])
        with pytest.raises(PlanningTimeout):
            min_swap_astar(
                pairs.lattice,
                nontrivial_cycles(pairs),
                limits=SearchLimits(timeout_s=0.0),
            )

    def test_timeout_binds_short_searches(self):
        """The clock is read at the first expansion, so a spent limit
        stops even a search of a few expansions."""
        arr = Arrangement.from_sequence([2, 1, 3])
        with pytest.raises(PlanningTimeout):
            min_swap_astar(arr.lattice, nontrivial_cycles(arr), limits=SearchLimits(timeout_s=0.0))

    def test_rejects_zero_buffers(self):
        arr = Arrangement.from_sequence([2, 1])
        with pytest.raises(InvalidConfig):
            min_swap_astar(arr.lattice, nontrivial_cycles(arr), k=0)
        with pytest.raises(InvalidConfig):
            min_swap_astar(arr.lattice, [], k=0)


class TestSearchLoop:
    """The A* loop's tie rule and the leg table it prices steps from."""

    def test_deeper_state_of_equal_f_expands_first(self):
        """From ``s``, ``a`` (g=1, h=2) is pushed before ``b`` (g=2,
        h=1): equal f, and the deeper ``b`` goes first and reaches the
        goal ``t``, so ``a`` is never expanded."""
        graph = {"s": [("a", 1.0), ("b", 2.0)], "a": [("t", 2.0)], "b": [("t", 1.0)], "t": []}
        h = {"s": 3.0, "a": 2.0, "b": 1.0, "t": 0.0}
        order = []

        def expand(state):
            order.append(state)
            return [(nxt, step, (state, nxt)) for nxt, step in graph[state]]

        path = _astar("s", expand, h.__getitem__, lambda state: state == "t", 60.0)
        assert order == ["s", "b"]
        assert path == [("s", "b"), ("b", "t")]

    @pytest.mark.parametrize("dims", [(9,), (3, 4), (1, 5)])
    def test_leg_table_matches_distance_bit_for_bit(self, dims):
        lattice = Lattice(dims)
        cells = list(range(1, lattice.m + 1))
        legs = leg_table(lattice, cells)
        points = (*cells, lattice.rest)
        for p, a in enumerate(points):
            for q, b in enumerate(points):
                assert legs[p][q] == lattice.distance(a, b)

    @pytest.mark.parametrize("cells", [[0, 2], [2, 13], [1, 3, 99]])
    def test_leg_table_refuses_cells_outside_the_lattice(self, cells):
        with pytest.raises(ValueError):
            leg_table(Lattice((3, 4)), cells)
        with pytest.raises(ValueError):
            leg_table(Lattice((12,)), cells)


def draw_row(data, max_m=12):
    m = data.draw(st.integers(2, max_m), label="m")
    placement = data.draw(st.permutations(list(range(1, m + 1))), label="placement")
    return Arrangement.from_sequence(placement)


def draw_board(data):
    dims = data.draw(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4), (1, 6), (6, 1)]), label="dims")
    placement = data.draw(st.permutations(list(range(1, math.prod(dims) + 1))), label="placement")
    return Arrangement.from_sequence(placement, dims)


def path_states(arr, plan):
    """The search state before each act of ``plan`` and after the last,
    on the scope positions ``min_swap_astar`` uses, each with the
    plan's travel from there on.  Returns the scope cells and the
    states."""
    cycles = nontrivial_cycles(arr)
    cells = sorted(cell for c in cycles for cell in c.cells)
    n = len(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    label = {**index, EMPTY: n}  # an object is named by its goal cell's position
    acts = [a for a in plan.actions if not a.is_noop]
    assert all(a.cell == arr.lattice.rest for a in plan.actions if a.is_noop)
    stops = [arr.lattice.rest, *(a.cell for a in acts), arr.lattice.rest]
    steps = [arr.lattice.distance(a, b) for a, b in zip(stops, stops[1:])]
    remaining = sum(steps)
    assert remaining == travel_distance(plan, arr.lattice)
    state = (n, (), scope_contents(cells, resident_map(cycles)))
    path = []
    for a, step in zip(acts, steps):
        path.append((state, remaining))
        remaining -= step
        act = (index[a.cell], label[a.deposit], label[a.pick])
        contents, held = apply_action(state[2], state[1], act, n)
        state = (act[0], held, contents)
    path.append((state, remaining))
    return cells, path


def assert_static_bound_below_plans(arr, k, algos):
    cycles = nontrivial_cycles(arr)
    for algo in algos:
        try:
            plan = PLANNERS[algo](arr, k, cp=1.0, ct=1.0, timeout_s=60.0, budget=16, seed=0)
        except SearchGaveUp:
            # At a budget this low the tree search can commit its
            # action cap before the goal; then there is no plan.
            assert algo == "mcts"
            continue
        buffers = 1 if algo in ("follow", "switch", "exact", "2d-greedy") else k
        assert simulate(plan, arr, k=buffers).valid
        bound = travel_lower_bound(arr.lattice, cycles, buffers)
        assert bound <= travel_distance(plan, arr.lattice) + 1e-9, algo


def assert_state_bound_admissible(arr, k, reference):
    """At every state an ``opt``, ``dp``, unrestricted (m <= 8, k <= 2)
    and, on a board, ``exact`` plan passes through, the state form
    equals ``reference`` and is at most the plan's remaining travel."""
    algos = ("opt", "dp") if arr.lattice.ndim == 1 else ("opt", "dp", "exact")
    plans = [PLANNERS[algo](arr, k, timeout_s=60.0) for algo in algos]
    if arr.m <= (7 if arr.lattice.ndim == 1 else 8) and k <= 2:
        plans.append(plan_optimal_unrestricted(arr, k, CostParams(1.0, 1.0)))
    for plan in plans:
        cells, path = path_states(arr, plan)
        bound = state_bound(arr.lattice, cells, k)
        for state, remaining in path:
            assert bound(state) == reference(arr.lattice, cells, k, state)
            assert bound(state) <= remaining + 1e-9


class TestCutBound:
    """The cut-flow bound: the static form LB_k and the state form that
    ``min_swap_astar`` and the unrestricted oracle use, on rows and, as
    the axis projections, on boards."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_static_bound_is_below_every_plan(self, data):
        arr = draw_row(data)
        k = data.draw(st.integers(1, 3), label="k")
        assert_static_bound_below_plans(arr, k, ("follow", "switch", "exact", "dp", "opt", "mcts"))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_static_bound_is_below_every_plan_on_boards(self, data):
        arr = draw_board(data)
        k = data.draw(st.integers(1, 3), label="k")
        algos = ("follow", "switch", "2d-greedy", "exact", "dp", "opt", "mcts")
        assert_static_bound_below_plans(arr, k, algos)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_start_state_gives_the_static_bound(self, data):
        """On the whole row, and on the scope of any share of the
        cycles, the state form at the start state equals the static
        form and the per-gap definition."""
        arr = draw_row(data, max_m=30)
        k = data.draw(st.integers(1, 3), label="k")
        m = arr.m
        row = range(1, m + 1)
        whole = state_bound(arr.lattice, row, k)

        def start(placement):
            return (m, (), tuple(obj - 1 for obj in placement))

        cycles = nontrivial_cycles(arr)
        assert (
            whole(start(arr.placement))
            == travel_lower_bound(arr.lattice, cycles, k)
            == state_cut_bound(row, arr.lattice.rest, k, start(arr.placement))
        )
        keep = data.draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
        scope = [c for c, kept in zip(cycles, keep) if kept]
        placement = list(row)
        for cell, obj in resident_map(scope).items():
            placement[cell - 1] = obj
        assert travel_lower_bound(arr.lattice, scope, k) == state_cut_bound(
            row, arr.lattice.rest, k, start(placement)
        )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_state_bound_is_admissible_along_plans(self, data):
        arr = draw_row(data)
        k = data.draw(st.integers(1, 3), label="k")
        assert_state_bound_admissible(
            arr, k, lambda lattice, cells, k, state: state_cut_bound(cells, lattice.rest, k, state)
        )

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_state_bound_is_admissible_along_plans_on_boards(self, data):
        """Also checks that ``travel_lower_bound`` is the reference at
        the start state."""
        arr = draw_board(data)
        k = data.draw(st.integers(1, 3), label="k")
        assert_state_bound_admissible(arr, k, state_projection_bound)
        cycles = nontrivial_cycles(arr)
        cells = sorted(cell for c in cycles for cell in c.cells)
        start = (len(cells), (), scope_contents(cells, resident_map(cycles)))
        lb = travel_lower_bound(arr.lattice, cycles, k)
        assert lb == state_projection_bound(arr.lattice, cells, k, start)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_row_board_bound_is_the_row_bound(self, data):
        """On a 1 x m board every cell has the same row, so the row axis
        has one point and adds nothing: the bound is the column axis's,
        which is the bound on the m-cell row, at every state along the
        ``opt`` and ``dp`` plans of either lattice."""
        row = draw_row(data, max_m=9)
        k = data.draw(st.integers(1, 3), label="k")
        board = Arrangement.from_sequence(row.placement, (1, row.m))
        for arr in (row, board):
            for algo in ("opt", "dp"):
                cells, path = path_states(arr, PLANNERS[algo](arr, k, timeout_s=60.0))
                on_row = state_bound(row.lattice, cells, k)
                on_board = state_bound(board.lattice, cells, k)
                for state, _ in path:
                    assert on_board(state) == on_row(state)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_switching_tour_meets_the_one_buffer_bound(self, data):
        arr = draw_row(data)
        plan = plan_cycle_switching(arr)
        bound = travel_lower_bound(arr.lattice, nontrivial_cycles(arr), 1)
        assert travel_distance(plan, arr.lattice) == bound

    def test_needs_a_buffer(self):
        for dims in ((6,), (2, 3)):
            arr = random_arrangement(6, 0, dims=dims)
            with pytest.raises(InvalidConfig):
                travel_lower_bound(arr.lattice, nontrivial_cycles(arr), 0)


class TestStateKernel:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_empty_cells_match_hand(self, data):
        """Every reachable state has as many empty cells as objects in
        hand, so an empty hand leaves no cell empty: the MCTS rollout
        picks from every unresolved cell without a filter."""
        dims = data.draw(st.sampled_from([(6,), (9,), (12,), (2, 3), (3, 3), (3, 4)]), label="dims")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        arr = random_arrangement(math.prod(dims), seed, dims=dims if len(dims) > 1 else None)
        k = data.draw(st.integers(1, 3), label="k")
        range_prune = data.draw(st.booleans(), label="range_prune")
        cycles = nontrivial_cycles(arr)
        cells = sorted(cell for c in cycles for cell in c.cells)
        n = len(cells)
        pos, held, contents = n, (), scope_contents(cells, resident_map(cycles))
        assert contents.count(n) == len(held) == 0
        for _ in range(4 * arr.m):
            acts = enumerate_actions(contents, held, pos, k, range_prune)
            if not acts:
                break
            act = data.draw(st.sampled_from(acts))
            contents, held = apply_action(contents, held, act, n)
            pos = act[0]
            assert contents.count(n) == len(held)


class TestAssignBuffers:
    def test_slot_reuse(self):
        actions = [
            PickNSwap(2, EMPTY, 3),  # pick 3, slot 1
            PickNSwap(5, EMPTY, 6),  # pick 6, slot 2
            PickNSwap(3, 3, 4),      # swap: 4 inherits slot 1
            PickNSwap(6, 6, EMPTY),  # slot 2 freed
            PickNSwap(4, 4, EMPTY),  # slot 1 freed
        ]
        assert assign_buffers(actions, k=2) == (1, 2, 1, 2, 1)

    def test_freed_slot_is_lowest_available(self):
        actions = [
            PickNSwap(2, EMPTY, 3),
            PickNSwap(5, EMPTY, 6),
            PickNSwap(3, 3, EMPTY),
            PickNSwap(4, EMPTY, 7),  # slot 1 free again, taken before slot 3
            PickNSwap(6, 6, EMPTY),
            PickNSwap(7, 7, EMPTY),
        ]
        assert assign_buffers(actions, k=3) == (1, 2, 1, 1, 2, 1)

    def test_noop_gets_none(self):
        actions = [PickNSwap(1, EMPTY, EMPTY), PickNSwap(2, EMPTY, 3), PickNSwap(3, 3, EMPTY)]
        assert assign_buffers(actions, k=1) == (None, 1, 1)

    def test_labels_stay_within_capacity(self):
        for seed in range(8):
            arr = random_arrangement(7, seed)
            for k in (1, 2, 3):
                actions = min_swap_astar(arr.lattice, nontrivial_cycles(arr), k=k)
                labels = assign_buffers(actions, k)
                in_use: dict[int, int] = {}
                for a, slot in zip(actions, labels):
                    assert slot is not None and 1 <= slot <= k
                    if a.deposit != EMPTY:
                        assert in_use.pop(a.deposit) == slot
                    if a.pick != EMPTY:
                        assert slot not in in_use.values()
                        in_use[a.pick] = slot
                assert not in_use
