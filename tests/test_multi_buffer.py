"""Buffer assignment, sequence interleaving, and the k-buffer pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap.errors import MergeStateLimit
from latticeswap.lattice import (
    EMPTY,
    Arrangement,
    Cycle,
    Lattice,
    decompose_cycles,
    nontrivial_cycles,
    random_arrangement,
)
from latticeswap.multi_buffer import (
    PipelineConfig,
    assign_cycles,
    merge_task_sequences,
    plan_multi_buffer_dp,
)
from latticeswap.plan import (
    PickNSwap,
    min_swap_count,
    sequence_travel,
    simulate,
    travel_distance,
)
from latticeswap.single_buffer import plan_single_buffer_2d, plan_single_buffer_exact
from oracles import exhaustive_best_min_load, exhaustive_interleave_travel

THREE_CYCLE_BOARD = [2, 3, 1, 5, 7, 8, 4, 6]


def min_load(assignment, cycles):
    return min(sum(cycles[i].size + 1 for i in idxs) for idxs in assignment)


def visit(cell):
    return PickNSwap(cell, EMPTY, EMPTY)


class TestAssignCycles:
    def test_fewer_cycles_than_buffers(self):
        cycles = [Cycle((4, 9)), Cycle((1, 2))]
        assert assign_cycles(cycles, 4) == [(1,), (0,), (), ()]

    def test_balanced_partition(self):
        # Cycle sizes 10, 5, 5, 2 cost 11, 6, 6, 3 operations each.
        # Pairing the big one with the smallest leaves 14 and 12, the
        # best possible bottleneck.
        base = 1
        cycles = []
        for s in (10, 5, 5, 2):
            cycles.append(Cycle(tuple(range(base, base + s))))
            base += s
        assignment = assign_cycles(cycles, 2)
        assert min_load(assignment, cycles) == 12
        assert [set(idxs) for idxs in assignment] == [{0, 3}, {1, 2}]

    @given(
        st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=7),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_partition(self, sizes, k):
        base = 1
        cycles = []
        for s in sizes:
            cycles.append(Cycle(tuple(range(base, base + s))))
            base += s
        assignment = assign_cycles(cycles, k)
        loads = [c.size + 1 for c in cycles]
        assert min_load(assignment, cycles) == exhaustive_best_min_load(loads, k)

    def test_rejects_zero_buffers(self):
        with pytest.raises(ValueError):
            assign_cycles([Cycle((1, 2))], 0)


class TestMergeSequences:
    def test_empty_and_single(self):
        lat = Lattice((9,))
        assert merge_task_sequences([], lat) == ([], (), 0.0)
        seq = [visit(3), visit(7)]
        merged, labels, travel = merge_task_sequences([[], seq], lat)
        assert merged == seq
        assert labels == (2, 2)
        assert travel == 2 + 4 + 6

    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_interleaving(self, cell_lists):
        lat = Lattice((3, 3))
        sequences = [[visit(c) for c in cells] for cells in cell_lists]
        merged, labels, travel = merge_task_sequences(sequences, lat)
        assert travel == pytest.approx(exhaustive_interleave_travel(sequences, lat))
        # The merged tour must be a true interleaving: each source
        # sequence reads back in order.
        for label, seq in enumerate(sequences, start=1):
            slice_ = [a for a, owner in zip(merged, labels) if owner == label]
            assert slice_ == seq
        assert travel == pytest.approx(sequence_travel(merged, lat))

    def test_beamed_merge_is_interleaving_and_no_worse_than_concat(self):
        lat = Lattice((40,))
        rng_cells = [
            [5, 12, 3, 30, 17], [8, 2, 25, 9], [33, 6, 14, 28], [11, 38, 4],
        ]
        sequences = [[visit(c) for c in cells] for cells in rng_cells]
        exact, _, exact_travel = merge_task_sequences(sequences, lat)
        beamed, labels, beamed_travel = merge_task_sequences(
            sequences, lat, exact_states=10, beam_width=200
        )
        flat = [a for seq in sequences for a in seq]
        assert beamed_travel <= sequence_travel(flat, lat) + 1e-9
        assert beamed_travel >= exact_travel - 1e-9
        for label, seq in enumerate(sequences, start=1):
            assert [a for a, owner in zip(beamed, labels) if owner == label] == seq

    def test_state_cap_without_beam(self):
        lat = Lattice((9,))
        sequences = [[visit(c) for c in (1, 2, 3)] for _ in range(3)]
        with pytest.raises(MergeStateLimit):
            merge_task_sequences(sequences, lat, exact_states=10, beam_width=None)


class TestPipeline:
    def test_worked_example_two_buffers(self):
        arr = Arrangement.from_sequence(THREE_CYCLE_BOARD)
        plan = plan_multi_buffer_dp(arr, k=2)
        assert simulate(plan, arr, k=2).valid
        assert plan.n_swaps == 11
        assert travel_distance(plan, arr.lattice) == 14

    def test_single_buffer_reduction_1d(self):
        for seed in range(10):
            arr = random_arrangement(12, seed)
            assert plan_multi_buffer_dp(arr, k=1).actions == plan_single_buffer_exact(arr).actions

    def test_single_buffer_reduction_2d(self):
        for seed in range(10):
            arr = random_arrangement(9, seed, dims=(3, 3))
            assert plan_multi_buffer_dp(arr, k=1).actions == plan_single_buffer_2d(arr).actions

    @pytest.mark.parametrize("dims", [(14,), (4, 4)])
    def test_valid_and_swap_minimal(self, dims):
        m = 14 if len(dims) == 1 else 16
        for seed in range(8):
            arr = random_arrangement(m, seed, dims=dims)
            for k in (1, 2, 3):
                plan = plan_multi_buffer_dp(arr, k=k)
                assert simulate(plan, arr, k=k).valid
                assert plan.n_swaps == min_swap_count(arr)

    def test_extra_buffers_never_raise_travel(self):
        # More buffers widen the space of interleavings the pipeline
        # can express, and the assignment never splits a cycle, so more
        # capacity should not cost travel on average.  Check the mean
        # rather than each instance: the bottleneck split is not nested.
        total = {1: 0.0, 3: 0.0}
        for seed in range(12):
            arr = random_arrangement(16, seed)
            for k in total:
                total[k] += travel_distance(plan_multi_buffer_dp(arr, k=k), arr.lattice)
        assert total[3] <= total[1] + 1e-9

    def test_cycles_stay_on_one_buffer(self):
        """Every action on a cycle's cells carries that cycle's label."""
        for seed in range(10):
            arr = random_arrangement(15, seed * 13 + 1)
            for k in (2, 3):
                plan = plan_multi_buffer_dp(arr, k=k)
                owner: dict[int, set] = {}
                cycle_of = {
                    cell: ci
                    for ci, c in enumerate(nontrivial_cycles(arr))
                    for cell in c.cells
                }
                for a, label in zip(plan.actions, plan.buffer_of):
                    if a.is_noop:
                        assert label is None
                        continue
                    assert 1 <= label <= k
                    owner.setdefault(cycle_of[a.cell], set()).add(label)
                assert all(len(labels) == 1 for labels in owner.values())

    def test_identity_instance(self):
        arr = Arrangement.from_sequence([1, 2, 3])
        plan = plan_multi_buffer_dp(arr, k=3)
        assert simulate(plan, arr, k=3).valid
        assert len(plan.actions) == 2

    def test_fallback_flag_propagates(self):
        arr = random_arrangement(18, 3)
        tiny = PipelineConfig(buffer_exact_cells=2)
        plan = plan_multi_buffer_dp(arr, k=2, config=tiny)
        assert plan.fallback
        assert simulate(plan, arr, k=2).valid
        assert not plan_multi_buffer_dp(arr, k=2).fallback

    def test_rejects_zero_buffers(self):
        with pytest.raises(ValueError):
            plan_multi_buffer_dp(random_arrangement(5, 0), k=0)
