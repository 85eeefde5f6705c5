"""Buffer assignment, sequence interleaving, and the k-buffer pipeline."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeswap
from latticeswap.errors import InvalidConfig, MergeStateLimit
from latticeswap.lattice import (
    EMPTY,
    Arrangement,
    Cycle,
    Lattice,
    decompose_cycles,
    group_cycles,
    nontrivial_cycles,
    random_arrangement,
)
from latticeswap.multi_buffer import (
    MERGE_BEAM,
    MERGE_EXACT_STATES,
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
from latticeswap.search import SearchLimits
from latticeswap.single_buffer import plan_single_buffer_2d, plan_single_buffer_exact
from oracles import (
    exhaustive_best_min_load,
    exhaustive_interleave_travel,
    reference_largest_first,
    reference_merge,
)

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

    @pytest.mark.parametrize("k", [2, 3])
    def test_many_cycles_go_largest_first(self, k):
        # One group of 28 cycles, past the exact search: a cycle through
        # the left half and cell m, and 2-cycles on the right half's pairs.
        m, half = 110, 55
        placement = [*range(2, half + 1), m, *range(half + 1, m)]
        for c in range(half + 1, m - 1, 2):
            placement[c - 1], placement[c] = c + 1, c
        placement.append(1)
        arr = Arrangement.from_sequence(placement)
        (group,) = group_cycles(nontrivial_cycles(arr), arr.lattice)
        # And 30 cycles of mixed sizes, so the loads are not mostly tied.
        rng = random.Random(5)
        mixed, base = [], 1
        for _ in range(30):
            size = rng.randint(2, 9)
            mixed.append(Cycle(tuple(range(base, base + size))))
            base += size
        for cycles in (group.cycles, mixed):
            assert len(cycles) > 24
            bins = reference_largest_first([c.size + 1 for c in cycles], k)
            smallest = [min(cell for i in b for cell in cycles[i].cells) for b in bins]
            expected = [tuple(sorted(bins[b])) for b in sorted(range(k), key=smallest.__getitem__)]
            assert assign_cycles(cycles, k) == expected

    def test_rejects_zero_buffers(self):
        with pytest.raises(InvalidConfig):
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

    # On a 1D lattice every leg is a whole number, so equal-cost
    # interleavings are everywhere and only the tie rules decide.
    row_sequences = st.integers(min_value=2, max_value=12).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(st.integers(min_value=1, max_value=m), max_size=6),
                min_size=1,
                max_size=4,
            ),
        )
    )

    @given(row_sequences)
    @settings(max_examples=150, deadline=None)
    def test_exact_merge_matches_reference(self, case):
        m, cell_lists = case
        lat = Lattice((m,))
        sequences = [[visit(c) for c in cells] for cells in cell_lists]
        merged, labels, travel = merge_task_sequences(sequences, lat)
        assert (merged, labels, travel) == reference_merge(sequences, lat)

    @given(row_sequences, st.integers(min_value=1, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_beamed_merge_matches_reference(self, case, width):
        m, cell_lists = case
        lat = Lattice((m,))
        sequences = [[visit(c) for c in cells] for cells in cell_lists]
        merged, labels, travel = merge_task_sequences(
            sequences, lat, exact_states=1, beam_width=width
        )
        assert (merged, labels, travel) == reference_merge(sequences, lat, keep=width)

    # Boards with offsets of 17 and more, where a leg computed apart
    # from Lattice.distance can differ from it in the last bit.
    board_sequences = st.sampled_from([(30, 30), (5, 40)]).flatmap(
        lambda dims: st.tuples(
            st.just(dims),
            st.lists(
                st.lists(st.integers(min_value=1, max_value=math.prod(dims)), max_size=5),
                min_size=1,
                max_size=4,
            ),
        )
    )

    @given(board_sequences, st.one_of(st.none(), st.integers(min_value=1, max_value=20)))
    @settings(max_examples=100, deadline=None)
    def test_merge_on_2d_boards_matches_reference(self, case, width):
        dims, cell_lists = case
        lat = Lattice(dims)
        sequences = [[visit(c) for c in cells] for cells in cell_lists]
        if width is None:
            got = merge_task_sequences(sequences, lat)
        else:
            got = merge_task_sequences(sequences, lat, exact_states=1, beam_width=width)
        assert got == reference_merge(sequences, lat, keep=width)

    def test_travel_is_the_tour_of_the_merged_plan(self):
        # Offsets (17, 27): a hypot computed apart from Lattice.distance
        # gave 63.81222453417527 here, one bit off the plan's own tour.
        lat = Lattice((30, 30))
        sequences = [[visit(538)], [visit(538)]]
        merged, labels, travel = merge_task_sequences(sequences, lat)
        assert travel == sequence_travel(merged, lat) == 63.812224534175265
        assert (merged, labels, travel) == reference_merge(sequences, lat)

    def test_long_row_needs_no_table_per_slot_pair(self):
        # Two short sequences 20 000 cells apart: the leg table grows
        # with the board (about 2m floats), not with the square of it.
        lat = Lattice((20000,))
        sequences = [[visit(c) for c in (1, 2, 3)], [visit(c) for c in (19998, 19999, 20000)]]
        tracemalloc.start()
        try:
            merged, labels, travel = merge_task_sequences(sequences, lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024
        assert travel == sequence_travel(merged, lat) == 2 * 19999
        assert (merged, labels, travel) == reference_merge(sequences, lat)

    def test_beamed_merge_on_a_benchmark_board_stays_small(self):
        # A 14x14 board of the dp-2d benchmark at k = 5: a beamed merge of
        # about 4.3e8 states, each stage keeping a dense cost matrix by
        # last mover (about 16 MB traced for the whole plan).
        arr = random_arrangement(196, 1, (14, 14))
        tracemalloc.start()
        try:
            plan = plan_multi_buffer_dp(arr, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 1024 * 1024
        assert simulate(plan, arr, k=5).valid

    def test_beam_as_wide_as_the_states_is_exact(self):
        rng = random.Random(7)
        lat = Lattice((5, 6))
        for _ in range(10):
            sequences = [
                [visit(rng.randint(1, lat.m)) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(2, 4))
            ]
            states = len(sequences) * math.prod(len(s) + 1 for s in sequences)
            wide = merge_task_sequences(sequences, lat, exact_states=1, beam_width=states)
            assert wide == merge_task_sequences(sequences, lat)

    @pytest.mark.parametrize("beam_width", [MERGE_BEAM])
    def test_state_codes_past_int64_rejected(self, beam_width):
        # Eight 250-action sequences: 8 * 251**8 states, over 2**63, so
        # the packed state codes would wrap.  The guard fires before any
        # stage runs.
        lat = Lattice((2000,))
        sequences = [[visit(c) for c in range(j, 2001, 8)] for j in range(1, 9)]
        with pytest.raises(MergeStateLimit, match="int64"):
            merge_task_sequences(sequences, lat, beam_width=beam_width)


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
        # A zero time limit stops every share search at its first expansion.
        arr = random_arrangement(18, 3)
        plan = plan_multi_buffer_dp(arr, k=2, timeout_s=0.0)
        assert plan.fallback
        assert simulate(plan, arr, k=2).valid
        assert not plan_multi_buffer_dp(arr, k=2).fallback

    def test_rejects_zero_buffers(self):
        with pytest.raises(InvalidConfig):
            plan_multi_buffer_dp(random_arrangement(5, 0), k=0)

    def test_pipeline_config_names_constants_only(self):
        # The stage-wise benchmark replay reads these four names from
        # ``PipelineConfig()``; none of them is a setting.
        config = PipelineConfig()
        assert (config.buffer_exact_cells, config.search_timeout_s) == (
            SearchLimits.size_cap,
            SearchLimits.timeout_s,
        )
        assert (config.merge_exact_states, config.merge_beam) == (MERGE_EXACT_STATES, MERGE_BEAM)
        with pytest.raises(TypeError):
            PipelineConfig(buffer_exact_cells=2)


def test_package_import_does_not_load_numpy():
    # Only the interleaving merge uses numpy, and it imports it on its
    # first call, so planners that never merge do not pay for it.
    src = str(Path(latticeswap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, latticeswap; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"
