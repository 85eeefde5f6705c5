import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap.errors import InvalidArrangement
from latticeswap.lattice import (
    Arrangement,
    Lattice,
    coordinate_table,
    cycle_statistics,
    decompose_cycles,
    group_cycles,
    nontrivial_cycles,
    random_arrangement,
    resident_map,
    sample_cycle_sizes,
)
from oracles import largest_cycle_fraction_exact, permutation_cycle_sizes

permutations = st.integers(min_value=2, max_value=40).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
)

# 1D rows and 2D boards of up to 6x6 cells, with a shuffled placement.
boards = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
).flatmap(
    lambda dims: st.permutations(list(range(1, math.prod(dims) + 1))).map(
        lambda perm: Arrangement(Lattice(dims), tuple(perm))
    )
)


class TestLattice:
    def test_row_major_coords(self):
        lat = Lattice((2, 3))
        assert [lat.coords(c) for c in range(1, 7)] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
        ]
        for c in range(1, 7):
            assert lat.cell_at(lat.coords(c)) == c

    def test_distance_is_euclidean(self):
        lat = Lattice((3, 3))
        assert lat.distance(1, 9) == pytest.approx(2 * math.sqrt(2))
        assert lat.distance(1, 2) == 1.0
        assert Lattice((10,)).distance(2, 7) == 5.0

    @pytest.mark.parametrize("dims", [(3, 4), (1, 5), (5, 1)])
    def test_distance_matches_coords_on_every_pair(self, dims):
        lat = Lattice(dims)
        for a in range(1, lat.m + 1):
            for b in range(1, lat.m + 1):
                ca, cb = lat.coords(a), lat.coords(b)
                assert lat.distance(a, b) == math.hypot(ca[0] - cb[0], ca[1] - cb[1])

    def test_2d_distance_rejects_cells_outside(self):
        lat = Lattice((3, 4))
        for bad in (0, lat.m + 1):
            with pytest.raises(ValueError):
                lat.distance(bad, 1)
            with pytest.raises(ValueError):
                lat.distance(1, bad)

    def test_coordinate_table_shared_per_dims(self):
        a, b = Lattice((7, 9)), Lattice((7, 9))
        assert a is not b
        assert a.distance(1, 63) == b.distance(1, 63)
        assert coordinate_table(a.dims) is coordinate_table(b.dims)
        # the table lives in the shared cache, not on the lattice
        assert vars(a) == {"dims": (7, 9)}

    def test_rest_is_first_cell(self):
        assert Lattice((4, 4)).rest == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Lattice((0,))
        with pytest.raises(ValueError):
            Lattice((2, 2, 2))


class TestArrangement:
    def test_bijection_enforced(self):
        with pytest.raises(InvalidArrangement):
            Arrangement.from_sequence([1, 1, 3])
        with pytest.raises(InvalidArrangement):
            Arrangement.from_sequence([0, 2, 3])

    def test_lookups(self):
        arr = Arrangement.from_sequence([2, 3, 1])
        assert arr.at(1) == 2
        assert arr.cell_of(1) == 3
        assert not arr.is_identity
        assert Arrangement.from_sequence([1, 2, 3]).is_identity

    def test_random_arrangement_is_deterministic(self):
        a = random_arrangement(30, 7)
        b = random_arrangement(30, 7)
        assert a.placement == b.placement
        assert a.placement != random_arrangement(30, 8).placement


class TestCycles:
    def test_worked_example_decomposition(self):
        arr = Arrangement.from_sequence([2, 3, 1, 5, 7, 8, 4, 6])
        cycles = nontrivial_cycles(arr)
        assert [c.objects for c in cycles] == [(1, 2, 3), (4, 5, 7), (6, 8)]

    def test_resident_chain(self):
        arr = Arrangement.from_sequence([2, 3, 1])
        (cyc,) = nontrivial_cycles(arr)
        # the object that belongs in cell 1 currently sits in cell 2, etc.
        assert cyc.resident(1) == 2
        assert cyc.resident(2) == 3
        assert cyc.resident(3) == 1

    def test_identity_has_only_trivial_cycles(self):
        arr = Arrangement.from_sequence([1, 2, 3, 4])
        assert nontrivial_cycles(arr) == []
        assert len(decompose_cycles(arr)) == 4

    @given(permutations)
    @settings(max_examples=120, deadline=None)
    def test_cycles_partition_labels(self, perm):
        arr = Arrangement.from_sequence(perm)
        cycles = decompose_cycles(arr)
        labels = sorted(obj for c in cycles for obj in c.objects)
        assert labels == list(range(1, len(perm) + 1))
        # canonical form: each cycle led by its smallest label, cycles ordered by it
        leads = [c.objects[0] for c in cycles]
        assert all(lead == min(c.objects) for lead, c in zip(leads, cycles))
        assert leads == sorted(leads)

    @given(permutations)
    @settings(max_examples=120, deadline=None)
    def test_residents_reconstruct_placement(self, perm):
        arr = Arrangement.from_sequence(perm)
        rebuilt = [0] * len(perm)
        for c in decompose_cycles(arr):
            for cell in c.cells:
                rebuilt[cell - 1] = c.resident(cell)
        assert tuple(rebuilt) == arr.placement

    @given(boards)
    @settings(max_examples=120, deadline=None)
    def test_resident_map_rebuilds_placement(self, arr):
        cycles = decompose_cycles(arr)
        residents = resident_map(cycles)
        assert tuple(residents[cell] for cell in range(1, arr.m + 1)) == arr.placement
        for c in cycles:
            for cell in c.cells:
                assert c.resident(cell) == residents[cell]

    def test_resident_rejects_cell_off_the_cycle(self):
        with pytest.raises(ValueError):
            decompose_cycles(Arrangement.from_sequence([2, 1, 3]))[0].resident(3)

    def test_cycle_sizes_match_reference(self):
        for seed in range(20):
            arr = random_arrangement(25, seed)
            ours = sorted(c.size for c in decompose_cycles(arr))
            theirs = sorted(permutation_cycle_sizes(arr.placement))
            assert ours == theirs


class TestGroups:
    def test_worked_example_groups(self):
        arr = Arrangement.from_sequence([2, 3, 1, 5, 7, 8, 4, 6])
        groups = group_cycles(nontrivial_cycles(arr), arr.lattice)
        assert [g.span for g in groups] == [(1, 3), (4, 8)]
        assert [len(g.cycles) for g in groups] == [1, 2]

    def test_2d_collapses_to_one_group(self):
        arr = random_arrangement(16, 3, (4, 4))
        cycles = nontrivial_cycles(arr)
        groups = group_cycles(cycles, arr.lattice)
        assert len(groups) == 1
        assert len(groups[0].cycles) == len(cycles)

    @given(permutations)
    @settings(max_examples=100, deadline=None)
    def test_groups_are_span_disjoint_and_ordered(self, perm):
        arr = Arrangement.from_sequence(perm)
        groups = group_cycles(nontrivial_cycles(arr), arr.lattice)
        for left, right in zip(groups, groups[1:]):
            assert left.span[1] < right.span[0]
        for g in groups:
            covered = {cell for c in g.cycles for cell in c.cells}
            assert covered == set(g.cells)


class TestCycleSizeSampling:
    def test_sizes_sum_to_m(self):
        rng = random.Random(0)
        for _ in range(200):
            sizes = sample_cycle_sizes(50, rng)
            assert sum(sizes) == 50
            assert all(s >= 1 for s in sizes)

    def test_matches_exact_small_m(self):
        # E[largest/m] for m=4 is 67/96; stick-breaking must agree.
        exact = largest_cycle_fraction_exact(4)
        assert exact == pytest.approx(67 / 96)
        rng = random.Random(11)
        est = sum(max(sample_cycle_sizes(4, rng)) / 4 for _ in range(40_000)) / 40_000
        assert est == pytest.approx(exact, abs=0.005)

    def test_matches_direct_permutation_sampling(self):
        m = 30
        rng = random.Random(2)
        a = sum(max(sample_cycle_sizes(m, rng)) / m for _ in range(20_000)) / 20_000
        direct = []
        py = random.Random(3)
        for _ in range(20_000):
            row = list(range(1, m + 1))
            py.shuffle(row)
            direct.append(max(permutation_cycle_sizes(row)) / m)
        assert a == pytest.approx(sum(direct) / len(direct), abs=0.01)


class TestCycleStatistics:
    def test_fields_and_formatting(self):
        stats = cycle_statistics(10, 2_000, seed=4)
        row = stats.csv_row()
        assert len(row) == len(stats.CSV_COLUMNS)
        assert row[0] == "10"
        assert row[1] == "2000"
        for text in row[2:]:
            whole, frac = text.split(".")
            assert len(frac) == 6
        assert 0.0 < stats.frac1_mean <= 1.0
        assert stats.top3_mean >= stats.frac1_mean

    def test_harmonic_cycle_count(self):
        # mean number of nontrivial cycles approaches H_m - 1
        stats = cycle_statistics(100, 20_000, seed=9)
        h = sum(1 / i for i in range(1, 101))
        assert stats.cycle_count_mean == pytest.approx(h - 1, abs=0.05)

    def test_top3_matches_direct_permutation_sampling(self):
        m = 30
        stats = cycle_statistics(m, 20_000, seed=2)
        direct = []
        py = random.Random(3)
        for _ in range(20_000):
            row = list(range(1, m + 1))
            py.shuffle(row)
            direct.append(sum(sorted(permutation_cycle_sizes(row))[-3:]) / m)
        assert stats.top3_mean == pytest.approx(sum(direct) / len(direct), abs=0.01)
