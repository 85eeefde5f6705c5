import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeswap.errors import InvalidInput, InvalidPlanStructure
from latticeswap.lattice import EMPTY, Arrangement, Lattice, random_arrangement
from latticeswap.plan import (
    CostParams,
    Instance,
    PickNSwap,
    Plan,
    bracket,
    evaluate_cost,
    min_swap_count,
    simulate,
    travel_distance,
)
from oracles import brute_min_operations


def sorted_plan_for(arr):
    """Tiny hand-rolled solver: empty one cell, chase the chain, repeat."""
    from latticeswap.single_buffer import plan_cycle_following

    return plan_cycle_following(arr)


class TestSimulate:
    def setup_method(self):
        self.arr = Arrangement.from_sequence([2, 3, 1])
        self.lat = self.arr.lattice

    def test_accepts_a_correct_plan(self):
        plan = bracket(
            [
                PickNSwap(1, EMPTY, 2),
                PickNSwap(2, 2, 3),
                PickNSwap(3, 3, 1),
                PickNSwap(1, 1, EMPTY),
            ],
            self.lat,
        )
        result = simulate(plan, self.arr, 1)
        assert result.valid, result.reason
        assert result.final_placement == (1, 2, 3)
        assert bool(result)

    def test_missing_bookends(self):
        plan = Plan((PickNSwap(1, EMPTY, 2), PickNSwap(2, 2, 3)))
        assert not simulate(plan, self.arr, 1).valid

    def test_interior_noop_rejected(self):
        plan = bracket(
            [PickNSwap(1, EMPTY, 2), PickNSwap(2, EMPTY, EMPTY), PickNSwap(2, 2, 3), PickNSwap(3, 3, 1), PickNSwap(1, 1, EMPTY)],
            self.lat,
        )
        result = simulate(plan, self.arr, 1)
        assert not result.valid
        assert result.failed_index == 2

    def test_wrong_pick_rejected(self):
        plan = bracket([PickNSwap(1, EMPTY, 3)], self.lat)
        result = simulate(plan, self.arr, 1)
        assert not result.valid
        assert "pick" in result.reason

    def test_deposit_requires_holding(self):
        plan = bracket([PickNSwap(1, 2, EMPTY)], self.lat)
        assert not simulate(plan, self.arr, 1).valid

    def test_deposit_into_occupied_cell_requires_pick(self):
        plan = bracket(
            [PickNSwap(1, EMPTY, 2), PickNSwap(2, 2, EMPTY)],
            self.lat,
        )
        result = simulate(plan, self.arr, 1)
        assert not result.valid
        assert "occupied" in result.reason

    def test_capacity_enforced(self):
        plan = bracket(
            [PickNSwap(1, EMPTY, 2), PickNSwap(2, EMPTY, 3)],
            self.lat,
        )
        assert not simulate(plan, self.arr, 1).valid
        # the same prefix is fine with two buffers (completed properly)
        plan2 = bracket(
            [
                PickNSwap(1, EMPTY, 2),
                PickNSwap(2, EMPTY, 3),
                PickNSwap(2, 2, EMPTY),
                PickNSwap(3, 3, 1),
                PickNSwap(1, 1, EMPTY),
            ],
            self.lat,
        )
        assert simulate(plan2, self.arr, 2).valid

    def test_must_end_sorted_and_empty_handed(self):
        plan = bracket([PickNSwap(1, EMPTY, 2)], self.lat)
        result = simulate(plan, self.arr, 1)
        assert not result.valid
        assert "hand" in result.reason

    def test_identity_needs_no_actions(self):
        arr = Arrangement.from_sequence([1, 2, 3])
        plan = bracket([], arr.lattice)
        assert simulate(plan, arr, 1).valid


class TestCosts:
    def test_travel_includes_rest_legs(self):
        lat = Lattice((5,))
        plan = bracket([PickNSwap(3, EMPTY, 1), PickNSwap(5, 1, EMPTY)], lat)
        assert travel_distance(plan, lat) == 2 + 2 + 4

    def test_cost_report(self):
        arr = Arrangement.from_sequence([2, 3, 1])
        plan = sorted_plan_for(arr)
        report = evaluate_cost(plan, arr.lattice, CostParams(2.0, 0.5))
        assert report.swaps == 4
        assert report.total == 2.0 * 4 + 0.5 * report.travel

    @pytest.mark.parametrize("dims", [(9,), (3, 3)])
    def test_off_board_cells_rejected(self, dims):
        lat = Lattice(dims)
        for bad in (0, -1, lat.m + 1, 99):
            plan = bracket([PickNSwap(2, EMPTY, 1), PickNSwap(bad, EMPTY, EMPTY)], lat)
            with pytest.raises(InvalidPlanStructure, match=f"cell {bad} outside"):
                evaluate_cost(plan, lat)

    def test_travel_rounds_to_six_decimals_in_dict(self):
        arr = random_arrangement(9, 0, (3, 3))
        plan = sorted_plan_for(arr)
        report = evaluate_cost(plan, arr.lattice)
        text = json.dumps(report.to_dict())
        travel = json.loads(text)["travel"]
        assert travel == round(report.travel, 6)


class TestPickNSwap:
    def test_named_tuple_fields_and_defaults(self):
        a = PickNSwap(4, pick=2)
        assert a == (4, EMPTY, 2)
        cell, deposit, pick = a
        assert (cell, deposit, pick) == (a.cell, a.deposit, a.pick) == (4, EMPTY, 2)
        assert not a.is_noop and PickNSwap(4).is_noop
        assert a.record(3, buffer=1) == {"index": 3, "cell": 4, "deposit": EMPTY, "pick": 2, "buffer": 1}
        with pytest.raises(AttributeError):
            a.cell = 5


class TestMinSwapCount:
    def test_known_values(self):
        assert min_swap_count(Arrangement.from_sequence([1, 2, 3])) == 0
        assert min_swap_count(Arrangement.from_sequence([2, 1])) == 3
        assert min_swap_count(Arrangement.from_sequence([2, 3, 1, 5, 7, 8, 4, 6])) == 11

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_exhaustive_search(self, k):
        # brute BFS over the raw action space, independent of cycle theory
        for seed in range(12):
            arr = random_arrangement(5, seed)
            assert brute_min_operations(arr, k) == min_swap_count(arr)

    def test_extra_buffers_do_not_reduce_operations(self):
        arr = Arrangement.from_sequence([3, 1, 2, 5, 4])
        assert brute_min_operations(arr, 3) == min_swap_count(arr)


class TestSerialization:
    def test_plan_record_shape(self):
        plan = bracket([PickNSwap(4, EMPTY, 2)], Lattice((5,)), buffers=(1,))
        records = plan.records()
        assert records[1] == {"index": 1, "cell": 4, "deposit": 0, "pick": 2, "buffer": 1}
        assert "buffer" not in records[0] or records[0].get("buffer") is None

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_plan_json_roundtrip(self, m, seed):
        arr = random_arrangement(m, seed)
        plan = sorted_plan_for(arr)
        again = Plan.from_json(plan.to_json())
        assert again.actions == plan.actions
        assert again.buffer_of == plan.buffer_of

    def test_records_in_any_order_but_indexed_0_to_n_minus_1(self):
        plan = bracket([PickNSwap(2, EMPTY, 1), PickNSwap(1, 1, 2)], Lattice((2,)))
        records = plan.records()
        assert Plan.from_records(records[::-1]).actions == plan.actions
        for indices in ((0, 7, 7, 9), (1, 2, 3, 4), (0, 1, 1, 3), (-1, 0, 1, 2)):
            bad = [dict(r, index=i) for r, i in zip(records, indices)]
            with pytest.raises(InvalidInput):
                Plan.from_records(bad)

    def test_instance_json_fields(self):
        arr = random_arrangement(6, 3, (2, 3))
        inst = Instance(arr, k=2, seed=3)
        payload = json.loads(inst.to_json())
        assert payload["dims"] == [2, 3]
        assert payload["k"] == 2
        assert payload["seed"] == 3
        assert tuple(payload["placement"]) == arr.placement
        again = Instance.from_json(inst.to_json())
        assert again.arrangement.placement == arr.placement
        assert again.arrangement.lattice == arr.lattice
        assert again.k == 2
