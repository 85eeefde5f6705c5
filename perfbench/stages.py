"""Stage-by-stage replays of the planners, timed and counted from outside.

Each replay calls the same public functions, with the same arguments
and in the same order, as the one-call planner it stands for, and times
each call by module.  The run checks that every replay returns the same
plan, action for action, as the one-call planner; a replay that drifts
from its planner is reported as an error, not silently timed.

The tree search has no public stages of its own, so its replay is the
one-call planner with the state kernel it calls (``enumerate_actions``
and ``apply_action``, bound into ``latticeswap.mcts`` from
``latticeswap.oracle``) wrapped for the duration of the call.  Calls of
``Lattice.distance`` are counted in a separate untimed pass, because
wrapping that hot method would distort every stage time.

Stage times are inclusive: ``multi_buffer.share`` contains the A* and
greedy calls it makes, which are also reported under their own modules.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import latticeswap.mcts as mcts_module
from latticeswap import (
    CostParams,
    Lattice,
    OracleLimits,
    PipelineConfig,
    Plan,
    PlanningTimeout,
    SearchLimits,
    SizeLimitExceeded,
    assign_cycles,
    evaluate_cost,
    group_cycles,
    merge_task_sequences,
    min_swap_astar,
    nontrivial_cycles,
    simulate,
)
from latticeswap.plan import bookend, bracket
from latticeswap.search import assign_buffers
from latticeswap.single_buffer import (
    DETOUR_SLACK_2D,
    ON_SEGMENT_SLACK,
    compose_group_actions,
    greedy_switch_actions,
)

import workloads


class Tracer:
    """Per-stage wall time (ms) and counts, summed over operations."""

    def __init__(self) -> None:
        self.ms: defaultdict[str, float] = defaultdict(float)
        self.count: defaultdict[str, int] = defaultdict(int)

    def call(self, stage: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ms[stage] += (perf_counter() - t0) * 1e3
            self.count[stage] += 1


def _cycles(tr: Tracer, arr):
    return tr.call("lattice.cycles", nontrivial_cycles, arr)


def _groups(tr: Tracer, cycles, lattice):
    return tr.call("lattice.cycles", group_cycles, cycles, lattice)


def _exact_group(tr: Tracer, cycles, lattice, limits):
    """Replay of ``single_buffer.exact_group_actions``."""
    try:
        return tr.call("search.astar", min_swap_astar, lattice, cycles, 1, limits), False
    except (SizeLimitExceeded, PlanningTimeout):
        tr.count["search.astar_capped"] += 1
        if lattice.ndim == 1:
            slack, order = ON_SEGMENT_SLACK, "canonical"
        else:
            slack, order = DETOUR_SLACK_2D, "nearest"
        return tr.call("single_buffer.greedy", greedy_switch_actions, cycles, lattice, slack, order), True


def replay_switch(tr: Tracer, op) -> Plan:
    lattice = op.arrangement.lattice
    groups = _groups(tr, _cycles(tr, op.arrangement), lattice)
    per_group = [tr.call("single_buffer.greedy", greedy_switch_actions, g.cycles, lattice) for g in groups]
    return bracket(tr.call("single_buffer.compose", compose_group_actions, per_group), lattice)


def replay_2d_greedy(tr: Tracer, op) -> Plan:
    lattice = op.arrangement.lattice
    cycles = _cycles(tr, op.arrangement)
    actions = tr.call(
        "single_buffer.greedy", greedy_switch_actions, cycles, lattice, DETOUR_SLACK_2D, order="nearest"
    )
    return bracket(actions, lattice)


def replay_exact(tr: Tracer, op) -> Plan:
    lattice = op.arrangement.lattice
    per_group, fallback = [], False
    for g in _groups(tr, _cycles(tr, op.arrangement), lattice):
        actions, degraded = _exact_group(tr, g.cycles, lattice, SearchLimits())
        fallback = fallback or degraded
        per_group.append(actions)
    actions = tr.call("single_buffer.compose", compose_group_actions, per_group)
    return bracket(actions, lattice, fallback=fallback)


def replay_opt(tr: Tracer, op) -> Plan:
    lattice = op.arrangement.lattice
    oracle = OracleLimits()
    limits = SearchLimits(size_cap=oracle.size_cap, timeout_s=oracle.timeout_s)
    cycles = _cycles(tr, op.arrangement)
    actions = tr.call("search.astar", min_swap_astar, lattice, cycles, op.k, limits)
    be = bookend(lattice)
    return Plan((be, *actions, be), buffer_of=(None, *assign_buffers(actions, op.k), None))


def _share(tr: Tracer, share, lattice, config: PipelineConfig):
    """Replay of ``multi_buffer.buffer_share_actions``."""
    if not share:
        return [], False
    if lattice.ndim > 1:
        actions = tr.call(
            "single_buffer.greedy", greedy_switch_actions, share, lattice, DETOUR_SLACK_2D, order="nearest"
        )
        return actions, False
    limits = SearchLimits(size_cap=config.buffer_exact_cells, timeout_s=config.search_timeout_s)
    per_run, fallback = [], False
    for run in group_cycles(share, lattice):
        actions, degraded = _exact_group(tr, run.cycles, lattice, limits)
        fallback = fallback or degraded
        per_run.append(actions)
    return tr.call("single_buffer.compose", compose_group_actions, per_run), fallback


def replay_dp(tr: Tracer, op) -> Plan:
    config = PipelineConfig()
    lattice = op.arrangement.lattice
    cycles = _cycles(tr, op.arrangement)
    be = bookend(lattice)
    if not cycles:
        return Plan((be, be), buffer_of=(None, None))
    shares = [[] for _ in range(op.k)]
    for group in _groups(tr, cycles, lattice):
        for slot, idxs in enumerate(tr.call("multi_buffer.assign", assign_cycles, group.cycles, op.k)):
            shares[slot].extend(group.cycles[i] for i in idxs)
    sequences, fallback = [], False
    for share in shares:
        actions, degraded = tr.call("multi_buffer.share", _share, tr, share, lattice, config)
        fallback = fallback or degraded
        sequences.append(actions)
    lengths = [len(s) for s in sequences if s]
    if len(lengths) > 1:
        states = len(lengths) * math.prod(n + 1 for n in lengths)
        tr.count["multi_buffer.merge_states"] += states
        tr.count["multi_buffer.merge_beamed"] += states > config.merge_exact_states
    merged, labels, _ = tr.call(
        "multi_buffer.merge",
        merge_task_sequences,
        sequences,
        lattice,
        config.merge_exact_states,
        config.merge_beam,
    )
    return Plan((be, *merged, be), buffer_of=(None, *labels, None), fallback=fallback)


@contextmanager
def _wrapped(module, attr: str, tr: Tracer, stage: str):
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        return tr.call(stage, original, *args, **kwargs)

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, original)


def replay_mcts(tr: Tracer, op) -> Plan:
    with _wrapped(mcts_module, "enumerate_actions", tr, "oracle.enumerate"), _wrapped(
        mcts_module, "apply_action", tr, "oracle.apply"
    ):
        plan = tr.call("mcts.plan", workloads.plan, op)
    tr.count["mcts.commits"] += len(plan.actions) - 2
    return plan


REPLAYS = {
    "switch": replay_switch,
    "2d-greedy": replay_2d_greedy,
    "exact": replay_exact,
    "opt": replay_opt,
    "dp": replay_dp,
    "mcts": replay_mcts,
}


def traced_op(tr: Tracer, op):
    """Stage-wise plan, priced and validated, with every stage timed."""
    plan = REPLAYS[op.algo](tr, op)
    report = tr.call("plan.evaluate", evaluate_cost, plan, op.arrangement.lattice, CostParams(op.cp, op.ct))
    sim = tr.call("plan.simulate", simulate, plan, op.arrangement, op.k)
    return plan, report, sim


def count_distance_calls(op) -> int:
    """``Lattice.distance`` calls made by one untimed one-call operation."""
    calls = 0
    original = Lattice.distance

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return original(self, a, b)

    Lattice.distance = counted
    try:
        plan = workloads.plan(op)
        evaluate_cost(plan, op.arrangement.lattice, CostParams(op.cp, op.ct))
        simulate(plan, op.arrangement, op.k)
    finally:
        Lattice.distance = original
    return calls


# (metric, unit, stage): "ms/op" metrics are the stage's time per operation,
# "count" metrics its calls, or the count it records, per operation.
PER_LAYER = (
    ("multi_buffer.merge_ms", "ms/op", "multi_buffer.merge"),
    ("multi_buffer.merge_states", "count", "multi_buffer.merge_states"),
    ("multi_buffer.merge_beamed", "count", "multi_buffer.merge_beamed"),
    ("multi_buffer.share_ms", "ms/op", "multi_buffer.share"),
    ("multi_buffer.assign_ms", "ms/op", "multi_buffer.assign"),
    ("search.astar_ms", "ms/op", "search.astar"),
    ("search.astar_calls", "count", "search.astar"),
    ("search.astar_capped", "count", "search.astar_capped"),
    ("single_buffer.greedy_ms", "ms/op", "single_buffer.greedy"),
    ("single_buffer.compose_ms", "ms/op", "single_buffer.compose"),
    ("lattice.cycles_ms", "ms/op", "lattice.cycles"),
    ("lattice.distance_calls", "count", "lattice.distance"),
    ("mcts.commits", "count", "mcts.commits"),
    ("oracle.enumerate_calls", "count", "oracle.enumerate"),
    ("oracle.enumerate_ms", "ms/op", "oracle.enumerate"),
    ("oracle.apply_calls", "count", "oracle.apply"),
    ("plan.simulate_ms", "ms/op", "plan.simulate"),
    ("plan.evaluate_ms", "ms/op", "plan.evaluate"),
)


def per_layer_metrics(tr: Tracer, ops: int, counted_ops: int, onecall_s: float, traced_s: float) -> dict:
    """Per-operation stage figures, the tree search's time per commit,
    and the tracing overhead against the one-call operations.

    ``Lattice.distance`` calls are counted on the first round only
    (``counted_ops`` operations); they repeat exactly in later rounds.
    """
    out = {}
    for name, unit, stage in PER_LAYER:
        total = tr.ms[stage] if unit == "ms/op" else tr.count[stage]
        out[name] = {"value": total / (counted_ops if stage == "lattice.distance" else ops), "unit": unit}
    commits = tr.count["mcts.commits"]
    out["mcts.ms_per_commit"] = {"value": tr.ms["mcts.plan"] / commits if commits else 0.0, "unit": "ms"}
    out["trace.overhead_pct"] = {"value": 100.0 * (traced_s / onecall_s - 1.0), "unit": "%"}
    return out
