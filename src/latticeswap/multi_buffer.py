"""Planning with k hand buffers: assign, chain, interleave.

The pipeline partitions each group's cycles over the k buffers so the
smallest per-buffer workload is as large as possible, plans each
buffer's share as a stand-alone single-buffer tour, then interleaves
the per-buffer action sequences with a dynamic program that minimizes
total travel.  Buffers own disjoint cycles, and every per-buffer plan
keeps at most one object in hand, so any interleaving of the sequences
is executable with k buffers; the DP only has to pick the cheapest one.

The interleaving DP's state is (which buffer moved last, how far each
sequence has progressed).  That grows as the product of the sequence
lengths, so past a configurable size the DP switches to a beam: each
progress stage keeps only the cheapest states.  The beamed result is
never worse than running the sequences back to back, since that
baseline is checked explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MergeStateLimit
from .lattice import Arrangement, Cycle, Lattice, group_cycles, nontrivial_cycles
from .plan import PickNSwap, Plan, bookend, sequence_travel
from .search import SearchLimits
from .single_buffer import (
    DETOUR_SLACK_2D,
    compose_group_actions,
    exact_group_actions,
    greedy_switch_actions,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the k-buffer pipeline.

    Within a buffer's share, each span-connected run of cycles covering
    at most ``buffer_exact_cells`` cells is planned exactly; larger
    runs fall back to the greedy switching tour and flag the plan.  The
    interleaving DP runs exactly up to ``merge_exact_states`` states
    and then beams, keeping ``merge_beam`` states per stage.
    """

    buffer_exact_cells: int = 14
    merge_exact_states: int = 3_000_000
    merge_beam: int | None = 5_000
    search_timeout_s: float = 600.0


def assign_cycles(cycles: Sequence[Cycle], k: int) -> list[tuple[int, ...]]:
    """Partition cycles over k buffers, maximizing the least workload.

    A cycle of size L contributes L + 1 operations to its buffer's
    workload.  Returns k index tuples (some possibly empty), ordered by
    the smallest cell they cover.  With more buffers than cycles each
    cycle gets its own buffer.  The search is exact branch and bound
    for realistic group sizes; beyond a couple dozen cycles it falls
    back to largest-first into the lightest buffer.
    """
    if k < 1:
        raise ValueError("need at least one buffer")
    n = len(cycles)

    def sort_key(idxs: tuple[int, ...]) -> tuple:
        if not idxs:
            return (1, 0)
        return (0, min(min(cycles[i].cells) for i in idxs))

    if n <= k:
        bins = [(i,) for i in range(n)] + [()] * (k - n)
        return sorted(bins, key=sort_key)

    loads = [c.size + 1 for c in cycles]
    if n > 24:
        order = sorted(range(n), key=lambda i: -loads[i])
        heap = [[0, b, []] for b in range(k)]
        for i in order:
            heap.sort(key=lambda e: (e[0], e[1]))
            heap[0][0] += loads[i]
            heap[0][2].append(i)
        heap.sort(key=lambda e: e[1])
        assign = [tuple(sorted(e[2])) for e in heap]
    else:
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + loads[i]
        best_min = -1
        best: list[list[int]] | None = None
        bins_load = [0] * k
        bins: list[list[int]] = [[] for _ in range(k)]
        seen: set[tuple] = set()

        def dfs(i: int) -> None:
            nonlocal best_min, best
            if i == n:
                low = min(bins_load)
                if low > best_min:
                    best_min = low
                    best = [list(b) for b in bins]
                return
            if min(bins_load) + suffix[i] <= best_min:
                return
            key = (i, tuple(sorted(bins_load)))
            if key in seen:
                return
            seen.add(key)
            for b in range(k):
                bins_load[b] += loads[i]
                bins[b].append(i)
                dfs(i + 1)
                bins[b].pop()
                bins_load[b] -= loads[i]

        dfs(0)
        assert best is not None
        assign = [tuple(b) for b in best]

    return sorted(assign, key=sort_key)


def merge_task_sequences(
    sequences: Sequence[Sequence[PickNSwap]],
    lattice: Lattice,
    exact_states: int = 3_000_000,
    beam_width: int | None = 5_000,
) -> tuple[list[PickNSwap], tuple[int, ...], float]:
    """Interleave per-buffer action sequences to minimize travel.

    Each sequence keeps its internal order; the robot executes one
    merged tour, rest to rest.  Returns the merged actions, the 1-based
    index of the source sequence per action, and the tour length.

    The DP is exact while (number of sequences) * prod(len + 1) stays
    within ``exact_states``; past that it keeps the ``beam_width``
    cheapest states per stage, or raises MergeStateLimit when beaming
    is disabled.
    """
    active = [(i, list(seq)) for i, seq in enumerate(sequences, start=1) if len(seq)]
    if not active:
        return [], (), 0.0
    if len(active) == 1:
        label, seq = active[0]
        return seq, (label,) * len(seq), sequence_travel(seq, lattice)

    nseq = len(active)
    lengths = [len(seq) for _, seq in active]
    product = math.prod(x + 1 for x in lengths)
    if nseq * product > exact_states and beam_width is None:
        raise MergeStateLimit(
            f"{nseq * product} interleaving states exceed the exact cap of {exact_states}"
        )
    keep = None if nseq * product <= exact_states else beam_width

    lengths_a = np.asarray(lengths, dtype=np.int64)
    radix = lengths_a + 1
    stride = np.ones(nseq, dtype=np.int64)
    for b in range(1, nseq):
        stride[b] = stride[b - 1] * radix[b - 1]
    max_len = int(lengths_a.max())
    rows = np.zeros((nseq, max_len))
    cols = np.zeros((nseq, max_len))
    for b, (_, seq) in enumerate(active):
        for j, a in enumerate(seq):
            xy = lattice.coords(a.cell)
            rows[b, j] = xy[0]
            cols[b, j] = xy[1] if len(xy) > 1 else 0.0
    rest_xy = lattice.coords(lattice.rest)
    rest_r = float(rest_xy[0])
    rest_c = float(rest_xy[1]) if len(rest_xy) > 1 else 0.0

    # Stage s holds every reachable state after s actions, encoded as
    # last-mover + nseq * (mixed-radix progress vector).
    codes = np.arange(nseq, dtype=np.int64) + nseq * stride
    costs = np.hypot(rest_r - rows[:, 0], rest_c - cols[:, 0])
    records = [(codes.copy(), np.full(nseq, -1, dtype=np.int8))]

    total_stages = int(lengths_a.sum())
    for _ in range(2, total_stages + 1):
        last = codes % nseq
        progress = codes // nseq
        f_last = (progress // stride[last]) % radix[last]
        pr = rows[last, f_last - 1]
        pc = cols[last, f_last - 1]
        cand_codes, cand_costs, cand_pred = [], [], []
        for b in range(nseq):
            f_b = (progress // stride[b]) % radix[b]
            ok = f_b < lengths_a[b]
            if not ok.any():
                continue
            f_sel = f_b[ok]
            leg = np.hypot(pr[ok] - rows[b, f_sel], pc[ok] - cols[b, f_sel])
            cand_codes.append(codes[ok] - last[ok] + b + nseq * stride[b])
            cand_costs.append(costs[ok] + leg)
            cand_pred.append(last[ok].astype(np.int8))
        cc = np.concatenate(cand_codes)
        cw = np.concatenate(cand_costs)
        cp = np.concatenate(cand_pred)
        order = np.lexsort((cw, cc))
        cc, cw, cp = cc[order], cw[order], cp[order]
        first = np.ones(len(cc), dtype=bool)
        first[1:] = cc[1:] != cc[:-1]
        codes, costs, preds = cc[first], cw[first], cp[first]
        if keep is not None and len(codes) > keep:
            sel = np.lexsort((codes, costs))[:keep]
            sel.sort()
            codes, costs, preds = codes[sel], costs[sel], preds[sel]
        records.append((codes, preds))

    last = codes % nseq
    progress = codes // nseq
    f_last = (progress // stride[last]) % radix[last]
    totals = costs + np.hypot(
        rows[last, f_last - 1] - rest_r, cols[last, f_last - 1] - rest_c
    )
    pick = np.lexsort((codes, totals))[0]
    travel = float(totals[pick])

    moves: list[int] = []
    code = int(codes[pick])
    for stage in range(total_stages - 1, -1, -1):
        rec_codes, rec_preds = records[stage]
        at = int(np.searchsorted(rec_codes, code))
        t = code % nseq
        moves.append(t)
        pred = int(rec_preds[at])
        if pred < 0:
            break
        code = pred + nseq * (code // nseq - stride[t])
    moves.reverse()

    merged: list[PickNSwap] = []
    labels: list[int] = []
    cursor = [0] * nseq
    for t in moves:
        label, seq = active[t]
        merged.append(seq[cursor[t]])
        labels.append(label)
        cursor[t] += 1

    # A beam can in principle lose to the trivial order; never return
    # something worse than running the sequences back to back.
    if keep is not None:
        flat = [a for _, seq in active for a in seq]
        flat_travel = sequence_travel(flat, lattice)
        if flat_travel < travel - 1e-9:
            flat_labels = tuple(label for label, seq in active for _ in seq)
            return flat, flat_labels, flat_travel
    return merged, tuple(labels), travel


def buffer_share_actions(
    share: Sequence[Cycle], lattice: Lattice, config: PipelineConfig = PipelineConfig()
) -> tuple[list[PickNSwap], bool]:
    """Plan one buffer's share of cycles as a single-buffer tour.

    1D shares are re-grouped into span-connected runs, each planned
    exactly (or greedily past the size cap) and spliced left to right.
    On a 2D board the share is one nearest-first greedy tour.
    """
    if not share:
        return [], False
    if lattice.ndim > 1:
        return greedy_switch_actions(share, lattice, DETOUR_SLACK_2D, order="nearest"), False
    limits = SearchLimits(size_cap=config.buffer_exact_cells, timeout_s=config.search_timeout_s)
    per_run = []
    fallback = False
    for run in group_cycles(share, lattice):
        actions, degraded = exact_group_actions(run.cycles, lattice, limits)
        fallback = fallback or degraded
        per_run.append(actions)
    return compose_group_actions(per_run), fallback


def plan_multi_buffer_dp(
    start: Arrangement, k: int, config: PipelineConfig = PipelineConfig()
) -> Plan:
    """Full k-buffer pipeline: assign, plan per buffer, interleave.

    Each span-disjoint group's cycles are split over the k buffers to
    balance swap workloads, each buffer's share is planned as its own
    single-buffer tour, and the k action sequences are interleaved into
    one travel-minimizing tour.  Buffers own disjoint cycles and each
    sequence parks at most one object at a time, so any interleaving
    stays within the k-buffer budget.
    """
    if k < 1:
        raise ValueError("need at least one buffer")
    lattice = start.lattice
    cycles = nontrivial_cycles(start)
    be = bookend(lattice)
    if not cycles:
        return Plan((be, be), buffer_of=(None, None))

    shares: list[list[Cycle]] = [[] for _ in range(k)]
    for group in group_cycles(cycles, lattice):
        for slot, idxs in enumerate(assign_cycles(group.cycles, k)):
            shares[slot].extend(group.cycles[i] for i in idxs)

    sequences: list[list[PickNSwap]] = []
    fallback = False
    for share in shares:
        actions, degraded = buffer_share_actions(share, lattice, config)
        fallback = fallback or degraded
        sequences.append(actions)

    merged, labels, _ = merge_task_sequences(
        sequences, lattice, config.merge_exact_states, config.merge_beam
    )
    return Plan((be, *merged, be), buffer_of=(None, *labels, None), fallback=fallback)
