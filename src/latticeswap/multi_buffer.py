"""Planning with k hand buffers: assign, chain, interleave.

The pipeline partitions each group's cycles over the k buffers so the
smallest per-buffer workload is as large as possible, plans each
buffer's share as a stand-alone single-buffer tour, then interleaves
the per-buffer action sequences with a dynamic program that minimizes
total travel.  Buffers own disjoint cycles, and every per-buffer plan
keeps at most one object in hand, so any interleaving of the sequences
is executable with k buffers; the DP only has to pick the cheapest one.
Its one setting is ``timeout_s``, the time limit of each exact share search.

The interleaving DP's state is (which buffer moved last, how far each
sequence has progressed).  Stage s holds the sorted mixed-radix codes
of the distinct progress vectors after s actions and a dense cost
matrix by last mover and progress vector, +inf where no state exists.
Buffer b takes every state of one progress vector to one successor,
so a stage step is one minimum over the movers per buffer and one
stable argsort merging the buffers' successor codes, each already in
code order; nothing is sorted by cost.  No predecessor is stored: the
backtrack recomputes it for the one state per stage on the returned
path, as the first previous mover whose cost plus leg is the state's
cost, the sum the forward step took, so ties go to the smallest
previous mover.  The state count grows as the product of the sequence
lengths, so past ``MERGE_EXACT_STATES`` the DP switches to a beam: each
stage after the first keeps only its cheapest states, ties to the
smaller code, picked before the code sort.  The beamed result is
never worse than running the sequences back to back, since that
baseline is checked explicitly.

Every leg, from rest, between two stops or home, is one lookup in the
lattice's :func:`~latticeswap.lattice.offset_table` by the difference of
two integer cell keys, so legs equal ``Lattice.distance`` to the last
bit and the returned travel is the tour length of the returned plan.
Each sequence's row of cells has a leading and a trailing rest slot:
slot d is where the robot stands after that buffer's d-th move, the
start is stage 0 (at rest, cost 0, under mover 0), and a finished
sequence's next stop is a rest slot, its successors dropped by progress.
numpy is imported on the first merge of two or more sequences, so
planners that never merge do not load it.
"""

from __future__ import annotations

import math
from typing import ClassVar, Sequence

from .errors import InvalidConfig, MergeStateLimit
from .lattice import (
    Arrangement,
    Cycle,
    Lattice,
    group_cycles,
    nontrivial_cycles,
    offset_table,
)
from .plan import PickNSwap, Plan, bracket, sequence_travel
from .search import SearchLimits
from .single_buffer import greedy_tour_actions, groupwise_exact_actions

MERGE_EXACT_STATES = 3_000_000  # interleaving states the merge solves exactly
MERGE_BEAM = 5_000  # states kept per stage past that


class PipelineConfig:
    """Not a setting: the pipeline's fixed caps, named for the stage-wise
    benchmark replay, which reads them from ``PipelineConfig()``.  The
    package never reads them; the class goes once that replay reads the
    module constants.
    """

    buffer_exact_cells: ClassVar[int] = SearchLimits.size_cap
    search_timeout_s: ClassVar[float] = SearchLimits.timeout_s
    merge_exact_states: ClassVar[int] = MERGE_EXACT_STATES
    merge_beam: ClassVar[int] = MERGE_BEAM


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
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    n = len(cycles)

    def sort_key(idxs: tuple[int, ...]) -> tuple:
        if not idxs:
            return (1, 0)
        return (0, min(min(cycles[i].cells) for i in idxs))

    if n <= k:
        bins = [(i,) for i in range(n)] + [()] * (k - n)
        return sorted(bins, key=sort_key)

    loads = [c.size + 1 for c in cycles]
    bins_load = [0] * k
    bins: list[list[int]] = [[] for _ in range(k)]
    if n > 24:
        for i in sorted(range(n), key=lambda i: -loads[i]):
            b = min(range(k), key=lambda b: (bins_load[b], b))
            bins_load[b] += loads[i]
            bins[b].append(i)
        assign = [tuple(sorted(b)) for b in bins]
    else:
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + loads[i]
        best_min = -1
        best: list[list[int]] | None = None
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
    exact_states: int = MERGE_EXACT_STATES,
    beam_width: int = MERGE_BEAM,
) -> tuple[list[PickNSwap], tuple[int, ...], float]:
    """Interleave per-buffer action sequences to minimize travel.

    Each sequence keeps its internal order; the robot executes one
    merged tour, rest to rest.  Returns the merged actions, the 1-based
    index of the source sequence per action, and the tour length.

    The DP is exact while (number of sequences) * prod(len + 1) stays
    within ``exact_states``; past that it keeps the ``beam_width``
    cheapest states per stage.  It raises MergeStateLimit, before any
    stage, when the state codes below would not fit in int64.

    Ties are broken the same way on every path, so the result is a
    function of the inputs alone: a state keeps its cheapest
    predecessor, ties to the smallest previous mover; a beam keeps the
    cheapest states after the first stage, ties to the smaller code;
    the tour ends in the cheapest final state, ties to the smaller
    code.  A state's code is last mover + nseq * sum(progress[b] *
    stride[b]), with buffers numbered from 0 in input order and
    stride[b] = prod(len[c] + 1 for c < b).
    """
    active = [(i, list(seq)) for i, seq in enumerate(sequences, start=1) if len(seq)]
    if not active:
        return [], (), 0.0
    if len(active) == 1:
        label, seq = active[0]
        return seq, (label,) * len(seq), sequence_travel(seq, lattice)

    import numpy as np

    nseq = len(active)
    lengths = [len(seq) for _, seq in active]
    states = nseq * math.prod(x + 1 for x in lengths)
    if states > np.iinfo(np.int64).max:
        raise MergeStateLimit(f"{states} interleaving states overflow the int64 state codes")
    keep = None if states <= exact_states else beam_width

    lengths_a = np.asarray(lengths, dtype=np.int64)
    radix = lengths_a + 1
    stride = np.cumprod(np.concatenate(([1], radix[:-1])))
    # Slot d is where the robot stands after that buffer's d-th move and
    # slot d + 1 its next stop; slot 0 and the slots past the end rest.
    width = int(lengths_a.max()) + 2
    cells = np.full((nseq, width), lattice.rest, dtype=np.int64)
    for b, (_, seq) in enumerate(active):
        cells[b, 1 : len(seq) + 1] = [a.cell for a in seq]
    # Every leg is one lookup: with a slot's key row * (2 * ncols - 1) +
    # col, the leg from slot a to slot b is leg[center + key[a] - key[b]].
    # The rest cell has key 0.
    ncols = lattice.dims[-1] if lattice.ndim > 1 else 1
    row, col = np.divmod(cells.ravel() - 1, ncols)
    key = row * (2 * ncols - 1) + col
    leg = np.asarray(offset_table(lattice.dims))
    center = len(leg) // 2

    # Stage s: the sorted codes of its G distinct progress vectors and
    # cost[last, g], +inf where no state exists; stage 0 is at rest.
    stride_c, radix_c, full = stride[:, None], radix[:, None], lengths_a[:, None]
    row_base = np.arange(nseq)[:, None] * width
    progress = np.zeros(1, dtype=np.int64)
    cost = np.full((nseq, 1), np.inf)
    cost[0, 0] = 0.0
    stages = [(progress, cost)]

    total_stages = int(lengths_a.sum())
    for stage in range(1, total_stages + 1):
        digits = progress // stride_c % radix_c
        slot = row_base + digits
        # Buffer b takes every state of progress p to (p + e_b, b), at
        # the least cost over whichever buffer moved last.  A finished
        # buffer's next stop is a rest slot; its successors are dropped.
        stop = key[slot + 1][:, None]
        best = (cost + leg[center + key[slot] - stop]).min(axis=1).ravel()
        succ = (progress + stride_c).ravel()
        kept = np.flatnonzero((digits < full).ravel())
        if keep is not None and stage > 1 and len(kept) > keep:
            # The keep cheapest successors, ties to the smaller code.
            cand = best[kept]
            thr = np.partition(cand, keep - 1)[keep - 1]
            sel = cand < thr
            ties = np.flatnonzero(cand == thr)
            need = keep - np.count_nonzero(sel)
            if len(ties) > need:
                tied = kept[ties]
                codes = nseq * succ[tied] + tied // len(progress)
                ties = ties[np.argsort(codes, kind="stable")[:need]]
            sel[ties] = True
            kept = kept[sel]
        # Each buffer's successors are already in code order, so the
        # stable sort only merges nseq sorted runs.
        kept = kept[np.argsort(succ[kept], kind="stable")]
        ahead = succ[kept]
        head = np.ones(len(kept), dtype=bool)
        np.not_equal(ahead[1:], ahead[:-1], out=head[1:])
        movers = kept // len(progress)
        progress = ahead[head]
        cost = np.full((nseq, len(progress)), np.inf)
        cost[movers, np.cumsum(head) - 1] = best[kept]
        stages.append((progress, cost))

    # The last stage has one progress vector, every sequence done.
    totals = cost[:, 0] + leg[center + key[row_base[:, 0] + lengths_a]]
    last = int(np.argmin(totals))
    travel = float(totals[last])

    # Walk back one state per stage: the predecessor of (p, last) is
    # the first mover, in ascending order, whose cost plus the leg to
    # last's stop is the state's cost, the sum the forward step took.
    merged: list[PickNSwap] = []
    labels: list[int] = []
    digit = list(lengths)
    code = int(progress[0])
    target = cost[last, 0]
    for progress, cost in reversed(stages[:-1]):
        digit[last] -= 1
        label, seq = active[last]
        merged.append(seq[digit[last]])
        labels.append(label)
        code -= int(stride[last])
        g = int(np.searchsorted(progress, code))
        stop = key[last * width + digit[last] + 1]
        for prev in range(nseq):
            if cost[prev, g] + leg[center + key[prev * width + digit[prev]] - stop] == target:
                break
        last, target = prev, cost[prev, g]
    merged.reverse()
    labels.reverse()

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
    share: Sequence[Cycle], lattice: Lattice, timeout_s: float
) -> tuple[list[PickNSwap], bool]:
    """Plan one buffer's share of cycles as a single-buffer tour.

    A 1D share is solved by ``groupwise_exact_actions``: re-grouped into
    span-connected runs, each planned exactly (or greedily past the size
    cap or ``timeout_s``) and spliced left to right.
    On a 2D board the share is one nearest-first greedy tour.
    """
    if lattice.ndim > 1:
        return greedy_tour_actions(share, lattice), False
    return groupwise_exact_actions(share, lattice, timeout_s)


def plan_multi_buffer_dp(start: Arrangement, k: int, timeout_s: float = SearchLimits.timeout_s) -> Plan:
    """Full k-buffer pipeline: assign, plan per buffer, interleave.

    Each span-disjoint group's cycles are split over the k buffers to
    balance swap workloads, each buffer's share is planned as its own
    single-buffer tour, and the k action sequences are interleaved into
    one travel-minimizing tour.  Buffers own disjoint cycles and each
    sequence parks at most one object at a time, so any interleaving
    stays within the k-buffer budget.  ``timeout_s`` bounds each exact
    share search.  Buffers past the largest group's cycle count would
    only get empty shares, which ``assign_cycles`` sorts last, so the
    pipeline plans with no more buffers than that.
    """
    if k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    lattice = start.lattice
    groups = group_cycles(nontrivial_cycles(start), lattice)
    k = max(1, min(k, max((len(g.cycles) for g in groups), default=0)))
    shares: list[list[Cycle]] = [[] for _ in range(k)]
    for group in groups:
        for slot, idxs in enumerate(assign_cycles(group.cycles, k)):
            shares[slot].extend(group.cycles[i] for i in idxs)

    sequences: list[list[PickNSwap]] = []
    fallback = False
    for share in shares:
        actions, degraded = buffer_share_actions(share, lattice, timeout_s)
        fallback = fallback or degraded
        sequences.append(actions)

    merged, labels, _ = merge_task_sequences(sequences, lattice)
    return bracket(merged, lattice, labels, fallback)
