"""Planning with k hand buffers: assign, chain, interleave.

The pipeline partitions each group's cycles over the k buffers so the
smallest per-buffer workload is as large as possible, plans each
buffer's share as a stand-alone single-buffer tour, then interleaves
the per-buffer action sequences with a dynamic program that minimizes
total travel.  Buffers own disjoint cycles, and every per-buffer plan
keeps at most one object in hand, so any interleaving of the sequences
is executable with k buffers; the DP only has to pick the cheapest one.

The interleaving DP's state is (which buffer moved last, how far each
sequence has progressed), packed into one integer code.  Stage s holds
the states after s actions sorted by code, so states with the same
progress vector sit side by side, and buffer b takes all of them to
the same successor.  A stage step is therefore one grouped minimum per
buffer over those runs (ties to the smallest previous mover) and one
stable argsort to put the successors back in code order; nothing is
sorted by cost.  The state count grows as the product of the sequence
lengths, so past a configurable size the DP switches to a beam: each
stage keeps only its cheapest states, ties to the smaller code.  A
beamed stage picks its cheapest successors before the code sort, so
only the kept ones are sorted.  The beamed result is never worse than
running the sequences back to back, since that baseline is checked
explicitly.

Every leg, from rest, between two stops or home, is one lookup in the
lattice's :func:`~latticeswap.lattice.offset_table` by the difference of
two integer cell keys, so legs equal ``Lattice.distance`` to the last
bit and the returned travel is the tour length of the returned plan.
Each sequence's row of cells is padded with at least one rest slot: a
finished sequence's next slot is then a rest slot in its own row, no
per-stage clip is needed, and its successors are dropped by progress.
numpy is imported on the first merge of two or more sequences, so
planners that never merge do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the k-buffer pipeline.

    Within a buffer's share, each span-connected run of cycles covering
    at most ``buffer_exact_cells`` cells is planned exactly; larger
    runs fall back to the greedy switching tour and flag the plan.
    ``search_timeout_s`` bounds each of those exact searches.  The
    interleaving DP runs exactly up to ``MERGE_EXACT_STATES`` states and
    then beams, keeping ``MERGE_BEAM`` states per stage; the two class
    constants only name those caps for the stage-wise benchmark replay,
    and can go once that replay reads the module constants.
    """

    buffer_exact_cells: int = SearchLimits.size_cap
    search_timeout_s: float = SearchLimits.timeout_s
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
    exact_states: int = MERGE_EXACT_STATES,
    beam_width: int | None = MERGE_BEAM,
) -> tuple[list[PickNSwap], tuple[int, ...], float]:
    """Interleave per-buffer action sequences to minimize travel.

    Each sequence keeps its internal order; the robot executes one
    merged tour, rest to rest.  Returns the merged actions, the 1-based
    index of the source sequence per action, and the tour length.

    The DP is exact while (number of sequences) * prod(len + 1) stays
    within ``exact_states``; past that it keeps the ``beam_width``
    cheapest states per stage, or raises MergeStateLimit when beaming
    is disabled.  It also raises MergeStateLimit, before any stage,
    when the state codes below would not fit in int64.

    Ties are broken the same way on every path, so the result is a
    function of the inputs alone: a state keeps its cheapest
    predecessor, ties to the smallest previous mover; a beam keeps the
    cheapest states, ties to the smaller code; the tour ends in the
    cheapest final state, ties to the smaller code.  A state's code is
    last mover + nseq * sum(progress[b] * stride[b]), with buffers
    numbered from 0 in input order and stride[b] = prod(len[c] + 1 for
    c < b).
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
    if states > exact_states and beam_width is None:
        raise MergeStateLimit(f"{states} interleaving states exceed the exact cap of {exact_states}")
    keep = None if states <= exact_states else beam_width

    lengths_a = np.asarray(lengths, dtype=np.int64)
    radix = lengths_a + 1
    stride = np.cumprod(np.concatenate(([1], radix[:-1])))
    # One slot per action plus at least one rest slot per row, so a
    # finished sequence's next slot is a rest slot inside its own row.
    cells = np.full((nseq, int(lengths_a.max()) + 1), lattice.rest, dtype=np.int64)
    for b, (_, seq) in enumerate(active):
        cells[b, : len(seq)] = [a.cell for a in seq]
    # Every leg is one lookup: with a slot's key row * (2 * ncols - 1) +
    # col, the leg from slot a to slot b is leg[center + key[a] - key[b]].
    # The rest cell has key 0.
    ncols = lattice.dims[-1] if lattice.ndim > 1 else 1
    row, col = np.divmod(cells.ravel() - 1, ncols)
    key = row * (2 * ncols - 1) + col
    leg = np.asarray(offset_table(lattice.dims))
    center = len(leg) // 2

    # Stage s holds every reachable state after s actions, encoded as
    # last-mover + nseq * (mixed-radix progress vector) and kept sorted
    # by code, so the states sharing a progress vector are adjacent.
    # ``pos`` is center + the key of each state's robot cell.
    buffers = np.arange(nseq)[:, None]
    stride_c, radix_c, full = stride[:, None], radix[:, None], lengths_a[:, None]
    row_base = buffers * cells.shape[1]
    codes = np.arange(nseq, dtype=np.int64) + nseq * stride
    pos = center + key[row_base[:, 0]]
    costs = leg[pos]
    records = [(codes, np.full(nseq, -1, dtype=np.int8))]

    total_stages = int(lengths_a.sum())
    for _ in range(2, total_stages + 1):
        n = len(codes)
        progress, last = np.divmod(codes, nseq)
        # Buffer b takes every state of progress p to (p + e_b, b), so
        # the states of one progress group compete for one successor
        # per buffer: keep the cheapest, ties to the smallest mover.
        # Its next slot depends on the group alone; a finished buffer's
        # is a rest slot, and its successors are dropped below.
        head = np.ones(n, dtype=bool)
        np.not_equal(progress[1:], progress[:-1], out=head[1:])
        group = np.cumsum(head) - 1
        starts = np.flatnonzero(head)
        ahead = progress[starts]
        digits = ahead // stride_c % radix_c
        nxt = key[row_base + digits]
        w = costs + leg[pos - nxt[:, group]]
        best = np.minimum.reduceat(w, starts, axis=1)
        tied = np.where(w == best[:, group], last, nseq)
        pred = np.minimum.reduceat(tied, starts, axis=1).ravel()
        best = best.ravel()
        succ = (nseq * (ahead + stride_c) + buffers).ravel()
        kept = np.flatnonzero(digits < full)
        if keep is not None and len(kept) > keep:
            # The keep cheapest successors, ties to the smaller code.
            cand = best[kept]
            thr = np.partition(cand, keep - 1)[keep - 1]
            sel = cand < thr
            ties = np.flatnonzero(cand == thr)
            need = keep - np.count_nonzero(sel)
            if len(ties) > need:
                ties = ties[np.argsort(succ[kept[ties]], kind="stable")[:need]]
            sel[ties] = True
            kept = kept[sel]
        kept = kept[np.argsort(succ[kept], kind="stable")]
        codes = succ[kept]
        costs = best[kept]
        records.append((codes, pred[kept].astype(np.int8)))
        pos = center + nxt.ravel()[kept]

    totals = costs + leg[pos]
    pick = int(np.argmin(totals))
    travel = float(totals[pick])

    moves: list[int] = []
    code = int(codes[pick])
    for stage in range(total_stages - 1, -1, -1):
        rec_codes, rec_preds = records[stage]
        i = int(np.searchsorted(rec_codes, code))
        t = code % nseq
        moves.append(t)
        pred = int(rec_preds[i])
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

    A 1D share is solved by ``groupwise_exact_actions``: re-grouped into
    span-connected runs, each planned exactly (or greedily past the size
    cap) and spliced left to right.
    On a 2D board the share is one nearest-first greedy tour.
    """
    if lattice.ndim > 1:
        return greedy_tour_actions(share, lattice), False
    limits = SearchLimits(size_cap=config.buffer_exact_cells, timeout_s=config.search_timeout_s)
    return groupwise_exact_actions(share, lattice, limits)


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
        raise InvalidConfig(f"need at least one buffer, got k={k}")
    lattice = start.lattice
    shares: list[list[Cycle]] = [[] for _ in range(k)]
    for group in group_cycles(nontrivial_cycles(start), lattice):
        for slot, idxs in enumerate(assign_cycles(group.cycles, k)):
            shares[slot].extend(group.cycles[i] for i in idxs)

    sequences: list[list[PickNSwap]] = []
    fallback = False
    for share in shares:
        actions, degraded = buffer_share_actions(share, lattice, config)
        fallback = fallback or degraded
        sequences.append(actions)

    merged, labels, _ = merge_task_sequences(sequences, lattice)
    return bracket(merged, lattice, labels, fallback)
