"""Lattices, arrangements, and permutation cycle structure.

Conventions used throughout the package:

- Cells of a d-dimensional lattice (d = 1 or 2) are numbered 1..m in
  row-major order, so cell 1 is the corner (1, 1) next to the robot's
  rest position.
- An arrangement maps every cell to the label of the object stored
  there; ``placement[i]`` is the object in cell ``i + 1``.
- The goal is always the identity arrangement (object i in cell i).
  Instances with an arbitrary goal are normalized by relabeling, see
  :meth:`Arrangement.relative_to`.
- ``EMPTY`` (0) denotes "no object" in action fields and cell contents.

A cycle is written as a tuple of object labels starting at the smallest
label: the goal cell of each listed object is occupied by the next one,
cyclically.  Because the goal is the identity, the goal cells of a
cycle's objects are exactly the labels themselves, so a cycle's cells
and its objects coincide as sets.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvalidArrangement

EMPTY = 0

REST_CELL = 1


@dataclass(frozen=True)
class Lattice:
    """A 1D or 2D grid of unit-spaced cells with row-major numbering."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.dims) <= 2:
            raise ValueError(f"only 1D and 2D lattices are supported, got dims={self.dims}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"lattice dimensions must be positive, got dims={self.dims}")

    @property
    def m(self) -> int:
        return math.prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def rest(self) -> int:
        """The robot's rest cell, corner (1, ..., 1)."""
        return REST_CELL

    def coords(self, cell: int) -> tuple[int, ...]:
        """1-based coordinates of a cell.

        >>> Lattice((2, 3)).coords(5)
        (2, 2)
        """
        if not 1 <= cell <= self.m:
            raise ValueError(f"cell {cell} outside lattice of size {self.m}")
        if self.ndim == 1:
            return (cell,)
        ncols = self.dims[1]
        return ((cell - 1) // ncols + 1, (cell - 1) % ncols + 1)

    def cell_at(self, coords: Sequence[int]) -> int:
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {coords}")
        for c, d in zip(coords, self.dims):
            if not 1 <= c <= d:
                raise ValueError(f"coordinates {tuple(coords)} outside dims {self.dims}")
        if self.ndim == 1:
            return coords[0]
        return (coords[0] - 1) * self.dims[1] + coords[1]

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two cell centers (unit spacing).

        2D distances read the coordinate table shared by every lattice
        of the same dims; cells outside the lattice raise ValueError.
        """
        if len(self.dims) == 1:
            return float(abs(a - b))
        rows, cols = coordinate_table(self.dims)
        if not (0 < a < len(rows) and 0 < b < len(rows)):
            raise ValueError(f"cells {a}, {b} not both inside lattice of size {self.m}")
        return math.hypot(rows[a] - rows[b], cols[a] - cols[b])


@lru_cache(maxsize=None)
def coordinate_table(dims: tuple[int, int]) -> tuple[list[int], list[int]]:
    """Row and column of every cell of a 2D lattice, indexed by cell.

    Computed once per dims and shared by every lattice of that shape;
    index 0 is a placeholder since cells are numbered from 1.
    """
    nrows, ncols = dims
    rows = [0] + [r for r in range(1, nrows + 1) for _ in range(ncols)]
    cols = [0] + list(range(1, ncols + 1)) * nrows
    return rows, cols


@dataclass(frozen=True)
class Arrangement:
    """An assignment of the objects 1..m to the cells of a lattice."""

    lattice: Lattice
    placement: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.lattice.m
        if len(self.placement) != m:
            raise InvalidArrangement(
                f"placement has {len(self.placement)} entries for a lattice of {m} cells"
            )
        if sorted(self.placement) != list(range(1, m + 1)):
            raise InvalidArrangement("placement is not a bijection onto labels 1..m")

    @classmethod
    def from_sequence(cls, placement: Iterable[int], dims: Sequence[int] | None = None) -> "Arrangement":
        placement = tuple(placement)
        lattice = Lattice(tuple(dims) if dims is not None else (len(placement),))
        return cls(lattice, placement)

    @classmethod
    def identity(cls, lattice: Lattice) -> "Arrangement":
        return cls(lattice, tuple(range(1, lattice.m + 1)))

    @property
    def m(self) -> int:
        return self.lattice.m

    def at(self, cell: int) -> int:
        """Object stored in a cell."""
        return self.placement[cell - 1]

    def cell_of(self, obj: int) -> int:
        """Cell currently storing an object."""
        return self.placement.index(obj) + 1

    @property
    def is_identity(self) -> bool:
        return all(self.placement[i] == i + 1 for i in range(self.m))

    def relative_to(self, goal: "Arrangement") -> "Arrangement":
        """Relabel objects so that ``goal`` becomes the identity.

        Planning for (start, goal) is equivalent to planning for the
        relabeled start against the identity goal.
        """
        if goal.lattice != self.lattice:
            raise InvalidArrangement("start and goal live on different lattices")
        relabel = {obj: cell for cell, obj in enumerate(goal.placement, start=1)}
        return Arrangement(self.lattice, tuple(relabel[o] for o in self.placement))


def random_arrangement(m: int, seed: int, dims: Sequence[int] | None = None) -> Arrangement:
    """Uniformly random arrangement of m objects, reproducible per seed."""
    if m < 1:
        raise ValueError("m must be at least 1")
    lattice = Lattice(tuple(dims) if dims is not None else (m,))
    if lattice.m != m:
        raise ValueError(f"dims {lattice.dims} hold {lattice.m} cells, expected {m}")
    labels = list(range(1, m + 1))
    random.Random(seed).shuffle(labels)
    return Arrangement(lattice, tuple(labels))


@dataclass(frozen=True)
class Cycle:
    """A cycle of the arrangement permutation.

    ``objects`` starts at the smallest label; the goal cell of each
    listed object holds the next listed object, cyclically.
    """

    objects: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.objects)

    @property
    def trivial(self) -> bool:
        return self.size == 1

    @property
    def cells(self) -> tuple[int, ...]:
        """Goal cells of the cycle's objects (equal to the labels)."""
        return self.objects

    @property
    def span(self) -> tuple[int, int]:
        """Smallest and largest cell index touched by the cycle."""
        return (min(self.objects), max(self.objects))

    def resident(self, cell: int) -> int:
        """Object initially stored in one of the cycle's cells.

        O(L) in the cycle length; use :func:`resident_map` to look up
        many cells.
        """
        try:
            return resident_map((self,))[cell]
        except KeyError:
            raise ValueError(f"cell {cell} is not on cycle {self.objects}") from None


@dataclass(frozen=True)
class CycleGroup:
    """A maximal set of non-trivial cycles with overlapping cell spans.

    In 1D, groups partition the non-trivial cycles into blocks whose
    spans occupy disjoint intervals; they can be planned independently.
    In 2D there is a single group.
    """

    cycles: tuple[Cycle, ...]

    @property
    def span(self) -> tuple[int, int]:
        return (min(c.span[0] for c in self.cycles), max(c.span[1] for c in self.cycles))

    @property
    def cells(self) -> tuple[int, ...]:
        return tuple(sorted(cell for c in self.cycles for cell in c.cells))


def decompose_cycles(arrangement: Arrangement) -> list[Cycle]:
    """All cycles of the arrangement, ordered by smallest contained label.

    >>> arr = Arrangement.from_sequence([4, 2, 5, 1, 3])
    >>> [c.objects for c in decompose_cycles(arr)]
    [(1, 4), (2,), (3, 5)]
    """
    m = arrangement.m
    seen = [False] * (m + 1)
    cycles = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        chain = []
        obj = start
        while not seen[obj]:
            seen[obj] = True
            chain.append(obj)
            obj = arrangement.at(obj)
        cycles.append(Cycle(tuple(chain)))
    return cycles


def resident_map(cycles: Iterable[Cycle]) -> dict[int, int]:
    """Initial content of every cell of the given cycles, in O(m).

    Each cell holds the next object of its cycle, so the map zips every
    cycle with its rotation by one.
    """
    return {
        cell: obj
        for c in cycles
        for cell, obj in zip(c.objects, c.objects[1:] + c.objects[:1])
    }


def nontrivial_cycles(arrangement: Arrangement) -> list[Cycle]:
    return [c for c in decompose_cycles(arrangement) if not c.trivial]


def group_cycles(cycles: Iterable[Cycle], lattice: Lattice) -> list[CycleGroup]:
    """Partition non-trivial cycles into span-overlap groups, left to right.

    Trivial cycles are dropped.  In 2D every non-trivial cycle lands in
    one group.
    """
    work = sorted((c for c in cycles if not c.trivial), key=lambda c: c.span)
    if not work:
        return []
    if lattice.ndim != 1:
        return [CycleGroup(tuple(work))]
    groups: list[list[Cycle]] = [[work[0]]]
    reach = work[0].span[1]
    for cyc in work[1:]:
        lo, hi = cyc.span
        if lo <= reach:
            groups[-1].append(cyc)
            reach = max(reach, hi)
        else:
            groups.append([cyc])
            reach = hi
    return [CycleGroup(tuple(g)) for g in groups]


@dataclass(frozen=True)
class CycleStatistics:
    """Monte Carlo summary of random-permutation cycle structure."""

    m: int
    samples: int
    frac1_mean: float
    frac1_std: float
    frac2_mean: float
    frac2_std: float
    frac3_mean: float
    frac3_std: float
    top3_mean: float
    cycle_count_mean: float

    CSV_COLUMNS = (
        "m",
        "samples",
        "frac1_mean",
        "frac1_std",
        "frac2_mean",
        "frac2_std",
        "frac3_mean",
        "frac3_std",
        "top3_mean",
        "cycle_count_mean",
    )

    def csv_row(self) -> list[str]:
        return [
            str(self.m),
            str(self.samples),
            f"{self.frac1_mean:.6f}",
            f"{self.frac1_std:.6f}",
            f"{self.frac2_mean:.6f}",
            f"{self.frac2_std:.6f}",
            f"{self.frac3_mean:.6f}",
            f"{self.frac3_std:.6f}",
            f"{self.top3_mean:.6f}",
            f"{self.cycle_count_mean:.6f}",
        ]


def sample_cycle_sizes(m: int, rng: random.Random) -> list[int]:
    """Cycle sizes of a uniformly random permutation of 1..m.

    Sampled directly: the cycle containing a fixed element has size
    uniform on 1..r when r elements remain, and the rest is again a
    uniform permutation.  This avoids materializing the permutation.
    """
    sizes = []
    remaining = m
    while remaining:
        size = rng.randint(1, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def cycle_statistics(m: int, samples: int, seed: int) -> CycleStatistics:
    """Distribution of the largest cycle fractions and non-trivial count.

    The mean fraction of objects on the largest cycle tends to about
    0.6243 (the Golomb-Dickman constant) as m grows, the mean fraction
    on the three largest cycles tends to about 0.9222 (Shepp & Lloyd
    1966), and the expected number of non-trivial cycles is the m-th
    harmonic number minus 1.
    """
    if m < 1 or samples < 1:
        raise ValueError("m and samples must be positive")
    rng = random.Random(seed)
    f1s, f2s, f3s = [], [], []
    top3_total = 0.0
    count_total = 0
    for _ in range(samples):
        sizes = sample_cycle_sizes(m, rng)
        sizes.sort(reverse=True)
        s1 = sizes[0]
        s2 = sizes[1] if len(sizes) > 1 else 0
        s3 = sizes[2] if len(sizes) > 2 else 0
        f1s.append(s1 / m)
        f2s.append(s2 / m)
        f3s.append(s3 / m)
        top3_total += (s1 + s2 + s3) / m
        count_total += sum(1 for s in sizes if s > 1)
    return CycleStatistics(
        m=m,
        samples=samples,
        frac1_mean=statistics.fmean(f1s),
        frac1_std=statistics.pstdev(f1s),
        frac2_mean=statistics.fmean(f2s),
        frac2_std=statistics.pstdev(f2s),
        frac3_mean=statistics.fmean(f3s),
        frac3_std=statistics.pstdev(f3s),
        top3_mean=top3_total / samples,
        cycle_count_mean=count_total / samples,
    )
