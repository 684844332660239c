"""Fiber measures: binned distributions of branch sums over one base point.

The depth-N fiber approximation at x is the uniform distribution over
{S(x, w) : w a depth-N word}, binned on a b-adic grid.  A build request
says how deep to sum and how fine to bin, and the pair must be certified:
the discarded tail sup|phi| |gamma|^N / (1 - |gamma|) has to fit inside
one cell at the requested level, otherwise the bin assignment would be
fiction and the build refuses to run.

Every build fills one stratified sample of words: the leading symbols
of a word pick its stratum, the strata share the samples evenly (to
within one), and the other symbols are per-sample random suffix digits
from a named counter-mode stream.  Exhaustive mode (budget-capped) is the
case where every depth-N word is its own stratum and is taken once, as
is sampled mode with b^N samples; both then fill the same bits with no
draws.  Tiles of strata are evaluated with the prefix-tree kernel of the
words module, which grows S_n = S_{n-1} + gamma^{n-1} phi(a_n) once per
distinct prefix, with phi read from products of cached tables of roots
of unity in place of cos and sin calls, repeats each stratum by its
quota and continues it by the suffix digits.  A stream of about 2^16-row tiles is handed out by
one counter to the calling thread plus one thread per further worker
(threads caps the workers; by default there is one per CPU the process
may run on), and a tile holds the same bits on any worker count.  The
thread that filled a tile also bins it and reduces it to an integer
count table, which it folds into the running sums under one lock;
integer sums do not depend on the order the tiles finish in, so the
measure is the same on any worker count too.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .gridmeasure import GridMeasure, _RowSums, _bin_points, _reduce_cells
from .params import SystemParams
from .rng import SplitMix64
from .words import (
    _branch_sums,
    _first_samples,
    _stratified_suffixes,
    stratum_layout,
)

__all__ = [
    "EXHAUSTIVE_WORD_BUDGET",
    "FiberMeasureSpec",
    "build_fiber_measure",
    "map_fiber_tiles",
    "certified_level",
    "depth_for_resolution",
]

EXHAUSTIVE_WORD_BUDGET = 2**24
# rows a tile fills: its working set stays in a core's cache, and tiles
# much smaller than this repay their per-level Python work poorly
_TILE_ROWS = 1 << 16

# Cap on R * b^n, the largest cell index magnitude at a certified level,
# so every index stays well inside int64.  A planar key can still pass
# int64 under this cap (its range is the product of two spans); such a
# table holds its rows (a wide _CellTable, see gridmeasure).
_INDEX_SAFE = 2**60


def certified_level(params: SystemParams, depth: int) -> int:
    """Finest level n with tail_bound(depth) <= b^-n, capped for index safety.

    The comparison runs in exact rational arithmetic on the float tail
    bound, so certification never flips on roundoff.
    """
    cap = 0
    while params.b ** (cap + 1) * params.box_radius() <= _INDEX_SAFE:
        cap += 1
    tail = params.tail_bound(depth)
    if tail == 0.0:
        return cap
    t = Fraction(tail)
    n = 0
    while n < cap and Fraction(1, params.b ** (n + 1)) >= t:
        n += 1
    return n


def depth_for_resolution(params: SystemParams, resolution: int) -> int:
    """Smallest truncation depth whose certified level reaches the target."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    depth = 1
    while certified_level(params, depth) < resolution:
        depth += 1
        if depth > 100_000:
            raise ValueError(f"no certifiable depth reaches level {resolution}")
    return depth


@dataclass(frozen=True)
class FiberMeasureSpec:
    """Build request for one fiber measure."""

    params: SystemParams
    x: float
    depth: int
    resolution: int
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"base point must lie in [0, 1), got {self.x}")
        if self.depth < 1:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if self.resolution < 0:
            raise ValueError(f"resolution must be nonnegative, got {self.resolution}")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"mode must be exhaustive or sampled, got {self.mode!r}")
        if self.mode == "sampled" and self.sample_count < 1:
            raise ValueError("sampled mode needs a positive sample count")

    @property
    def certified(self) -> int:
        return certified_level(self.params, self.depth)

    def validate(self) -> None:
        if self.resolution > self.certified:
            raise ValueError(
                f"resolution not certified by depth: level {self.resolution} needs a "
                f"tail below {self.params.b}^-{self.resolution}, but depth "
                f"{self.depth} only certifies level {self.certified}"
            )
        if self.mode == "exhaustive":
            if self.params.b**self.depth > EXHAUSTIVE_WORD_BUDGET:
                raise ValueError(
                    f"word budget exceeded: {self.params.b}^{self.depth} words "
                    f"> {EXHAUSTIVE_WORD_BUDGET}"
                )

    @property
    def total_words(self) -> int:
        if self.mode == "exhaustive":
            return self.params.b**self.depth
        return self.sample_count

    @property
    def all_words(self) -> bool:
        """Whether the word list is every depth-N word once, in lexicographic order.

        True in exhaustive mode, and in sampled mode with b^N samples:
        each word is then its own stratum, with no suffix digits to draw.
        """
        return self.total_words == self.params.b**self.depth


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_fiber_tiles(
    spec: FiberMeasureSpec,
    tile_map: Callable[[np.ndarray, int], object],
    fold: Callable[[object], None],
    threads: Optional[int] = None,
) -> None:
    """Fold tile_map over tiles of the branch sums of the spec's word list.

    The word list is the spec's stratified sample (see stratum_layout),
    and a tile is a range of its strata of about _TILE_ROWS rows.  When
    the spec takes every word once, the strata are the leaves of the
    depth-N tree and a tile is a leaf range, filled with no quotas and
    no suffix digits.  One shared counter hands the tiles out to the
    calling thread and to threads started for this call: threads workers
    in all, or one per CPU of the process when threads is None, and
    never more than there are tiles.  The thread that filled a tile calls
    tile_map(values, row0) on the tile's own array, row0 being the index
    of its first row in the whole word list, and fold(result) under the
    one lock of the call.  Every node of the tree gets the same float
    operations in any range it is grown in, and counter-mode draws do
    not depend on the range, so each tile holds the same bits on any
    number of workers; tiles finish in any order.  The first error stops
    the hand-out and is raised once every thread has joined.
    """
    spec.validate()
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    p = spec.params
    # one unit per stratum, holding base_quota or base_quota + 1 samples
    count = spec.total_words
    s, units, _ = stratum_layout(p.b, spec.depth, count)
    every = spec.all_words
    stream = SplitMix64(spec.seed, "fiber.samples")

    def sums(a, c, out):
        if every:  # one word per stratum: no quotas, no suffix digits
            _branch_sums(p, spec.x, s, a, c, out=out)
        else:
            _, quotas, suffix = _stratified_suffixes(p.b, spec.depth, count, stream, a, c)
            _branch_sums(p, spec.x, s, a, c, quotas, suffix, out=out)

    cuts = list(range(0, units, max(1, _TILE_ROWS * units // count))) + [units]
    rows = _first_samples(count, units, cuts).tolist()
    todo = iter(range(len(cuts) - 1))
    lock = threading.Lock()
    errors = []

    def drain():
        try:
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                values = np.empty(rows[i + 1] - rows[i], dtype=np.complex128)
                sums(cuts[i], cuts[i + 1], values)
                result = tile_map(values, rows[i])
                with lock:
                    fold(result)
        except BaseException as exc:  # raised again on the calling thread
            with lock:
                errors.append(exc)
                for _ in todo:
                    pass

    # started once per call, not per tile: each then keeps one malloc arena
    cpus = _cpus()
    workers = [
        threading.Thread(target=drain, daemon=True)
        for _ in range(min(threads or cpus, cpus, len(cuts) - 1) - 1)
    ]
    for t in workers:
        t.start()
    drain()
    for t in workers:
        t.join()
    if errors:
        raise errors[0]


def build_fiber_measure(
    spec: FiberMeasureSpec, threads: Optional[int] = None
) -> GridMeasure:
    """Materialize the fiber measure at spec.resolution.

    Integer counts per cell; total equals the word count of the spec.
    Each tile of values is binned and reduced on the thread that filled
    it (map_fiber_tiles, threads workers, every CPU of the process when
    None), and its integer table and boundary tally are added to the
    running sums under the tile lock, so the result is the same on any
    number of workers.  The measure carries spec as its provenance.
    """
    b, level = spec.params.b, spec.resolution
    sums = _RowSums()
    flagged = 0

    def bin_tile(values, row0):
        rows, near = _bin_points(values, b, level)
        return _reduce_cells(rows), near

    def fold(result):
        nonlocal flagged
        sums.add_part(result[0])
        flagged += result[1]

    map_fiber_tiles(spec, bin_tile, fold, threads)
    return GridMeasure(
        b, 2, level, sums.table(), spec.params.box_radius(), flagged, provenance=spec
    )
