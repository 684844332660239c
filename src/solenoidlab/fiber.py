"""Fiber measures: binned distributions of branch sums over one base point.

The depth-N fiber approximation at x is the uniform distribution over
{S(x, w) : w a depth-N word}, binned on a b-adic grid.  A build request
says how deep to sum and how fine to bin, and the pair must be certified:
the discarded tail sup|phi| |gamma|^N / (1 - |gamma|) has to fit inside
one cell at the requested level, otherwise the bin assignment would be
fiction and the build refuses to run.

Exhaustive mode enumerates all b^N words (budget-capped); sampled mode
draws a stratified word sample from a named counter-mode stream.  Both
evaluate word blocks with the prefix-tree kernel of the words module,
which grows S_n = S_{n-1} + gamma^{n-1} phi(a_n) once per distinct
prefix: an exhaustive block is a leaf range of the depth-N tree, a
sampled block a range of strata grown as the tree, repeated by quota and
continued by per-sample random suffix digits.  Each value block is filled
in tiles of about 2^16 rows on every CPU the process may run on (the
calling thread plus one thread per other CPU); tiles write disjoint
slices and compute the same bits on any CPU count.  Blocks are binned in
order on the calling thread, and their integer count tables merge by
addition; the threads argument is accepted but changes nothing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .gridmeasure import GridMeasure, _RowSums, _bin_points
from .params import SystemParams
from .rng import SplitMix64
from .words import (
    _branch_sums,
    _first_samples,
    _stratified_suffixes,
    enumerate_words,
    stratum_layout,
    symbolic_sum,
)

__all__ = [
    "EXHAUSTIVE_WORD_BUDGET",
    "FiberMeasureSpec",
    "build_fiber_measure",
    "refine_fiber_measure",
    "fiber_value_chunks",
    "certified_level",
    "depth_for_resolution",
]

EXHAUSTIVE_WORD_BUDGET = 2**24
_BLOCK_TARGET = 1 << 18
# rows a tile fills: its working set stays in a core's cache, and tiles
# much smaller than this repay their per-level Python work poorly
_TILE_ROWS = 1 << 16

# Index magnitudes must stay well inside int64 even after pair encoding.
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


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_tiles(tiles: list, fill, helpers: int) -> None:
    """Run fill(*tile) for every tile, on the calling thread and helpers new threads.

    Tiles are taken in order from one shared list, so a block of one tile,
    or helpers == 0, runs inline and starts no thread.  The first error
    stops the hand-out of tiles and is raised here.
    """
    todo = iter(tiles)
    lock = threading.Lock()
    errors = []

    def drain():
        try:
            while True:
                with lock:
                    tile = next(todo, None)
                if tile is None:
                    return
                fill(*tile)
        except BaseException as exc:  # raised again on the calling thread
            with lock:
                errors.append(exc)
                for _ in todo:
                    pass

    n_threads = min(helpers, len(tiles) - 1)
    threads = [threading.Thread(target=drain) for _ in range(n_threads)]
    for t in threads:
        t.start()
    drain()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def fiber_value_chunks(
    spec: FiberMeasureSpec, block_words: int = _BLOCK_TARGET
) -> Iterator[np.ndarray]:
    """Yield the branch-sum values of the spec's word list in fixed blocks.

    The block boundaries depend only on the spec, never on the consumer,
    so any accumulation over the chunks is replayable.  Each block is
    filled in tiles of about _TILE_ROWS rows, a tile being a leaf range of
    the depth-N tree (exhaustive) or a strata range (sampled).  Tiles run
    on the calling thread and one more thread per other CPU of the
    process; every node of the tree gets the same float operations in any
    range it is grown in, and counter-mode draws do not depend on the
    range, so the values are the same bits on any number of CPUs.
    """
    spec.validate()
    p = spec.params
    if spec.mode == "exhaustive":
        # one unit per word: the leaves of the depth-N tree
        units = count = p.b**spec.depth
        rows_per_unit = 1

        def fill(a, c, out):
            _branch_sums(p, spec.x, spec.depth, a, c, out=out)

    else:
        # one unit per stratum, holding base_quota or base_quota + 1 samples
        count = spec.sample_count
        s, units, base_quota = stratum_layout(p.b, spec.depth, count)
        rows_per_unit = base_quota + 1
        stream = SplitMix64(spec.seed, "fiber.samples")

        def fill(a, c, out):
            _, quotas, suffix = _stratified_suffixes(
                p.b, spec.depth, count, stream, a, c
            )
            _branch_sums(p, spec.x, s, a, c, quotas, suffix, out=out)

    # a block holds at most block_words rows, a tile about _TILE_ROWS
    per_block = max(1, block_words // rows_per_unit)
    per_tile = max(1, _TILE_ROWS * units // count)
    helpers = _cpus() - 1
    for lo in range(0, units, per_block):
        hi = min(units, lo + per_block)
        cuts = list(range(lo, hi, per_tile)) + [hi]
        rows = _first_samples(count, units, cuts)
        rows = (rows - rows[0]).tolist()
        block = np.empty(rows[-1], dtype=np.complex128)
        tiles = [
            (a, c, block[r0:r1])
            for a, c, r0, r1 in zip(cuts, cuts[1:], rows, rows[1:])
        ]
        _fill_tiles(tiles, fill, helpers)
        yield block


def build_fiber_measure(spec: FiberMeasureSpec, threads: int = 1) -> GridMeasure:
    """Materialize the fiber measure at spec.resolution.

    Integer counts per cell; total equals the word count of the spec.
    threads is accepted for compatibility and changes nothing: value blocks
    are filled on every CPU of the process (fiber_value_chunks) and binned
    in order on the calling thread.
    """
    spec.validate()
    p = spec.params
    sums = _RowSums()
    flagged = 0
    for values in fiber_value_chunks(spec):
        rows, near = _bin_points(values, p.b, spec.resolution)
        sums.add(rows)
        flagged += near
    idx, cnt = sums.table()
    return GridMeasure(
        p.b, 2, spec.resolution, idx, cnt, p.box_radius(), flagged
    )


def refine_fiber_measure(
    params: SystemParams,
    x: float,
    n_words: int,
    children: Mapping[tuple, GridMeasure],
    level: int,
) -> GridMeasure:
    """Superpose the affine branch images of per-word child measures.

    Child for word j is mapped by y -> gamma^k y + S(x, j) (k = n_words)
    and rebinned at the requested coarser level.  All children must share
    one level and one total so the superposition stays equal-weight;
    integer weights add exactly.
    """
    if n_words < 1:
        raise ValueError("n_words must be positive")
    want = enumerate_words(params.b, n_words)
    child_levels = set()
    child_totals = set()
    for w in want:
        if w not in children:
            raise ValueError(f"missing child word {w}")
        child_levels.add(children[w].level)
        child_totals.add(children[w].total)
    if len(child_levels) != 1:
        raise ValueError("children must share a common level")
    if len(child_totals) != 1:
        raise ValueError("children must share a common total for equal weighting")
    child_level = child_levels.pop()
    if level > child_level:
        raise ValueError(
            f"target level {level} finer than child level {child_level}"
        )
    gk = params.gamma**n_words
    sums = _RowSums()
    flagged = 0
    for w in want:
        shift = symbolic_sum(params, x, w)
        child = children[w]
        centers = child.centers()
        pts = gk * (centers[:, 0] + 1j * centers[:, 1]) + shift
        rows, near = _bin_points(pts, params.b, level)
        sums.add(rows, child.weights)
        flagged += near + child.boundary_ambiguous
    idx, cnt = sums.table()
    return GridMeasure(params.b, 2, level, idx, cnt, params.box_radius(), flagged)
