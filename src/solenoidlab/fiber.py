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
continued by per-sample random suffix digits.  Blocks are binned in order
on the calling thread, and their integer count tables merge by addition;
the threads argument is accepted but changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .gridmeasure import GridMeasure, _RowSums, _bin_points
from .params import SystemParams
from .rng import SplitMix64
from .words import (
    _branch_sums,
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


def fiber_value_chunks(
    spec: FiberMeasureSpec, block_words: int = _BLOCK_TARGET
) -> Iterator[np.ndarray]:
    """Yield the branch-sum values of the spec's word list in fixed blocks.

    The block boundaries depend only on the spec, never on the consumer,
    so any accumulation over the chunks is replayable.
    """
    spec.validate()
    p = spec.params
    if spec.mode == "exhaustive":
        n_words = p.b**spec.depth
        for lo in range(0, n_words, block_words):
            hi = min(n_words, lo + block_words)
            yield _branch_sums(p, spec.x, spec.depth, lo, hi)
    else:
        s, strata, base_quota = stratum_layout(p.b, spec.depth, spec.sample_count)
        stream = SplitMix64(spec.seed, "fiber.samples")
        per_block = max(1, block_words // max(1, base_quota + 1))
        for lo in range(0, strata, per_block):
            hi = min(strata, lo + per_block)
            _, quotas, suffix = _stratified_suffixes(
                p.b, spec.depth, spec.sample_count, stream, lo, hi
            )
            values = _branch_sums(p, spec.x, s, lo, hi, quotas, suffix)
            del quotas, suffix  # not held while the consumer bins the values
            yield values


def build_fiber_measure(spec: FiberMeasureSpec, threads: int = 1) -> GridMeasure:
    """Materialize the fiber measure at spec.resolution.

    Integer counts per cell; total equals the word count of the spec.
    threads is accepted for compatibility and changes nothing: blocks are
    binned in order on the calling thread.
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
