"""Entropy diagnostics for grid measures.

All entropies are Shannon entropies of cell masses in base b, the grid
base, so one unit of entropy corresponds to one grid level and
normalized entropies read directly as dimensions.  One function computes
every entropy of a weight table, from the integer histogram {c: m_c} of
its cell weights (m_c cells of weight c): H = sum_c m_c (c/W) log_b(W/c)
over increasing c, W the total weight.  The histogram is exact, so it
comes out the same however the table was split, merged or reduced, and
so does every bit of H.

Components: for a level-i cell Q with positive mass, the component of mu
at Q is the restriction mu|Q and the rescaled component is its image
under the b-adic affine map taking Q onto [0, 1)^d.  Scale-m component
entropy means the level-m entropy of the rescaled component, computed
exactly from the subcell table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gridmeasure import GridMeasure, _coarsen_each, _merge_cells, _reduce_rows, convolve

__all__ = [
    "entropy",
    "conditional_entropy",
    "EntropyProfile",
    "entropy_profile",
    "ComponentSweep",
    "component_entropy_distribution",
    "PorosityReport",
    "porosity_check",
    "GrowthReport",
    "entropy_growth_experiment",
    "mix_measures",
    "binary_entropy",
]


def binary_entropy(t: float, base: int) -> float:
    """-t log_b t - (1-t) log_b (1-t)."""
    out = 0.0
    for p in (t, 1.0 - t):
        if p > 0.0:
            out -= p * math.log(p)
    return out / math.log(base)


def _histogram_entropies(
    rows: np.ndarray, counts: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start row, total weight W and base-b entropy of each group of a histogram.

    rows, counts is a _reduce_rows table of (group..., c) rows: m_c = counts
    cells of weight c, with c increasing inside each group of equal
    leading columns (a one-column table is one group).  Each term is
    m_c c log(W/c); W/c >= 1 in floats too, so no term is negative and a
    point mass gives exactly 0.0.
    """
    c = rows[:, -1]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(rows[1:, :-1] != rows[:-1, :-1], axis=1)))
    )
    mass = counts * c
    totals = np.add.reduceat(mass, starts)
    ratio = np.repeat(totals, np.diff(starts, append=len(c))) / c
    h = np.add.reduceat(mass * np.log(ratio), starts) / totals / math.log(base)
    return starts, totals, h


def _weights_entropy(w: np.ndarray, base: int) -> float:
    """Base-b entropy of the cell weights w, in any order."""
    return float(_histogram_entropies(*_reduce_rows(w[:, None]), base)[2][0])


def entropy(mu: GridMeasure, n: Optional[int] = None) -> float:
    """Level-n entropy of mu in base b.  n defaults to the stored level."""
    if n is None:
        n = mu.level
    return _weights_entropy(mu.coarsen(n).weights, mu.base)


def _group_entropies(
    groups: np.ndarray, w: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total weight and base-b entropy of the cells in each group.

    groups holds one int64 row per cell of weights w.  Returns (group
    rows, group weights, group entropies), groups sorted lexicographically.
    """
    rows, counts = _reduce_rows(np.column_stack((groups, w)))
    starts, group_w, group_h = _histogram_entropies(rows, counts, base)
    return rows[starts, :-1], group_w, group_h


def conditional_entropy(mu: GridMeasure, fine: int, coarse: int) -> float:
    """H(mu, level fine | level coarse), fine >= coarse.

    Computed as the entropy difference and cross-checked against the
    component form sum_P (w_P / total) H(mu|P, fine); disagreement beyond
    1e-9 means a bookkeeping bug and raises.
    """
    if fine < coarse:
        raise ValueError(f"fine level {fine} must be >= coarse level {coarse}")
    refined = mu.coarsen(fine)
    by_difference = entropy(refined, fine) - entropy(refined, coarse)
    parent = np.floor_divide(refined.idx, refined.base ** (fine - coarse))
    _, group_w, group_h = _group_entropies(parent, refined.weights, refined.base)
    by_components = float((group_w / refined.total * group_h).sum())
    if abs(by_difference - by_components) > 1e-9:
        raise RuntimeError(
            f"conditional entropy cross-check failed: {by_difference} vs {by_components}"
        )
    return by_difference


@dataclass
class EntropyProfile:
    """Entropy and occupied-cell count by level, with normalized values H/n."""

    levels: list[int]
    entropies: list[float]
    cells: list[int]

    @property
    def normalized(self) -> list[float]:
        return [h / n if n else 0.0 for n, h in zip(self.levels, self.entropies)]

    def slope(self, window: Optional[Sequence[int]] = None) -> float:
        """Least-squares slope of H against n over the window (default: all levels)."""
        if window is None:
            window = self.levels
        pick = [i for i, n in enumerate(self.levels) if n in set(window)]
        if len(pick) < 2:
            raise ValueError("slope needs at least two levels")
        xs = np.array([self.levels[i] for i in pick], dtype=float)
        ys = np.array([self.entropies[i] for i in pick], dtype=float)
        return float(np.polyfit(xs, ys, 1)[0])


def _slope_window(levels: Sequence[int]) -> list[int]:
    """The levels a slope is fitted over: past five, all but the two coarsest and two finest."""
    return list(levels[2:-2] if len(levels) > 5 else levels)


def entropy_profile(mu: GridMeasure, levels: Sequence[int]) -> EntropyProfile:
    """Entropy and occupied-cell count of mu at each requested level.

    Each level's table is coarsened from the finest one already made that
    has at most half of mu's cells, or from the stored level while none
    has; the tables equal those coarsened from the stored level.
    """
    lv = sorted(set(int(n) for n in levels))
    if not lv:
        raise ValueError("no levels requested")
    if lv[-1] > mu.level:
        raise ValueError(
            f"entropy below resolution: level {lv[-1]} finer than stored {mu.level}"
        )
    per_level = _coarsen_each(
        mu, lv, lambda table: (table.ncells, _weights_entropy(table.weights, mu.base))
    )
    return EntropyProfile(lv, [h for _, h in per_level], [c for c, _ in per_level])


@dataclass
class ComponentSweep:
    """Scale-m component entropies across a level range, mass-weighted.

    rows hold (level, parent cell, normalized component entropy, mass
    within that level); each level carries weight 1/#levels in the
    aggregate distribution.
    """

    scale: int
    levels: list[int]
    rows: list[tuple[int, tuple, float, float]]

    def fraction_below(self, threshold: float) -> float:
        per_level = 1.0 / len(self.levels)
        return sum(
            mass * per_level
            for (_, _, val, mass) in self.rows
            if val < threshold
        )


def component_entropy_distribution(
    mu: GridMeasure, i_range: Sequence[int], m: int
) -> ComponentSweep:
    """Normalized scale-m entropies (1/m) H of all rescaled components.

    i_range lists the component levels; requires max(i_range) + m within
    the stored resolution.  The level-(i + m) table of each level i is
    coarsened from the finest one already made that has at most half of
    mu's cells, or from the stored level while none has; the tables equal
    those coarsened from the stored level.
    """
    levels = sorted(set(int(i) for i in i_range))
    if not levels:
        raise ValueError("empty component level range")
    if m < 1:
        raise ValueError("component scale must be positive")
    if levels[0] < 0:
        raise ValueError("component levels must be nonnegative")
    if levels[-1] + m > mu.level:
        raise ValueError(
            f"entropy below resolution: need level {levels[-1] + m}, stored {mu.level}"
        )
    total = mu.total

    def components(fine: GridMeasure) -> list[tuple[int, tuple, float, float]]:
        parent = np.floor_divide(fine.idx, mu.base**m)
        parents, group_w, group_h = _group_entropies(parent, fine.weights, mu.base)
        i = fine.level - m
        return [
            (i, tuple(p), h / m, w / total)
            for p, w, h in zip(parents.tolist(), group_w.tolist(), group_h.tolist())
        ]

    per_level = _coarsen_each(mu, [i + m for i in levels], components)
    return ComponentSweep(m, levels, [row for rows in per_level for row in rows])


@dataclass
class PorosityReport:
    threshold: float
    fraction_below: float
    delta: float
    verdict: bool
    sweep: ComponentSweep  # its scale and levels are the probe's m and n1..n2-1


def porosity_check(
    mu: GridMeasure, h: float, delta: float, m: int, n1: int, n2: int
) -> PorosityReport:
    """Entropy-porosity probe: are most components no richer than h + delta?

    Fraction is the component mass (uniform over levels n1 <= i < n2,
    mass-weighted within a level) whose normalized scale-m entropy falls
    below h + delta; the verdict asks for fraction > 1 - delta.  The
    report carries the component sweep it was read from.
    """
    if not 0 <= n1 < n2:
        raise ValueError(f"need 0 <= n1 < n2, got ({n1}, {n2})")
    sweep = component_entropy_distribution(mu, range(n1, n2), m)
    frac = sweep.fraction_below(h + delta)
    return PorosityReport(h + delta, frac, delta, frac > 1.0 - delta, sweep)


@dataclass
class GrowthReport:
    level: int
    base_rate: float
    convolved_rate: float
    gain: float


def entropy_growth_experiment(
    mu: GridMeasure, fiber: GridMeasure, n: int
) -> GrowthReport:
    """Normalized entropy gained by convolving fiber with mu at level n.

    gain = (1/n) H(mu * fiber) - (1/n) H(fiber).  A point-mass mu only
    translates, so its gain is rebinning noise of size O(1/n); the
    interesting hypothesis class has (1/n) H(mu) bounded away from 0.
    """
    if n < 1:
        raise ValueError("level must be positive")
    if mu.level < n or fiber.level < n:
        raise ValueError("entropy below resolution: convolution level not certified")
    mu_n = mu.coarsen(n)
    fiber_n = fiber.coarsen(n)
    conv = convolve(mu_n, fiber_n)
    base_rate = entropy(fiber_n, n) / n
    conv_rate = entropy(conv, n) / n
    return GrowthReport(n, base_rate, conv_rate, conv_rate - base_rate)


def mix_measures(mu: GridMeasure, nu: GridMeasure, p: int, q: int) -> GridMeasure:
    """Exact convex combination (p/q) mu + (1 - p/q) nu by weight scaling.

    Both measures are rescaled to the common total q * total(mu) * total(nu),
    so the mixture stays integer-exact.
    """
    if not 0 < p < q:
        raise ValueError("mixing ratio must be strictly between 0 and 1")
    if (mu.base, mu.dim, mu.level) != (nu.base, nu.dim, nu.level):
        raise ValueError("mixing requires matching base, dimension, and level")
    if q * mu.total * nu.total > 2**62:
        raise ValueError("mixing weight overflow")
    w1, w2 = mu.weights * (p * nu.total), nu.weights * ((q - p) * mu.total)
    cells = _merge_cells((mu._cells._replace(weights=w1), nu._cells._replace(weights=w2)))
    radius = max(mu.box_radius, nu.box_radius)
    return GridMeasure(mu.base, mu.dim, mu.level, cells, radius)
