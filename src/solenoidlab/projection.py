"""Line projections, strip conditionals, and dimension conservation.

pi_theta(z) = Re(z e^{-2 pi i theta}) projects the plane onto the line of
angle 2 pi theta.  Two exact facts drive everything here: rotating a
point before projecting equals projecting at a rotated angle
(pi_theta(gamma z) = |gamma| pi_{theta - delta}(z)), and affine branch
images project to affine interval images.  Tests pin both.

The conservation estimator compares a planar entropy rate against the
projected rate plus the strip-conditional rate.  It streams the raw
branch sums instead of going through a binned planar table, because the
planar table at deep levels can be enormous while the three statistics
only need integer histograms of cell weights.  The thread that filled a
tile of sums writes the tile's int64 planar keys into its own slice of
one key array, and reduces the tile's projected and strip rows through
the grid module's row reduce, which picks bincount or sort from the
sizes it sees, so there is no separate dense or sparse mode here; the
reduced tables are folded into running sums under the tile lock.  The
planar rate then sorts the keys in place and counts the run lengths of
equal keys chunk by chunk.  All three rates go through the entropy
module's one histogram entropy, so their bits do not depend on how the
words were split into tiles or chunks, nor on the order the tiles
finish in.  The estimator keeps no boundary tally.

strip_decomposition is the same strip split on a binned planar measure,
the reference the streamed estimator is tested against.  It floors cell
centers to strips with the tiles' formula, orders the cells by strip
once, and bins each strip's slice along the strip, so it costs one sort
of the cells however many strips there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .entropy import _group_entropies, _histogram_entropies, _weights_entropy, entropy
from .fiber import FiberMeasureSpec, build_fiber_measure, map_fiber_tiles
from .gridmeasure import (
    GridMeasure, _cell_rows, _reduce_cells, _row_keys, _RowSums, measure_from_points
)
from .params import SystemParams

__all__ = [
    "project_point",
    "project_measure",
    "SweepResult",
    "projection_entropy_sweep",
    "strip_decomposition",
    "ConservationEstimate",
    "conservation_estimate",
    "conservation_estimates",
]


def project_point(z, theta: float):
    """pi_theta(z) = Re(z exp(-2 pi i theta)); works on scalars and arrays."""
    phase = np.exp(-2j * np.pi * theta)
    return np.real(np.asarray(z) * phase) if np.ndim(z) else float((z * phase).real)


def _line_coordinate(points: np.ndarray, theta: float) -> np.ndarray:
    """pi_theta of planar points given as (m, 2) rows, in real arithmetic."""
    angle = 2 * math.pi * theta
    return points[:, 0] * math.cos(angle) + points[:, 1] * math.sin(angle)


def _line_measure(mu: GridMeasure, coords: np.ndarray, weights: np.ndarray) -> GridMeasure:
    """1D measure at mu's level from line coordinates of mu's cells."""
    line = measure_from_points(coords, mu.base, mu.level, weights=weights)
    line.boundary_ambiguous += mu.boundary_ambiguous
    return line


def project_measure(mu: GridMeasure, theta: float) -> GridMeasure:
    """1D image of a planar measure under pi_theta, binned at the same level.

    Cell centers stand in for their cells; the displacement is at most
    half a cell diagonal and is accounted for wherever tolerances matter.
    """
    if mu.dim != 2:
        raise ValueError("projection needs a planar measure")
    return _line_measure(mu, _line_coordinate(mu.centers(), theta), mu.weights)


@dataclass
class SweepResult:
    x_grid: list[float]
    theta_grid: list[float]
    level: int
    matrix: np.ndarray  # normalized entropies, shape (len(x_grid), len(theta_grid))

    @property
    def min_rate(self) -> float:
        return float(self.matrix.min())

    @property
    def max_rate(self) -> float:
        return float(self.matrix.max())

    def argmin(self) -> tuple[float, float]:
        i, j = np.unravel_index(int(self.matrix.argmin()), self.matrix.shape)
        return self.x_grid[i], self.theta_grid[j]


def projection_entropy_sweep(
    params: SystemParams,
    x_grid: Sequence[float],
    theta_grid: Sequence[float],
    n: int,
    depth: int,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: Optional[int] = None,
) -> SweepResult:
    """Matrix of (1/n) H(pi_theta m_x, L_n) over a base-point/angle grid.

    Each fiber measure is built once per base point and projected at
    every angle; the projected-dimension estimate is the grid minimum.
    threads caps the workers of each build (every CPU when None).
    """
    xs = [float(x) for x in x_grid]
    thetas = [float(t) for t in theta_grid]
    if not xs or not thetas:
        raise ValueError("empty sweep grid")
    matrix = np.zeros((len(xs), len(thetas)))
    for i, x in enumerate(xs):
        spec = FiberMeasureSpec(
            params, x, depth, n, mode=mode, sample_count=sample_count, seed=seed
        )
        mu = build_fiber_measure(spec, threads=threads)
        centers = mu.centers()
        for j, theta in enumerate(thetas):
            line = _line_measure(mu, _line_coordinate(centers, theta), mu.weights)
            matrix[i, j] = entropy(line, n) / n
    return SweepResult(xs, thetas, n, matrix)


def strip_decomposition(
    mu: GridMeasure, theta: float, q: int
) -> list[tuple[int, GridMeasure]]:
    """All nonempty level-q strip conditionals, keyed by strip index.

    Strip j holds the cells whose centers have pi_theta in [j b^-q,
    (j+1) b^-q), floored by _cell_rows as the conservation tiles floor
    their values.  One stable sort of the strip index orders the cells,
    and each strip's conditional is the 1D measure, at mu's level, of
    pi_{theta + 1/4} over its own slice.  The strips partition the
    cells, so their masses add up to the total exactly.
    """
    if mu.dim != 2:
        raise ValueError("strip decomposition needs a planar measure")
    centers = mu.centers()
    strips = _cell_rows(_line_coordinate(centers, theta), mu.base, q)[:, 0]
    order = np.argsort(strips, kind="stable")
    strips = strips[order]
    u = _line_coordinate(centers[order], theta + 0.25)
    cuts = np.flatnonzero(np.diff(strips)) + 1
    return [
        (int(js[0]), _line_measure(mu, us, ws))
        for js, us, ws in zip(*(np.split(a, cuts) for a in (strips, u, mu.weights[order])))
    ]


@dataclass
class ConservationEstimate:
    x: float
    theta: float
    level: int
    strip_level: int
    alpha: float
    beta: float
    upsilon: float
    strip_table: list[tuple[int, float, float]]  # (strip index, mass, rate)

    def __post_init__(self):
        slack = 2.0 / self.level
        if self.alpha < 0 or self.beta < 0 or self.upsilon < 0:
            raise ValueError("negative entropy rate")
        if self.beta > 1.0 + slack + 0.5:
            raise ValueError(f"projected rate {self.beta} far above 1")
        if self.alpha > 2.0 + slack + 0.5:
            raise ValueError(f"planar rate {self.alpha} far above 2")

    @property
    def residual(self) -> float:
        return self.alpha - self.beta - self.upsilon

    @property
    def corollary_consistent(self) -> bool:
        """False only if the rate table contradicts 'alpha >= beta + 1 forces alpha >= 2'."""
        return not (self.alpha >= self.beta + 1.0 + 0.1 and self.alpha < 2.0 - 0.1)


def _add_counts(hist: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """hist with one more key run of length p + 1 for each p in pairs."""
    part = np.bincount(pairs + 1)
    if len(part) < len(hist):
        part, hist = hist, part
    part[: len(hist)] += hist
    return part


def _sorted_key_entropy(keys: np.ndarray, base: int, chunk: int = 1 << 20) -> float:
    """Base-b entropy of the multiset of keys; sorts the array IN PLACE.

    The sorted keys are scanned chunk by chunk for equal neighbours.  A
    run of consecutive equal pairs is a key that occurs once more than
    the run has pairs; the run lengths go into one integer histogram,
    carrying the run still open at a chunk's end, so memory follows the
    chunk and the longest run, and every chunk size gives the same
    histogram and bits.  The keys in no run occur once.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("empty key set")
    keys.sort()
    hist = np.zeros(2, dtype=np.int64)  # hist[c]: distinct keys that occur c times
    open_pairs = 0  # equal pairs of the run that reaches the last chunk's end
    for lo in range(0, n, chunk):
        # seg holds the pairs (i, i + 1) with lo - 1 <= i < lo + chunk - 1
        seg = keys[max(lo - 1, 0) : lo + chunk]
        eq = np.flatnonzero(seg[1:] == seg[:-1])
        # the number of equal pairs in each run of consecutive positions in eq
        pairs = np.diff(np.flatnonzero(np.diff(eq, prepend=-2, append=len(seg) + 1) != 1))
        if len(eq) and eq[0] == 0:
            pairs[0] += open_pairs
        elif open_pairs:
            pairs = np.append(open_pairs, pairs)
        open_pairs = 0
        if len(eq) and eq[-1] == len(seg) - 2:
            open_pairs = int(pairs[-1])
            pairs = pairs[:-1]
        hist = _add_counts(hist, pairs)
    if open_pairs:
        hist = _add_counts(hist, np.array([open_pairs]))
    hist[1] = n - np.arange(len(hist)) @ hist
    lengths = np.flatnonzero(hist)
    return float(_histogram_entropies(lengths[:, None], hist[lengths], base)[2][0])


def conservation_estimates(
    params: SystemParams,
    x: float,
    theta: float,
    n: int,
    q_list: Sequence[int],
    depth: int,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: Optional[int] = None,
) -> dict[int, ConservationEstimate]:
    """Conservation rates at one (x, theta) for every strip level in q_list.

    alpha = (1/n) H(m_x, L_n), beta = (1/n) H(pi_theta m_x, L_n), and
    upsilon(q) the strip-mass-weighted mean of (1/(n-q)) H(conditional,
    L_{n-q}) over level-q strips.  Works directly on the streamed branch
    sums, so deep levels never materialize a planar table, and all q
    values share the single pass.  The thread that filled a tile of sums
    (map_fiber_tiles, threads workers, every CPU when None) writes its
    planar keys and reduces its projected and strip rows, and folds those
    integer tables into the running sums under the tile lock; the keys
    are sorted once all tiles are in, so the rates are the same bits on
    any number of workers.
    """
    qs = sorted(set(int(q) for q in q_list))
    if not qs:
        raise ValueError("empty strip-level list")
    for q in qs:
        if not 0 < q < n:
            raise ValueError(f"need 0 < q < n, got q={q}, n={n}")
    spec = FiberMeasureSpec(
        params, x, depth, n, mode=mode, sample_count=sample_count, seed=seed
    )
    spec.validate()
    b = params.b
    edge = params.box_radius() * b**n
    span = 2 * edge
    if span * span > 2**62:
        raise ValueError("level too deep for planar key encoding")

    total = spec.total_words
    planar_keys = np.empty(total, dtype=np.int64)
    lo, spans = [-edge, -edge], [span, span]

    def reduce_tile(values, row0):
        # on the tile's thread: the planar keys go into the tile's own
        # slice of planar_keys, and the projected and strip cell counts are
        # reduced here, so memory follows occupied cells, not words
        m = len(values)
        _row_keys(_cell_rows(values, b, n), lo, spans, out=planar_keys[row0 : row0 + m])
        planar = values.view(np.float64).reshape(m, 2)
        t = _line_coordinate(planar, theta)
        u = _line_coordinate(planar, theta + 0.25)
        strips = {
            q: _reduce_cells(np.hstack((_cell_rows(t, b, q), _cell_rows(u, b, n - q))))
            for q in qs
        }
        return _reduce_cells(_cell_rows(t, b, n)), strips

    beta_sums = _RowSums()
    strip_sums = {q: _RowSums() for q in qs}

    def fold(result):
        beta_part, strip_parts = result
        beta_sums.add_part(beta_part)
        for q, part in strip_parts.items():
            strip_sums[q].add_part(part)

    map_fiber_tiles(spec, reduce_tile, fold, threads)
    beta_w = beta_sums.table().weights
    if int(beta_w.sum()) != total:
        raise RuntimeError("stream length mismatch")
    strip_tables = {q: sums.table() for q, sums in strip_sums.items()}
    del beta_sums, strip_sums

    alpha = _sorted_key_entropy(planar_keys, b) / n
    del planar_keys

    beta = _weights_entropy(beta_w, b) / n

    out = {}
    for q in qs:
        cells = strip_tables[q]
        strips, strip_w, strip_h = _group_entropies(cells.rows()[:, :1], cells.weights, b)
        table = [
            (int(j), int(wt) / total, float(h) / (n - q))
            for j, wt, h in zip(strips[:, 0], strip_w, strip_h)
        ]
        upsilon = sum(mass * rate for (_, mass, rate) in table)
        out[q] = ConservationEstimate(x, theta, n, q, alpha, beta, upsilon, table)
    return out


def conservation_estimate(
    params: SystemParams,
    x: float,
    theta: float,
    n: int,
    q: int,
    depth: int,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ConservationEstimate:
    """Single-q convenience wrapper around conservation_estimates."""
    return conservation_estimates(
        params, x, theta, n, [q], depth, mode=mode, sample_count=sample_count,
        seed=seed, threads=threads,
    )[q]
