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
only need integer histograms of cell weights.  The planar rate sorts one
int64 key per word in place and counts the run lengths of equal keys
chunk by chunk; the projected and strip tables are reduced tile by tile,
on the threads that fill the tiles, through the grid module's row
reduce, which picks bincount or sort from the sizes it sees, so there is
no separate dense or sparse mode here.  All three rates then go through
the entropy module's one histogram entropy, so their bits do not depend
on how the words were split into tiles, blocks or chunks.  The estimator
keeps no boundary tally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .entropy import _group_entropies, _histogram_entropies, _weights_entropy, entropy
from .fiber import FiberMeasureSpec, build_fiber_measure, fiber_value_chunks
from .gridmeasure import (
    GridMeasure, _cell_rows, _reduce_rows, _row_keys, _RowSums, measure_from_points
)
from .params import SystemParams

__all__ = [
    "project_point",
    "project_measure",
    "SweepResult",
    "projection_entropy_sweep",
    "fiber_conditional_measure",
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

    @property
    def beta_hat(self) -> float:
        return self.min_rate

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
        for j, theta in enumerate(thetas):
            matrix[i, j] = entropy(project_measure(mu, theta), n) / n
    return SweepResult(xs, thetas, n, matrix)


def fiber_conditional_measure(
    mu: GridMeasure, theta: float, c: float, q: int
) -> GridMeasure:
    """Conditional of mu on the strip |pi_theta - c| < b^-q / 2, as a 1D measure.

    The strip is half-open ([c - w/2, c + w/2)), so the strips centered
    at (j + 1/2) b^-q tile the line and their conditionals partition the
    mass exactly.  Coordinates along the strip are pi at theta + 1/4.
    """
    if mu.dim != 2:
        raise ValueError("strip conditional needs a planar measure")
    width = mu.base ** (-q)
    centers = mu.centers()
    t = _line_coordinate(centers, theta)
    inside = (t >= c - width / 2) & (t < c + width / 2)
    if not inside.any():
        raise ValueError(f"empty strip at c={c}")
    u = _line_coordinate(centers[inside], theta + 0.25)
    return _line_measure(mu, u, mu.weights[inside])


def strip_decomposition(
    mu: GridMeasure, theta: float, q: int
) -> list[tuple[int, GridMeasure]]:
    """All nonempty level-q strip conditionals, keyed by strip index.

    Strip j covers pi_theta values in [j b^-q, (j+1) b^-q); the masses
    add up to the total exactly.
    """
    if mu.dim != 2:
        raise ValueError("strip decomposition needs a planar measure")
    width = mu.base ** (-q)
    t = _line_coordinate(mu.centers(), theta)
    strips = np.floor(t / width).astype(np.int64)
    out = []
    for j in np.unique(strips):
        c = (int(j) + 0.5) * width
        out.append((int(j), fiber_conditional_measure(mu, theta, c, q)))
    return out


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


def _sorted_key_entropy(keys: np.ndarray, base: int, chunk: int = 1 << 20) -> float:
    """Base-b entropy of the multiset of keys; sorts the array IN PLACE.

    The run lengths of the sorted keys are counted chunk by chunk into one
    integer histogram (lengths, multiplicities), carrying only the start
    of the run still open at a chunk's end, so no temporary grows with the
    number of keys and every chunk size gives the same histogram and bits.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("empty key set")
    keys.sort()
    lengths = _RowSums()
    run_start = 0
    for lo in range(0, n, chunk):
        # the key before the chunk shows whether a run starts at lo
        seg = keys[max(lo - 1, 0) : lo + chunk]
        bounds = np.append(run_start, np.flatnonzero(seg[1:] != seg[:-1]) + max(lo, 1))
        lengths.add(np.diff(bounds)[:, None])
        run_start = int(bounds[-1])
    lengths.add(np.array([[n - run_start]]))
    return float(_histogram_entropies(*lengths.table(), base)[2][0])


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
    (fiber_value_chunks, threads workers, every CPU when None) writes its
    planar keys and reduces its projected and strip rows; the calling
    thread merges those integer tables and sorts the keys, so the rates
    are the same bits on any number of workers.
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
            q: _reduce_rows(np.hstack((_cell_rows(t, b, q), _cell_rows(u, b, n - q))))
            for q in qs
        }
        return _reduce_rows(_cell_rows(t, b, n)), strips

    beta_sums = _RowSums()
    strip_sums = {q: _RowSums() for q in qs}
    for parts in fiber_value_chunks(
        spec, block_words=1 << 21, tile_map=reduce_tile, threads=threads
    ):
        for beta_part, strip_parts in parts:
            beta_sums.add_part(*beta_part)
            for q, part in strip_parts.items():
                strip_sums[q].add_part(*part)
    beta_w = beta_sums.table()[1]
    if int(beta_w.sum()) != total:
        raise RuntimeError("stream length mismatch")
    strip_tables = {q: sums.table() for q, sums in strip_sums.items()}
    del beta_sums, strip_sums

    alpha = _sorted_key_entropy(planar_keys, b) / n
    del planar_keys

    beta = _weights_entropy(beta_w, b) / n

    out = {}
    for q in qs:
        rows, sw = strip_tables[q]
        strips, strip_w, strip_h = _group_entropies(rows[:, :1], sw, b)
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
