"""Attractor sampling and dimension estimates.

The attractor point cloud can be generated two ways: "orbit" iterates
the map along a random base itinerary, "word" evaluates branch sums at
independent random base points.  Both avoid iterating b*x mod 1 in
floating point (which collapses to dyadic junk after ~50 steps for
b = 2): the base coordinate is always reconstructed from a fresh window
of digits, and the fiber coordinate from a truncated geometric sum of
recent displacement values, so errors never compound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import _slope_window, entropy_profile
from .fiber import FiberMeasureSpec, build_fiber_measure
from .gridmeasure import _cell_rows, _reduce_cells
from .params import SystemParams
from .rng import SplitMix64
from .words import symbolic_sum_batch

__all__ = [
    "generate_attractor",
    "BoxCount",
    "box_dimension",
    "FiberDimension",
    "fiber_dimension",
    "predicted_attractor_dimension",
    "predicted_fiber_dimension",
    "lyapunov_crosscheck",
]

# beyond this the tail of the geometric sum is below 1e-17 * diameter
_TAIL_DIGITS = 57


def _digit_window(params: SystemParams) -> int:
    return int(math.ceil(_TAIL_DIGITS / math.log2(params.b)))


def _fiber_window(params: SystemParams) -> int:
    return max(4, int(math.ceil(_TAIL_DIGITS * math.log(2) / -math.log(params.gamma_abs))))


def generate_attractor(
    params: SystemParams,
    count: int,
    seed: int = 0,
    mode: str = "orbit",
    depth: Optional[int] = None,
) -> np.ndarray:
    """Point cloud on the attractor, shape (count, 3): x, Re y, Im y.

    orbit mode follows one random itinerary; consecutive rows are map
    images of each other up to the truncation tails.  word mode draws
    independent base points and addresses of the given depth (default:
    deep enough that the branch-sum tail is below 1e-12).
    """
    if count <= 0:
        raise ValueError("need a positive point count")
    if mode == "orbit":
        return _orbit_cloud(params, count, seed)
    if mode == "word":
        return _word_cloud(params, count, seed, depth)
    raise ValueError(f"unknown attractor mode: {mode!r}")


def _orbit_cloud(params: SystemParams, count: int, seed: int) -> np.ndarray:
    b = params.b
    wx = _digit_window(params)
    wy = _fiber_window(params)
    stream = SplitMix64(seed, "attractor.orbit")
    nx = count + wy
    digits = stream.integers(0, nx + wx, b).astype(np.float64)

    # x_k = sum_j digits[k + j] b^-(j+1): the digit stream read forward,
    # so T advances k by one and each x_k is fresh to within b^-wx
    pow_x = (1.0 / b) ** np.arange(1, wx + 1)
    xs_all = np.empty(nx)
    block = 1 << 17  # windowed matmuls may copy; keep the copies small
    for lo in range(0, nx, block):
        hi = min(lo + block, nx)
        xs_all[lo:hi] = sliding_window_view(digits[lo : hi + wx - 1], wx) @ pow_x

    # y_{k+wy} = sum_{i=k}^{k+wy-1} gamma^(k+wy-1-i) phi(x_i)
    phis = params.phi(xs_all).astype(np.complex128)
    pow_y = params.gamma ** np.arange(wy - 1, -1, -1)
    ys = np.empty(count, dtype=np.complex128)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        ys[lo:hi] = sliding_window_view(phis[lo : hi + wy - 1], wy) @ pow_y

    out = np.empty((count, 3))
    out[:, 0] = xs_all[wy : wy + count]
    out[:, 1] = ys.real
    out[:, 2] = ys.imag
    return out


def _word_cloud(
    params: SystemParams, count: int, seed: int, depth: Optional[int]
) -> np.ndarray:
    if depth is None:
        depth = 1
        while params.tail_bound(depth) > 1e-12:
            depth += 1
    stream = SplitMix64(seed, "attractor.word")
    xs = stream.derive("base").uniform(0, count)
    syms = stream.derive("words").integers(0, count * depth, params.b)
    syms = syms.reshape(count, depth)
    ys = symbolic_sum_batch(params, xs, syms)
    out = np.empty((count, 3))
    out[:, 0] = xs
    out[:, 1] = ys.real
    out[:, 2] = ys.imag
    return out


@dataclass
class BoxCount:
    levels: list[int]
    counts: list[int]
    fitted_levels: list[int]
    slope: float

    @property
    def dimension(self) -> float:
        return self.slope


def box_dimension(
    points: np.ndarray, base: int, levels: Sequence[int]
) -> BoxCount:
    """Box-counting slope of log_b N_l against l over the given levels.

    Levels where the count exceeds half the sample size are saturated by
    the finite cloud and are excluded from the fit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("point cloud must be (m, 2) or (m, 3)")
    lv = sorted(set(int(l) for l in levels))
    if len(lv) < 2:
        raise ValueError("need at least two levels")
    m = len(pts)
    counts = []
    for l in lv:
        counts.append(len(_reduce_cells(_cell_rows(pts, base, l)).weights))
    fitted = [l for l, c in zip(lv, counts) if c <= m // 2]
    if len(fitted) < 2:
        raise ValueError("all levels saturated; increase the point count")
    logs = [math.log(counts[lv.index(l)], base) for l in fitted]
    slope = float(np.polyfit(fitted, logs, 1)[0])
    return BoxCount(lv, counts, fitted, slope)


@dataclass
class FiberDimension:
    levels: list[int]
    normalized: list[float]
    fitted_levels: list[int]
    estimate: float


def fiber_dimension(
    params: SystemParams,
    x: float,
    depth: int,
    resolution: int,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: Optional[int] = None,
) -> FiberDimension:
    """Entropy-slope estimate of the fiber measure dimension at x.

    Fits H(m_x, L_l) against l over the slope window of levels
    1..resolution (the two coarsest and two finest trimmed).  Unless the
    word list is every depth-N word once (exhaustive mode, or sampled
    mode with b^N samples, which fill the same measure), it also drops
    any level whose occupied-cell count, read from the entropy profile,
    exceeds a tenth of the sample budget (where the empirical measure
    goes flat).  threads caps the workers of the build (every CPU when
    None).
    """
    spec = FiberMeasureSpec(
        params, x, depth, resolution, mode=mode, sample_count=sample_count, seed=seed
    )
    mu = build_fiber_measure(spec, threads=threads)
    levels = list(range(1, resolution + 1))
    prof = entropy_profile(mu, levels)
    keep = _slope_window(levels)
    if not spec.all_words:
        occupied = dict(zip(prof.levels, prof.cells))
        keep = [l for l in keep if occupied[l] <= 0.1 * spec.total_words]
    if len(keep) < 2:
        raise ValueError("too few usable levels for a slope fit")
    ent = dict(zip(prof.levels, prof.entropies))
    slope = float(np.polyfit(keep, [ent[l] for l in keep], 1)[0])
    return FiberDimension(prof.levels, list(prof.normalized), keep, slope)


def predicted_attractor_dimension(params: SystemParams) -> float:
    return min(3.0, 1.0 + math.log(params.b) / -math.log(params.gamma_abs))


def predicted_fiber_dimension(params: SystemParams) -> tuple[float, bool]:
    """Expected fiber-measure dimension and whether it is exact.

    For rotation numbers that are rational the value is only an upper
    bound (the measure can concentrate on finitely many directions), so
    the second component is False there.
    """
    value = min(2.0, math.log(params.b) / -math.log(params.gamma_abs))
    return value, not params.delta_is_rational


def lyapunov_crosscheck(box_dim: float, fiber_rate: float) -> float:
    """Gap between the cloud box dimension and 1 + the fiber entropy rate."""
    return abs(box_dim - 1.0 - fiber_rate)
