"""The angle coordinate: rotation orbits, discrepancy, Birkhoff averages.

Floating-point subtleties dominate here.  An orbit of a million rotation
steps accumulated naively drifts by ~1e-10, which swamps equidistribution
statistics, so the k-th point is always formed from k directly: the
rotation number is split into a 26-bit head (whose integer multiples are
exact doubles) and a small tail, and only the tail multiplication can
round.  Rational rotation numbers use integer residues and are exactly
periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import entropy
from .fiber import FiberMeasureSpec, build_fiber_measure, depth_for_resolution
from .params import SystemParams
from .projection import project_measure
from .words import scale_tilde, symbol_block, word_address

__all__ = [
    "RotationOrbit",
    "rotation_orbit",
    "star_discrepancy",
    "projection_entropy_observable",
    "BirkhoffReport",
    "birkhoff_average",
]


def star_discrepancy(points: np.ndarray) -> float:
    """max_i |x_(i) - i/N| over the sorted points (0-indexed).

    Exact for the points as given; agrees with the classical star
    discrepancy to within 1/N, and hits the textbook lattice values
    (1/q - 1/N for a full rational orbit started at 0).
    """
    pts = np.sort(np.asarray(points, dtype=np.float64))
    n = len(pts)
    if n == 0:
        raise ValueError("empty point set")
    if pts[0] < 0.0 or pts[-1] >= 1.0:
        raise ValueError("points must lie in [0, 1)")
    return float(np.abs(pts - np.arange(n) / n).max())


@dataclass
class RotationOrbit:
    delta: float
    theta0: float
    length: int
    points: np.ndarray
    discrepancy: float
    delta_fraction: Optional[tuple[int, int]] = None

    @property
    def period(self) -> Optional[int]:
        return self.delta_fraction[1] if self.delta_fraction else None


def rotation_orbit(
    delta: float,
    theta0: float,
    length: int,
    delta_fraction: Optional[tuple[int, int]] = None,
) -> RotationOrbit:
    """The orbit {theta0 - k delta mod 1 : k < length} with its discrepancy.

    With delta_fraction=(p, q) the angles are computed through integer
    residues mod q, so the orbit is exactly q-periodic regardless of
    length.
    """
    if length < 1:
        raise ValueError("need at least one orbit point")
    ks = np.arange(length)
    if delta_fraction is not None:
        p, q = delta_fraction
        if q <= 0:
            raise ValueError("fraction denominator must be positive")
        res = (-(ks % q) * (p % q)) % q
        pts = np.mod(float(theta0) + res / q, 1.0)
    else:
        # Dekker split: hi has 26 significant bits, so k * hi is exact
        c = float(1 << 27) + 1.0
        p_ = delta * c
        hi = p_ - (p_ - delta)
        lo = delta - hi
        pts = np.mod(float(theta0) - np.fmod(ks * hi, 1.0) - ks * lo, 1.0)
    pts[pts >= 1.0] -= 1.0
    return RotationOrbit(
        float(delta), float(theta0), length, pts, star_discrepancy(pts), delta_fraction
    )


def projection_entropy_observable(
    params: SystemParams, ell: int, threads: int = 1
) -> tuple[Callable[[float], float], int]:
    """The scale-ell projected-entropy observable and its working level.

    f(theta) averages, over all words w at the converted level, the
    normalized entropy of the angle-theta projection of the fiber
    measure based at the branch point w(0).  The fiber measures are
    built once and captured in the closure.  threads is accepted for
    compatibility and changes nothing.
    """
    lt = scale_tilde(params, ell)
    if lt < 1:
        raise ValueError("observable scale too coarse after conversion")
    if params.b**lt > 1 << 16:
        raise ValueError(f"budget exceeded: b^{lt} base words")
    depth = depth_for_resolution(params, lt)
    syms = symbol_block(params.b, lt, 0, params.b**lt)
    measures = []
    for row in syms:
        base = word_address(params, 0.0, tuple(int(s) for s in row))
        spec = FiberMeasureSpec(params, base, depth, lt)
        measures.append(build_fiber_measure(spec, threads=threads))

    def f(theta: float) -> float:
        acc = 0.0
        for mu in measures:
            acc += entropy(project_measure(mu, theta)) / lt
        return acc / len(measures)

    return f, lt


@dataclass
class BirkhoffReport:
    ell: int
    ell_tilde: int
    theta0: float
    ks: list[int]
    averages: list[float]
    integral: float

    @property
    def gaps(self) -> list[float]:
        return [abs(a - self.integral) for a in self.averages]

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (k, a, self.integral, g)
            for k, a, g in zip(self.ks, self.averages, self.gaps)
        ]


def birkhoff_average(
    params: SystemParams,
    ell: int,
    theta0: float,
    k_max: int,
    observable: Optional[Callable[[float], float]] = None,
    quad_points: int = 256,
    threads: int = 1,
) -> BirkhoffReport:
    """Partial averages of the observable along the ell*delta orbit vs its integral.

    The orbit step is ell times the rotation number (the observable is
    an ell-block average, so the matching shift advances ell steps at a
    time).  The integral is a midpoint rule on quad_points angles; each
    report row carries the running average and its gap to the integral.
    threads is accepted for compatibility and changes nothing.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    if observable is None:
        observable, lt = projection_entropy_observable(params, ell, threads=threads)
    else:
        lt = scale_tilde(params, ell)
    if params.delta_is_rational:
        p, q = params.delta_fraction
        orbit = rotation_orbit(
            math.modf(ell * params.delta)[0], theta0, k_max, ((ell * p) % q, q)
        )
    else:
        orbit = rotation_orbit(math.modf(ell * params.delta)[0], theta0, k_max)
    values = np.array([observable(float(t)) for t in orbit.points])
    averages = np.cumsum(values) / np.arange(1, k_max + 1)
    quad = sum(
        observable((i + 0.5) / quad_points) for i in range(quad_points)
    ) / quad_points
    return BirkhoffReport(
        ell,
        lt,
        float(theta0),
        list(range(1, k_max + 1)),
        [float(a) for a in averages],
        float(quad),
    )
