"""System parameters for the skew-product solenoid map.

The map acts on the cylinder [0,1) x C by

    T(x, y) = (b x mod 1,  gamma * y + phi(x))

with integer base b >= 2, complex contraction gamma with 0 < |gamma| < 1,
and a real-analytic drive phi of period 1.  Per-fiber sums of the drive
along inverse branches build the attractor; everything downstream (grid
measures, entropy, projections) consumes these parameters.

gamma is stored as modulus plus rotation number (|gamma|, delta), with
gamma = |gamma| * exp(2*pi*i*delta).  Rationality of delta is an input
declaration, not something sniffed from a float: rational rotation
numbers are carried as exact fractions so rotation orbits close exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = ["TrigPoly", "SystemParams", "NAMED_IRRATIONALS"]

# Named rotation numbers accepted by the config layer.  Values are the
# best double approximations of the corresponding irrationals.
NAMED_IRRATIONALS = {
    "sqrt2-1": math.sqrt(2.0) - 1.0,
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "1/sqrt2": 1.0 / math.sqrt(2.0),
    "e-2": math.e - 2.0,
    "pi-3": math.pi - 3.0,
}


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial  a0 + sum_k (a_k cos(2 pi k x) + b_k sin(2 pi k x)).

    cos_coeffs[k-1] is a_k and sin_coeffs[k-1] is b_k.  The polynomial is
    Z-periodic by construction, which is the only smoothness class the
    package supports for the drive.
    """

    a0: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "a0", float(self.a0))

    @property
    def degree(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def __call__(self, x):
        """Evaluate at x (scalar or ndarray)."""
        two_pi_x = 2.0 * np.pi * np.asarray(x, dtype=np.float64)
        out = None
        for trig, coeffs in ((np.cos, self.cos_coeffs), (np.sin, self.sin_coeffs)):
            for k, a in enumerate(coeffs, start=1):
                if a == 0.0:
                    continue
                term = trig(k * two_pi_x)
                term *= a
                out = term if out is None else out + term
        if out is None:
            out = np.full_like(two_pi_x, self.a0)
        elif self.a0 != 0.0:
            out += self.a0
        if np.ndim(x) == 0:
            return float(out)
        return out

    def on_circle(self, z: np.ndarray) -> np.ndarray:
        """Values at the x of the points z = exp(2 pi i x) of a complex128 array.

        cos(2 pi k x) is Re z^k and sin(2 pi k x) is Im z^k, so no cos or
        sin is called.  The powers are repeated products z^k = z^{k-1} z,
        each into a new array (numpy's in-place complex product of short
        arrays rounds differently), and the terms add in the order
        __call__ adds them.  The float64 result may be a view of z.
        """
        powers = [z]

        def part(k: int, imag: bool) -> np.ndarray:
            while len(powers) < k:
                powers.append(powers[-1] * z)
            return powers[k - 1].imag if imag else powers[k - 1].real

        out = None
        for imag, coeffs in ((False, self.cos_coeffs), (True, self.sin_coeffs)):
            for k, a in enumerate(coeffs, start=1):
                if a == 0.0:
                    continue
                term = part(k, imag) if a == 1.0 else part(k, imag) * a
                out = term if out is None else out + term
        if out is None:
            return np.full(z.shape, self.a0)
        return out + self.a0 if self.a0 != 0.0 else out

    def derivative(self) -> "TrigPoly":
        """d/dx of the polynomial, again a TrigPoly."""
        deg = self.degree
        cos_c = [0.0] * deg
        sin_c = [0.0] * deg
        for k, a in enumerate(self.cos_coeffs, start=1):
            sin_c[k - 1] += -2.0 * math.pi * k * a
        for k, bk in enumerate(self.sin_coeffs, start=1):
            cos_c[k - 1] += 2.0 * math.pi * k * bk
        return TrigPoly(0.0, tuple(cos_c), tuple(sin_c))

    def sup_bound(self) -> float:
        """Certified upper bound for sup |phi|: |a0| + sum(|a_k| + |b_k|).

        Always an upper bound (triangle inequality), never an estimate.
        """
        return (
            abs(self.a0)
            + sum(abs(c) for c in self.cos_coeffs)
            + sum(abs(c) for c in self.sin_coeffs)
        )

    def sup_grid(self, samples: int = 4096) -> float:
        """Dense-grid refinement of the sup norm (a lower bound on sup |phi|)."""
        xs = np.arange(samples, dtype=np.float64) / samples
        return float(np.max(np.abs(self(xs))))


@dataclass(frozen=True)
class SystemParams:
    """Parameters (b, gamma, phi) of one solenoid system.

    delta_fraction, when given, declares delta rational and must equal
    p/q exactly; delta itself is then the float value of that fraction.
    """

    b: int
    gamma_abs: float
    delta: float
    phi: TrigPoly = field(default_factory=TrigPoly)
    delta_fraction: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if int(self.b) != self.b or self.b < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.b}")
        object.__setattr__(self, "b", int(self.b))
        if not (0.0 < self.gamma_abs < 1.0):
            raise ValueError(
                f"contraction modulus must lie in (0, 1), got {self.gamma_abs}"
            )
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"rotation number must lie in [0, 1), got {self.delta}")
        if self.delta_fraction is not None:
            p, q = self.delta_fraction
            frac = Fraction(p, q)
            if not (0 <= frac < 1):
                raise ValueError(f"rotation fraction {p}/{q} not in [0, 1)")
            object.__setattr__(
                self, "delta_fraction", (frac.numerator, frac.denominator)
            )
            if abs(self.delta - float(frac)) > 1e-15:
                raise ValueError(
                    f"delta={self.delta} does not match declared fraction {p}/{q}"
                )

    @property
    def gamma(self) -> complex:
        return self.gamma_abs * cmath.exp(2j * math.pi * self.delta)

    @property
    def delta_is_rational(self) -> bool:
        return self.delta_fraction is not None

    @property
    def phi_sup(self) -> float:
        """Certified bound for sup |phi| used in every radius/tail estimate."""
        return self.phi.sup_bound()

    @property
    def attractor_radius(self) -> float:
        """All fiber sums land in the closed disc of this radius: sup|phi| / (1 - |gamma|)."""
        return self.phi_sup / (1.0 - self.gamma_abs)

    def tail_bound(self, depth: int) -> float:
        """Upper bound for the discarded tail of a fiber sum truncated at depth terms."""
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        return self.phi_sup * self.gamma_abs**depth / (1.0 - self.gamma_abs)

    def box_radius(self) -> int:
        """Smallest integer R with the attractor inside [-R, R]^2 (at least 1)."""
        return max(1, math.ceil(self.attractor_radius))
