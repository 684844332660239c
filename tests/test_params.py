"""Drive polynomials and system parameters."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.params import NAMED_IRRATIONALS, SystemParams, TrigPoly

coeff = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
coeff_list = st.lists(coeff, min_size=0, max_size=4)


def direct_eval(poly: TrigPoly, x: float) -> float:
    total = poly.a0
    for k, a in enumerate(poly.cos_coeffs, start=1):
        total += a * math.cos(2.0 * math.pi * k * x)
    for k, b in enumerate(poly.sin_coeffs, start=1):
        total += b * math.sin(2.0 * math.pi * k * x)
    return total


@given(coeff, coeff_list, coeff_list, st.floats(0.0, 1.0, exclude_max=True))
def test_eval_matches_termwise_sum(a0, cos_c, sin_c, x):
    poly = TrigPoly(a0, tuple(cos_c), tuple(sin_c))
    assert poly(x) == pytest.approx(direct_eval(poly, x), abs=1e-12)


def test_vectorized_eval_matches_scalar():
    poly = TrigPoly(0.25, (1.0, -0.5), (0.0, 0.75))
    xs = np.linspace(0.0, 1.0, 257)
    vals = poly(xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(poly(float(x)), abs=1e-14)


def test_periodicity():
    poly = TrigPoly(0.1, (0.3, 0.2), (0.5,))
    for x in (0.0, 0.123, 0.777):
        assert poly(x) == pytest.approx(poly(x + 1.0), abs=1e-12)


def test_derivative_against_central_difference():
    poly = TrigPoly(0.4, (1.0, -0.3), (0.2, 0.6))
    dpoly = poly.derivative()
    h = 1e-6
    for x in (0.05, 0.31, 0.5, 0.93):
        numeric = (poly(x + h) - poly(x - h)) / (2.0 * h)
        assert dpoly(x) == pytest.approx(numeric, abs=1e-6)


def test_derivative_of_constant_is_zero():
    assert TrigPoly(3.0, (), ()).derivative().sup_bound() == 0.0


@given(coeff, coeff_list, coeff_list)
@settings(max_examples=50)
def test_sup_bound_dominates_grid(a0, cos_c, sin_c):
    poly = TrigPoly(a0, tuple(cos_c), tuple(sin_c))
    assert poly.sup_bound() >= poly.sup_grid(512) - 1e-12


def test_sup_bound_tight_for_pure_cosine(cos_poly):
    # sup of cos(2 pi x) is attained at x=0
    assert cos_poly.sup_bound() == 1.0
    assert cos_poly.sup_grid() == pytest.approx(1.0, abs=1e-12)


def test_gamma_polar_form(system_b2):
    g = system_b2.gamma
    assert abs(g) == pytest.approx(0.5, abs=1e-15)
    assert cmath.phase(g) == pytest.approx(
        2.0 * math.pi * (math.sqrt(2.0) - 1.0) - 2.0 * math.pi, abs=1e-12
    ) or cmath.phase(g) == pytest.approx(
        2.0 * math.pi * (math.sqrt(2.0) - 1.0), abs=1e-12
    )


def test_radii_and_tail(system_b2):
    assert system_b2.phi_sup == 1.0
    assert system_b2.attractor_radius == pytest.approx(2.0)
    assert system_b2.box_radius() == 2
    # geometric tail: sup|phi| |gamma|^d / (1 - |gamma|)
    assert system_b2.tail_bound(0) == pytest.approx(2.0)
    assert system_b2.tail_bound(10) == pytest.approx(2.0 * 0.5**10)


def test_tail_bound_decreasing(system_b3):
    tails = [system_b3.tail_bound(d) for d in range(20)]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        SystemParams(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        SystemParams(2, 0.0, 0.1)
    with pytest.raises(ValueError):
        SystemParams(2, 1.0, 0.1)
    with pytest.raises(ValueError):
        SystemParams(2, 0.5, 1.5)
    with pytest.raises(ValueError):
        SystemParams(2, 0.5, 0.2, delta_fraction=(1, 3))


def test_rational_declaration():
    p = SystemParams(2, 0.5, 0.5, delta_fraction=(1, 2))
    assert p.delta_is_rational
    assert p.delta_fraction == (1, 2)
    # fraction is normalized
    p2 = SystemParams(2, 0.5, 0.5, delta_fraction=(2, 4))
    assert p2.delta_fraction == (1, 2)


def test_named_irrationals_in_range():
    for name, value in NAMED_IRRATIONALS.items():
        assert 0.0 < value < 1.0, name
