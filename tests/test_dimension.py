"""Attractor clouds, box counting, and entropy-slope dimension."""

import math

import numpy as np
import pytest

from solenoidlab.dimension import (
    box_dimension,
    fiber_dimension,
    generate_attractor,
    lyapunov_crosscheck,
    predicted_attractor_dimension,
    predicted_fiber_dimension,
)
from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab.rng import SplitMix64
from solenoidlab.words import symbolic_sum_batch


def circ_dist(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ------------------------------------------------------------------ orbit cloud


def test_orbit_cloud_shape_and_range(system_b2):
    pts = generate_attractor(system_b2, 500, seed=3)
    assert pts.shape == (500, 3)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] < 1)
    r = system_b2.box_radius()
    assert np.all(np.abs(pts[:, 1]) <= r) and np.all(np.abs(pts[:, 2]) <= r)


def test_orbit_cloud_deterministic(system_b2):
    a = generate_attractor(system_b2, 200, seed=9)
    b = generate_attractor(system_b2, 200, seed=9)
    c = generate_attractor(system_b2, 200, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_orbit_rows_satisfy_the_map(system_b2):
    # row k+1 must be T(row k): x doubles mod 1, y contracts and shifts
    pts = generate_attractor(system_b2, 300, seed=41)
    b = system_b2.b
    gamma = system_b2.gamma
    for k in range(len(pts) - 1):
        x, re_y, im_y = pts[k]
        x2, re2, im2 = pts[k + 1]
        assert circ_dist((b * x) % 1.0, x2) < 1e-12
        y_next = gamma * complex(re_y, im_y) + system_b2.phi(x)
        assert abs(complex(re2, im2) - y_next) < 1e-12


def test_orbit_rows_satisfy_the_map_base_three(system_b3):
    pts = generate_attractor(system_b3, 200, seed=8)
    gamma = system_b3.gamma
    for k in range(0, len(pts) - 1, 7):
        x = pts[k, 0]
        assert circ_dist((3 * x) % 1.0, pts[k + 1, 0]) < 1e-12
        y_next = gamma * complex(pts[k, 1], pts[k, 2]) + system_b3.phi(x)
        assert abs(complex(pts[k + 1, 1], pts[k + 1, 2]) - y_next) < 1e-12


# ------------------------------------------------------------------- word cloud


def test_word_cloud_matches_branch_sums(system_b2):
    # same stream discipline reproduced by hand; pins the derive() names
    count, depth = 64, 20
    pts = generate_attractor(system_b2, count, seed=77, mode="word", depth=depth)
    stream = SplitMix64(77, "attractor.word")
    xs = stream.derive("base").uniform(0, count)
    syms = (
        stream.derive("words")
        .integers(0, count * depth, 2)
        .reshape(count, depth)
        .astype(np.int64)
    )
    ys = symbolic_sum_batch(system_b2, xs, syms)
    assert np.array_equal(pts[:, 0], xs)
    assert np.array_equal(pts[:, 1], ys.real)
    assert np.array_equal(pts[:, 2], ys.imag)


def test_word_cloud_default_depth_has_small_tail(system_b3):
    # depth=None picks the shallowest depth whose tail clears 1e-12
    pts = generate_attractor(system_b3, 32, seed=1, mode="word")
    d = 1
    while system_b3.tail_bound(d) > 1e-12:
        d += 1
    explicit = generate_attractor(system_b3, 32, seed=1, mode="word", depth=d)
    assert np.array_equal(pts, explicit)
    assert system_b3.tail_bound(d) <= 1e-12 < system_b3.tail_bound(d - 1)


def test_attractor_input_validation(system_b2):
    with pytest.raises(ValueError, match="positive point count"):
        generate_attractor(system_b2, 0)
    with pytest.raises(ValueError, match="unknown attractor mode"):
        generate_attractor(system_b2, 10, mode="grid")


# ----------------------------------------------------------------- box counting


def test_box_dimension_line_is_one():
    m = 256
    pts = np.stack([np.arange(m) / m, np.full(m, 0.5)], axis=1)
    bc = box_dimension(pts, 2, range(1, 9))
    assert bc.counts == [2**l for l in range(1, 8)] + [256]
    assert bc.fitted_levels == list(range(1, 8))
    assert bc.slope == pytest.approx(1.0, abs=1e-12)
    assert bc.dimension == bc.slope


def test_box_dimension_square_is_two():
    g = (np.arange(16) + 0.5) / 16
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    bc = box_dimension(pts, 2, [1, 2, 3, 4])
    assert bc.fitted_levels == [1, 2, 3]
    assert bc.slope == pytest.approx(2.0, abs=1e-12)


def test_box_dimension_accepts_three_columns(system_b2):
    pts = generate_attractor(system_b2, 4000, seed=2)
    bc = box_dimension(pts, 2, range(1, 7))
    assert all(c1 <= c2 for c1, c2 in zip(bc.counts, bc.counts[1:]))
    assert 1.0 < bc.slope < 3.0


def test_box_dimension_guards():
    pts = np.random.default_rng(0).random((16, 2))
    with pytest.raises(ValueError, match="at least two levels"):
        box_dimension(pts, 2, [3])
    with pytest.raises(ValueError, match="saturated"):
        box_dimension(pts, 2, [8, 9])
    with pytest.raises(ValueError, match="point cloud"):
        box_dimension(np.arange(10.0), 2, [1, 2])


# ----------------------------------------------------------- entropy-slope fits


def test_fiber_dimension_zero_drive_is_flat(zero_system):
    fd = fiber_dimension(zero_system, 0.3, 10, 6)
    assert fd.estimate == pytest.approx(0.0, abs=1e-12)
    assert fd.levels == list(range(1, 7))
    assert fd.fitted_levels == [3, 4]


def test_fiber_dimension_short_profile_keeps_all_levels(zero_system):
    fd = fiber_dimension(zero_system, 0.3, 10, 3)
    assert fd.fitted_levels == [1, 2, 3]


def test_fiber_dimension_tracks_prediction(system_b2):
    fd = fiber_dimension(system_b2, 0.3177, 11, 8)
    predicted, exact = predicted_fiber_dimension(system_b2)
    assert exact
    assert predicted == pytest.approx(1.0, abs=1e-12)
    assert abs(fd.estimate - predicted) < 0.2


def test_fiber_dimension_sampled_drops_flat_levels(system_b2):
    fd = fiber_dimension(
        system_b2, 0.3177, 14, 9, mode="sampled", sample_count=3000, seed=4
    )
    # fine levels exceed a tenth of the budget in occupied cells
    assert fd.fitted_levels == [3, 4, 5, 6]
    with pytest.raises(ValueError, match="too few usable levels"):
        fiber_dimension(
            system_b2, 0.3177, 14, 9, mode="sampled", sample_count=25, seed=4
        )


def test_fiber_dimension_same_for_both_spellings_of_all_words(cos_poly):
    # sampled with b^depth samples takes every word once, so it builds the
    # exhaustive measure, and no level of it is a flat sampling artefact
    p = SystemParams(2, 0.3, math.sqrt(2.0) - 1.0, cos_poly)
    whole = fiber_dimension(p, 0.3177, 10, 16)
    every = fiber_dimension(p, 0.3177, 10, 16, mode="sampled", sample_count=2**10)
    assert whole.fitted_levels == list(range(3, 15))
    assert every == whole


# ------------------------------------------------------------------ predictions


def test_predicted_attractor_dimension():
    cos = TrigPoly(0.0, (1.0,), ())
    assert predicted_attractor_dimension(
        SystemParams(2, 0.5, 0.3, cos)
    ) == pytest.approx(2.0, abs=1e-12)
    expected = 1.0 + math.log(3) / -math.log(0.55)
    assert predicted_attractor_dimension(
        SystemParams(3, 0.55, 0.3, cos)
    ) == pytest.approx(expected, abs=1e-12)
    assert predicted_attractor_dimension(SystemParams(5, 0.9, 0.3, cos)) == 3.0


def test_predicted_fiber_dimension_rational_flag():
    cos = TrigPoly(0.0, (1.0,), ())
    value, exact = predicted_fiber_dimension(
        SystemParams(2, 0.5, 0.5, cos, delta_fraction=(1, 2))
    )
    assert value == pytest.approx(1.0, abs=1e-12)
    assert not exact
    value, exact = predicted_fiber_dimension(SystemParams(2, 0.9, math.sqrt(2) - 1, cos))
    assert value == 2.0  # log 2 / -log 0.9 caps at the plane
    assert exact


def test_lyapunov_crosscheck():
    assert lyapunov_crosscheck(2.3, 1.1) == pytest.approx(0.2, abs=1e-15)
    assert lyapunov_crosscheck(1.8, 0.8) == pytest.approx(0.0, abs=1e-15)
