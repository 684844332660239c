"""Entropy of grid measures, components, porosity, growth under convolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.entropy import (
    EntropyProfile,
    _group_entropies,
    _histogram_entropies,
    _weights_entropy,
    binary_entropy,
    component_entropy_distribution,
    conditional_entropy,
    decomposition_gap,
    entropy,
    entropy_growth_experiment,
    entropy_profile,
    mix_measures,
    porosity_check,
    saturation_scan,
)
from solenoidlab.gridmeasure import (
    _reduce_rows,
    _RowSums,
    convolve,
    measure_from_cells,
    measure_from_points,
)
from solenoidlab.rng import SplitMix64


def random_measure(seed, base=2, dim=2, level=4, cells=12, radius=1):
    s = SplitMix64(seed, "entropy-measure")
    edge = radius * base**level
    k1 = s.derive("k1").integers(0, cells, 2 * edge) - edge
    w = s.derive("w").integers(0, cells, 60) + 1
    if dim == 1:
        table = {int(k): int(v) for k, v in zip(k1, w)}
    else:
        k2 = s.derive("k2").integers(0, cells, 2 * edge) - edge
        table = {(int(a), int(b)): int(v) for a, b, v in zip(k1, k2, w)}
    return measure_from_cells(base, dim, level, table, box_radius=radius)


def dict_entropy(cells, base):
    total = sum(cells.values())
    h = 0.0
    for w in cells.values():
        p = w / total
        h -= p * math.log(p, base)
    return h


def test_point_mass_entropy_zero():
    mu = measure_from_cells(2, 2, 3, {(1, 2): 17})
    for n in range(4):
        assert entropy(mu, n) == 0.0
    # every component is one cell
    sweep = component_entropy_distribution(mu, [0, 1, 2], 1)
    assert [val for (_, _, val, _) in sweep.rows] == [0.0, 0.0, 0.0]
    assert conditional_entropy(mu, 3, 1) == 0.0


@given(
    cells=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 1), st.integers(1, 40)),
        min_size=1,
        max_size=60,
    ),
    single=st.integers(1, 10**6),
    base=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_group_entropies_match_dict_oracle(cells, single, base):
    # one extra group of a single cell, whose entropy must be exactly 0
    cells = cells + [(9, 9, single)]
    groups = np.array([[g, h] for g, h, _ in cells], dtype=np.int64)
    w = np.array([c for _, _, c in cells], dtype=np.int64)
    oracle = {}
    for g, h, c in cells:
        oracle.setdefault((g, h), []).append(c)
    rows, group_w, group_h = _group_entropies(groups, w, base)
    assert [tuple(int(v) for v in r) for r in rows] == sorted(oracle)
    for key, total, h in zip(sorted(oracle), group_w, group_h):
        ws = oracle[key]
        assert total == sum(ws)
        assert h >= 0.0
        if len(ws) == 1:
            assert h == 0.0
        else:
            assert h == pytest.approx(dict_entropy(dict(enumerate(ws)), base), abs=1e-12)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_row_sums_give_the_entropy_bits_of_one_reduce(data):
    m = data.draw(st.integers(1, 200))
    pairs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    rows = np.array(data.draw(st.lists(pairs, min_size=m, max_size=m)), dtype=np.int64)
    weights = st.lists(st.integers(1, 50), min_size=m, max_size=m)
    w = np.array(data.draw(weights), dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=6)))
    parts = list(zip(np.split(rows, cuts), np.split(w, cuts)))
    order = data.draw(st.permutations(range(len(parts))))
    sums = _RowSums()
    for i in order:
        sums.add(*parts[i])
    whole = _reduce_rows(rows, w)[1]
    assert _weights_entropy(sums.table()[1], 3) == _weights_entropy(whole, 3)
    # the weight histogram itself, merged from parts in any order
    hist = _RowSums()
    whole_parts = np.split(whole, [c * len(whole) // m for c in cuts])
    for i in order:
        hist.add(whole_parts[i][:, None])
    assert _histogram_entropies(*hist.table(), 3)[2][0] == _weights_entropy(whole, 3)


def test_uniform_entropy_is_log_count():
    cells = {(i, j): 1 for i in range(4) for j in range(4)}
    mu = measure_from_cells(2, 2, 2, cells)
    assert entropy(mu, 2) == pytest.approx(4.0, abs=1e-12)
    # one coarsening halves both axes: 4 cells of equal mass
    assert entropy(mu, 1) == pytest.approx(2.0, abs=1e-12)


def test_entropy_base_is_system_base():
    cells = {i: 1 for i in range(9)}
    mu = measure_from_cells(3, 1, 2, cells)
    assert entropy(mu, 2) == pytest.approx(2.0, abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_entropy_matches_dict_oracle(seed):
    mu = random_measure(seed, base=3, level=3, cells=25)
    for n in (3, 2, 1):
        expected = dict_entropy(mu.coarsen(n).cells(), 3)
        assert entropy(mu, n) == pytest.approx(expected, abs=1e-12)


def test_entropy_monotone_in_level():
    mu = random_measure(3, level=5, cells=40)
    values = [entropy(mu, n) for n in range(6)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_entropy_default_level():
    mu = random_measure(4, level=4)
    assert entropy(mu) == entropy(mu, 4)


def test_entropy_rejects_finer_than_stored():
    mu = random_measure(5, level=3)
    with pytest.raises(ValueError, match="below resolution|finer"):
        entropy(mu, 4)


def test_chain_rule_exact():
    mu = random_measure(6, base=2, level=5, cells=35)
    for coarse in (1, 2, 3):
        expected = entropy(mu, 5) - entropy(mu, coarse)
        assert conditional_entropy(mu, 5, coarse) == pytest.approx(expected, abs=1e-9)


def test_conditional_entropy_nonnegative():
    for seed in range(8):
        mu = random_measure(seed, level=4, cells=30)
        assert conditional_entropy(mu, 4, 2) >= -1e-12


def test_concavity_sandwich():
    for seed in range(12):
        mu = random_measure(seed, base=2, level=4, cells=20)
        nu = random_measure(seed + 100, base=2, level=4, cells=20)
        p, q = (seed % 5) + 1, 7
        mix = mix_measures(mu, nu, p, q)
        t = p / q
        for n in (2, 4):
            lhs = t * entropy(mu, n) + (1 - t) * entropy(nu, n)
            mid = entropy(mix, n)
            assert lhs <= mid + 1e-9
            assert mid <= lhs + binary_entropy(t, 2) + 1e-9


def test_mix_measures_rejects_weight_overflow():
    mu = measure_from_cells(2, 1, 2, {0: 9})
    nu = measure_from_cells(2, 1, 2, {1: 2**61})
    with pytest.raises(ValueError, match="overflow"):
        mix_measures(mu, nu, 1, 2)
    small = mix_measures(mu, measure_from_cells(2, 1, 2, {1: 4}), 1, 2)
    assert small.cells() == {0: 9 * 4, 1: 4 * 9}


def test_conditional_concavity_left_inequality():
    for seed in range(8):
        mu = random_measure(seed, base=2, level=4, cells=25)
        nu = random_measure(seed + 50, base=2, level=4, cells=25)
        mix = mix_measures(mu, nu, 1, 3)
        t = 1 / 3
        lhs = t * conditional_entropy(mu, 4, 2) + (1 - t) * conditional_entropy(nu, 4, 2)
        assert lhs <= conditional_entropy(mix, 4, 2) + 1e-9


def test_affine_invariance_exact():
    mu = random_measure(9, base=2, level=5, cells=30)
    moved = mu.affine_badic(2, (5, -3))
    # cells permute one-for-one at the mapped level
    assert entropy(moved, 3) == entropy(mu, 5)
    # coarser levels agree only when the corner aligns with the coarser
    # grid: shift divisible by b^(3-1)
    aligned = mu.affine_badic(2, (8, -4))
    assert entropy(aligned, 3) == entropy(mu, 5)
    assert entropy(aligned, 1) == entropy(mu, 3)


def test_binary_entropy_properties():
    assert binary_entropy(0.5, 2) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.5, 4) == pytest.approx(0.5, abs=1e-12)
    assert binary_entropy(1e-12, 2) < 1e-9 or binary_entropy(0.0, 2) == 0.0


def test_profile_slope_of_exact_product_measure():
    cells = {(i, j): 1 for i in range(16) for j in range(16)}
    mu = measure_from_cells(2, 2, 4, cells)
    profile = entropy_profile(mu, range(1, 5))
    assert profile.slope() == pytest.approx(2.0, abs=1e-9)
    assert profile.normalized[-1] == pytest.approx(2.0, abs=1e-12)


def test_profile_needs_two_levels():
    mu = random_measure(10)
    with pytest.raises(ValueError):
        entropy_profile(mu, [2]).slope()


def test_profile_window_selects_levels():
    mu = random_measure(12, level=5, cells=40)
    profile = entropy_profile(mu, range(1, 6))
    full = profile.slope()
    windowed = profile.slope([2, 3, 4])
    assert isinstance(full, float) and isinstance(windowed, float)


def test_component_sweep_masses_sum_to_one_per_level():
    mu = random_measure(14, base=2, level=5, cells=45)
    sweep = component_entropy_distribution(mu, [1, 2], 2)
    for lvl in (1, 2):
        mass = sum(r[3] for r in sweep.rows if r[0] == lvl)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_component_sweep_range_guard():
    mu = random_measure(15, level=4)
    with pytest.raises(ValueError, match="below resolution"):
        component_entropy_distribution(mu, [3], 2)


def test_porosity_sparse_measure_true():
    # a diagonal line of cells: every small component is a near-line,
    # with normalized entropy about 1, far below h + delta for h = 1.4
    cells = {(i, i): 1 for i in range(2**6)}
    mu = measure_from_cells(2, 2, 6, cells)
    report = porosity_check(mu, 1.4, 0.2, 2, 1, 4)
    assert report.verdict


def test_porosity_full_square_false():
    # uniform plane saturates every component at rate 2
    cells = {(i, j): 1 for i in range(2**5) for j in range(2**5)}
    mu = measure_from_cells(2, 2, 5, cells)
    report = porosity_check(mu, 0.5, 0.2, 2, 1, 3)
    assert not report.verdict
    assert report.fraction_below == pytest.approx(0.0, abs=1e-12)


def test_growth_point_mass_gain_small():
    fiber = random_measure(20, base=2, level=5, cells=50)
    delta = measure_from_cells(2, 2, 5, {(7, 9): 1})
    report = entropy_growth_experiment(delta, fiber, 4)
    assert abs(report.gain) <= 2.0 / 4


def test_growth_uniform_dominates():
    fiber = random_measure(21, base=2, level=4, cells=10)
    cells = {(i, j): 1 for i in range(2**4) for j in range(2**4)}
    uniform = measure_from_cells(2, 2, 4, cells)
    report = entropy_growth_experiment(uniform, fiber, 3)
    assert report.convolved_rate >= 2.0 - 0.2


def test_growth_level_guard():
    fiber = random_measure(22, level=3)
    with pytest.raises(ValueError, match="below resolution"):
        entropy_growth_experiment(fiber, fiber, 4)


def test_decomposition_gap_small_for_uniform():
    cells = {(i, j): 1 for i in range(2**5) for j in range(2**5)}
    mu = measure_from_cells(2, 2, 5, cells)
    # every component of the uniform square has rate exactly 2
    assert decomposition_gap(mu, 2, 4) == pytest.approx(0.0, abs=1e-9)


def test_mix_measures_total_and_ratio():
    mu = random_measure(25, level=3, cells=10)
    nu = random_measure(26, level=3, cells=10)
    mix = mix_measures(mu, nu, 2, 5)
    assert mix.total == 5 * mu.total * nu.total
    mass_from_mu = 2 * nu.total * mu.total
    assert mass_from_mu / mix.total == pytest.approx(0.4)


def test_mix_measures_validation():
    mu = random_measure(27, level=3)
    nu = random_measure(28, level=4)
    with pytest.raises(ValueError):
        mix_measures(mu, nu, 1, 2)
    with pytest.raises(ValueError):
        mix_measures(mu, mu, 0, 2)


def test_saturation_point_mass_concentrated():
    mu = measure_from_cells(2, 2, 5, {(3, 3): 9})
    scan = saturation_scan(mu, 0.1, 3, [0.0, 0.25])
    assert scan.zero.captured == pytest.approx(1.0)
    assert scan.zero.concentrated


def test_saturation_horizontal_line():
    cells = {(i, 0): 1 for i in range(2**4)}
    mu = measure_from_cells(2, 2, 4, cells)
    scan = saturation_scan(mu, 0.1, 3, [0.0, 0.25])
    # the support is a horizontal segment: captured mass 1 for the angle
    # whose strip test measures vertical extent
    best = max(rep.captured for rep in scan.line_table)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert not scan.full.saturated


def test_saturation_uniform_square_saturated():
    cells = {(i, j): 1 for i in range(2**4) for j in range(2**4)}
    mu = measure_from_cells(2, 2, 4, cells)
    scan = saturation_scan(mu, 0.05, 4, [0.0])
    assert scan.full.entropy_rate == pytest.approx(2.0, abs=1e-12)
    assert scan.full.saturated


def test_close_map_perturbation_bound():
    # moving every point by less than one cell changes entropy by at
    # most the 3x3 rebinning constant
    s = SplitMix64(4040, "close")
    pts = np.column_stack(
        (s.derive("x").uniform(0, 4000), s.derive("y").uniform(0, 4000))
    )
    n = 5
    mu = measure_from_points(pts, 2, n)
    shift = (s.derive("dx").uniform(0, 4000) - 0.5) * (2.0 * 2.0**-n)
    nu = measure_from_points(pts + shift[:, None], 2, n)
    assert abs(entropy(mu, n) - entropy(nu, n)) <= 9.0
