"""Projection, strip conditionals, and the conservation estimator.

The load-bearing oracle: at theta = 0 the streamed estimator and the
GridMeasure route bin identical b-adic cells (nesting makes raw values
and cell centers land in the same coarse cell), so alpha, beta, upsilon,
and the strip table must agree to float roundoff, not just to a
half-cell tolerance.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solenoidlab import fiber, projection
from solenoidlab.entropy import entropy
from solenoidlab.fiber import FiberMeasureSpec, build_fiber_measure, certified_level
from solenoidlab.gridmeasure import GridMeasure, measure_from_cells
from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab import gridmeasure
from solenoidlab.projection import (
    ConservationEstimate,
    SweepResult,
    _sorted_key_entropy,
    conservation_estimate,
    conservation_estimates,
    fiber_conditional_measure,
    project_measure,
    project_point,
    projection_entropy_sweep,
    strip_decomposition,
)


def planar_measure(cells):
    return measure_from_cells(2, 2, 3, cells, box_radius=4)


# ---------------------------------------------------------------- project_point


def test_project_point_axis_angles():
    z = 0.3 - 0.7j
    assert project_point(z, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert project_point(z, 0.25) == pytest.approx(-0.7, abs=1e-15)
    assert project_point(z, 0.5) == pytest.approx(-0.3, abs=1e-15)
    assert project_point(z, 0.75) == pytest.approx(0.7, abs=1e-15)


def test_project_point_array_matches_scalar():
    zs = np.array([0.1 + 0.2j, -1.5 + 0.25j, 0.0 - 2.0j])
    out = project_point(zs, 0.3)
    assert out.shape == (3,)
    for z, v in zip(zs, out):
        assert v == pytest.approx(project_point(complex(z), 0.3), abs=1e-15)


@given(
    re=st.floats(-10, 10),
    im=st.floats(-10, 10),
    theta=st.floats(0, 1),
    gamma_abs=st.floats(0.05, 0.95),
    delta=st.floats(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_rotation_identity(re, im, theta, gamma_abs, delta):
    # pi_theta(gamma z) = |gamma| pi_{theta - delta}(z)
    z = complex(re, im)
    gamma = gamma_abs * complex(math.cos(2 * math.pi * delta), math.sin(2 * math.pi * delta))
    lhs = project_point(gamma * z, theta)
    rhs = gamma_abs * project_point(z, theta - delta)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# -------------------------------------------------------------- project_measure


def test_project_measure_oracle():
    cells = {(0, 0): 3, (1, 2): 1, (-3, 1): 2, (2, -2): 5}
    mu = planar_measure(cells)
    theta = 0.2137
    proj = project_measure(mu, theta)

    expected = {}
    cos_t, sin_t = math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)
    for (k1, k2), w in cells.items():
        cx, cy = (k1 + 0.5) / 8, (k2 + 0.5) / 8
        j = math.floor((cx * cos_t + cy * sin_t) * 8)
        expected[j] = expected.get(j, 0) + w
    assert proj.dim == 1
    assert proj.level == mu.level
    assert proj.total == mu.total
    assert proj.cells() == expected


def test_project_measure_theta_zero_keeps_first_index():
    cells = {(0, 0): 1, (0, 5): 2, (-2, 1): 4}
    proj = project_measure(planar_measure(cells), 0.0)
    assert proj.cells() == {0: 3, -2: 4}


def test_project_measure_quarter_turn_keeps_second_index():
    cells = {(0, 0): 1, (3, 0): 2, (1, -4): 4}
    proj = project_measure(planar_measure(cells), 0.25)
    assert proj.cells() == {0: 3, -4: 4}


def test_project_measure_needs_planar():
    line = measure_from_cells(2, 1, 2, {0: 1})
    with pytest.raises(ValueError, match="planar"):
        project_measure(line, 0.0)


def test_project_measure_flags_boundary_hits():
    # center (0.5, -0.5) projects to 0 at theta = 1/8, a cell corner
    mu = measure_from_cells(2, 2, 0, {(0, -1): 1, (2, 2): 1}, box_radius=4)
    proj = project_measure(mu, 0.125)
    assert proj.boundary_ambiguous >= 1


# ------------------------------------------------------------------ conditionals


def test_fiber_conditional_matches_mask():
    cells = {(0, 0): 2, (1, 0): 3, (0, 3): 1, (-2, -1): 4, (3, 3): 2}
    mu = planar_measure(cells)
    q = 1
    width = 2.0**-q
    c = 0.5 * width  # strip j = 0
    cond = fiber_conditional_measure(mu, 0.0, c, q)

    expected = {}
    for (k1, k2), w in cells.items():
        cx, cy = (k1 + 0.5) / 8, (k2 + 0.5) / 8
        if 0 <= cx < width:
            j = math.floor(cy * 8)
            expected[j] = expected.get(j, 0) + w
    assert cond.dim == 1
    assert cond.level == mu.level
    assert cond.cells() == expected


def test_fiber_conditional_empty_strip():
    mu = planar_measure({(0, 0): 1})
    with pytest.raises(ValueError, match="empty strip"):
        fiber_conditional_measure(mu, 0.0, 3.9, 2)


def test_fiber_conditional_needs_planar():
    line = measure_from_cells(2, 1, 2, {0: 1})
    with pytest.raises(ValueError, match="planar"):
        fiber_conditional_measure(line, 0.0, 0.0, 1)


def test_strip_decomposition_partitions_mass():
    rng = np.random.default_rng(7)
    cells = {}
    for _ in range(60):
        k = (int(rng.integers(-30, 30)), int(rng.integers(-30, 30)))
        cells[k] = cells.get(k, 0) + int(rng.integers(1, 9))
    mu = planar_measure(cells)
    for theta in (0.0, 0.17, 0.25):
        parts = strip_decomposition(mu, theta, 2)
        assert sum(m.total for _, m in parts) == mu.total
        indices = [j for j, _ in parts]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


def test_strip_decomposition_single_strip_recovers_perp_projection():
    cells = {(0, 0): 2, (0, 1): 3, (0, 7): 5}
    mu = planar_measure(cells)
    parts = strip_decomposition(mu, 0.0, 0)
    assert len(parts) == 1
    j, cond = parts[0]
    assert j == 0
    # strip coordinate at theta = 0 is the second axis
    assert cond.cells() == {0: 2, 1: 3, 7: 5}


# ------------------------------------------------------------------------ sweep


def test_sweep_matches_direct_projection():
    params = SystemParams(2, 0.5, 0.3, TrigPoly(0.0, (1.0,), ()))
    xs = [0.2, 0.7]
    thetas = [0.0, 0.15, 0.25]
    n, depth = 4, 7
    sweep = projection_entropy_sweep(params, xs, thetas, n, depth)
    assert sweep.matrix.shape == (2, 3)
    for i, x in enumerate(xs):
        mu = build_fiber_measure(FiberMeasureSpec(params, x, depth, n))
        for j, theta in enumerate(thetas):
            direct = entropy(project_measure(mu, theta), n) / n
            assert sweep.matrix[i, j] == pytest.approx(direct, abs=1e-12)
    assert sweep.min_rate == pytest.approx(sweep.matrix.min())
    assert sweep.max_rate == pytest.approx(sweep.matrix.max())
    assert sweep.beta_hat == sweep.min_rate
    ax, atheta = sweep.argmin()
    ij = np.unravel_index(sweep.matrix.argmin(), sweep.matrix.shape)
    assert (ax, atheta) == (xs[ij[0]], thetas[ij[1]])


def test_sweep_rejects_empty_grid():
    params = SystemParams(2, 0.5, 0.3, TrigPoly(0.0, (1.0,), ()))
    with pytest.raises(ValueError, match="empty"):
        projection_entropy_sweep(params, [], [0.1], 3, 6)
    with pytest.raises(ValueError, match="empty"):
        projection_entropy_sweep(params, [0.1], [], 3, 6)


# ------------------------------------------------------------- sorted-key entropy


def dict_key_entropy(keys, base):
    _, counts = np.unique(keys, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum() / math.log(base))


def test_sorted_key_entropy_uniform():
    keys = np.arange(81, dtype=np.int64)
    assert _sorted_key_entropy(keys, 3) == pytest.approx(4.0, abs=1e-12)


def test_sorted_key_entropy_constant():
    keys = np.full(1000, 42, dtype=np.int64)
    assert _sorted_key_entropy(keys, 2) == pytest.approx(0.0, abs=1e-12)


def test_sorted_key_entropy_empty():
    with pytest.raises(ValueError, match="empty"):
        _sorted_key_entropy(np.empty(0, dtype=np.int64), 2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_key_entropy_matches_unique(data):
    n = data.draw(st.integers(1, 400))
    keys = np.asarray(
        data.draw(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        ),
        dtype=np.int64,
    )
    expected = dict_key_entropy(keys, 2)
    assert _sorted_key_entropy(keys.copy(), 2) == pytest.approx(expected, abs=1e-10)


def test_sorted_key_entropy_chunked_carry():
    # tiny chunks force runs to straddle chunk boundaries
    rng = np.random.default_rng(11)
    keys = np.sort(rng.integers(0, 12, size=500).astype(np.int64))
    expected = dict_key_entropy(keys, 3)
    assert _sorted_key_entropy(keys.copy(), 3, chunk=7) == pytest.approx(
        expected, abs=1e-10
    )
    assert _sorted_key_entropy(keys.copy(), 3, chunk=1) == pytest.approx(
        expected, abs=1e-10
    )


@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 3000),
    spread=st.integers(1, 500),
    base=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_sorted_key_entropy_bits_do_not_depend_on_the_chunk(seed, size, spread, base):
    keys = np.random.default_rng(seed).integers(-spread, spread, size=size)
    values = [_sorted_key_entropy(keys.copy(), base, chunk=c) for c in (1, 7, 1 << 20)]
    assert values[0] == values[1] == values[2]
    assert values[0] >= 0.0


# ------------------------------------------------------------ conservation rates


def manual_rates(params, x, n, q, depth, theta=0.0):
    mu = build_fiber_measure(FiberMeasureSpec(params, x, depth, n))
    alpha = entropy(mu, n) / n
    beta = entropy(project_measure(mu, theta), n) / n
    table = {}
    for j, cond in strip_decomposition(mu, theta, q):
        table[j] = (cond.total / mu.total, entropy(cond, n - q) / (n - q))
    upsilon = sum(mass * rate for mass, rate in table.values())
    return alpha, beta, upsilon, table


def test_streamed_estimator_matches_gridmeasure_route():
    params = SystemParams(2, 0.5, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    x, n, depth = 0.3177, 5, 8
    for q in (2, 3):
        est = conservation_estimate(params, x, 0.0, n, q, depth)
        alpha, beta, upsilon, table = manual_rates(params, x, n, q, depth)
        assert est.alpha == pytest.approx(alpha, abs=1e-12)
        assert est.beta == pytest.approx(beta, abs=1e-12)
        assert est.upsilon == pytest.approx(upsilon, abs=1e-12)
        got = {j: (mass, rate) for j, mass, rate in est.strip_table}
        assert set(got) == set(table)
        for j in table:
            assert got[j][0] == pytest.approx(table[j][0], abs=1e-15)
            assert got[j][1] == pytest.approx(table[j][1], abs=1e-12)


def test_streamed_alpha_is_theta_independent():
    params = SystemParams(3, 0.55, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    x, n, depth = 0.41, 3, 9
    a = conservation_estimate(params, x, 0.0, n, 2, depth).alpha
    b = conservation_estimate(params, x, 0.31, n, 2, depth).alpha
    mu = build_fiber_measure(FiberMeasureSpec(params, x, depth, n))
    assert a == pytest.approx(entropy(mu, n) / n, abs=1e-12)
    assert b == pytest.approx(a, abs=1e-12)


def test_multi_q_single_pass_equals_single_q():
    params = SystemParams(2, 0.5, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    ests = conservation_estimates(params, 0.3177, 0.2, 5, [2, 3], 8)
    assert set(ests) == {2, 3}
    for q in (2, 3):
        single = conservation_estimate(params, 0.3177, 0.2, 5, q, 8)
        assert ests[q].alpha == single.alpha
        assert ests[q].beta == single.beta
        assert ests[q].upsilon == single.upsilon
        assert ests[q].strip_table == single.strip_table


def test_sparse_fallback_matches_dense_tables(monkeypatch):
    # both count paths of the row reduce (bincount and sort) yield identical
    # sorted count arrays, so the rates must agree exactly, not just to
    # tolerance
    params = SystemParams(2, 0.5, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    args = (params, 0.3177, 0.13, 5, [2, 3], 8)
    monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_UNIT_ROW", 1 << 30)
    monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_ROW", 1 << 30)
    dense = conservation_estimates(*args)
    monkeypatch.setattr(gridmeasure, "_DENSE_CAP", 0)
    sparse = conservation_estimates(*args)
    for q in (2, 3):
        assert sparse[q].alpha == dense[q].alpha
        assert sparse[q].beta == dense[q].beta
        assert sparse[q].upsilon == dense[q].upsilon
        assert sparse[q].strip_table == dense[q].strip_table


@given(
    b=st.integers(2, 4),
    depth=st.integers(3, 7),
    count=st.integers(1, 400),
    sampled=st.booleans(),
    tile_rows=st.integers(1, 9),
    cpus=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_tile_map_matches_one_reduction_of_all_values(
    b, depth, count, sampled, tile_rows, cpus
):
    # the per-tile keys, strip rows and reductions give the bits of one
    # reduction over the concatenated unmapped values
    while b**depth > 600:
        depth -= 1
    p = SystemParams(b, 0.5, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    n = min(4, certified_level(p, depth))
    assume(n >= 2)
    kw = dict(mode="sampled", sample_count=count, seed=3) if sampled else {}
    args = (p, 0.37, 0.19, n, range(1, n), depth)

    def one_tile(spec, block_words, tile_map, threads):
        yield [tile_map(np.concatenate(list(fiber.fiber_value_chunks(spec))), 0)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "fiber_value_chunks", one_tile)
        whole = conservation_estimates(*args, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "_TILE_ROWS", tile_rows)
        mp.setattr(fiber, "_cpus", lambda: cpus)
        tiled = conservation_estimates(*args, **kw)
    for q in range(1, n):
        assert tiled[q].alpha == whole[q].alpha
        assert tiled[q].beta == whole[q].beta
        assert tiled[q].upsilon == whole[q].upsilon
        assert tiled[q].strip_table == whole[q].strip_table


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_conservation_memory_follows_the_keys():
    # one op at 3^15 sampled words in a fresh process on at most two CPUs:
    # peak resident memory at most 8 bytes per word (the planar keys) plus
    # 150 MB.  Every tile worker holds its own temporaries, so the peak
    # grows with the worker count, and the child pins two CPUs to make the
    # bound the same on any host.  The child reads its own high-water mark,
    # VmHWM: its ru_maxrss would also count the peak of this process, whose
    # memory it starts from before exec.
    words = 3**15
    code = textwrap.dedent(
        f"""
        import math
        import os
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
        from solenoidlab.params import SystemParams, TrigPoly
        from solenoidlab.projection import conservation_estimates
        p = SystemParams(3, 0.55, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
        conservation_estimates(
            p, 0.3177, 0.0816, 10, (4, 5, 6), 20,
            mode="sampled", sample_count={words}, seed=600,
        )
        with open("/proc/self/status") as f:
            print(next(ln.split()[1] for ln in f if ln.startswith("VmHWM:")))
        """
    )
    src = os.path.dirname(os.path.dirname(projection.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    peak = int(done.stdout.split()[-1]) * 1024  # VmHWM is in kB
    assert peak <= 8 * words + 150e6, f"peak {peak / 1e6:.0f} MB"


def test_strip_masses_sum_to_one():
    params = SystemParams(2, 0.5, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    est = conservation_estimate(params, 0.61, 0.13, 6, 2, 9)
    assert sum(m for _, m, _ in est.strip_table) == pytest.approx(1.0, abs=1e-12)
    assert est.residual == pytest.approx(est.alpha - est.beta - est.upsilon)


def test_sampled_estimator_reproducible():
    params = SystemParams(2, 0.5, math.sqrt(2) - 1, TrigPoly(0.0, (1.0,), ()))
    kw = dict(mode="sampled", sample_count=2000)
    a = conservation_estimate(params, 0.3, 0.1, 5, 2, 12, seed=5, **kw)
    b = conservation_estimate(params, 0.3, 0.1, 5, 2, 12, seed=5, **kw)
    c = conservation_estimate(params, 0.3, 0.1, 5, 2, 12, seed=6, **kw)
    assert a.alpha == b.alpha and a.beta == b.beta and a.upsilon == b.upsilon
    assert (a.alpha, a.beta, a.upsilon) != (c.alpha, c.beta, c.upsilon)


def test_conservation_validates_strip_levels():
    params = SystemParams(2, 0.5, 0.3, TrigPoly(0.0, (1.0,), ()))
    with pytest.raises(ValueError, match="0 < q < n"):
        conservation_estimate(params, 0.3, 0.1, 5, 5, 8)
    with pytest.raises(ValueError, match="0 < q < n"):
        conservation_estimate(params, 0.3, 0.1, 5, 0, 8)
    with pytest.raises(ValueError, match="empty strip-level"):
        conservation_estimates(params, 0.3, 0.1, 5, [], 8)


def test_conservation_rejects_unencodable_level():
    params = SystemParams(2, 0.5, 0.3, TrigPoly(0.0, (1.0,), ()))
    with pytest.raises(ValueError, match="too deep"):
        conservation_estimate(
            params, 0.3, 0.1, 40, 3, 45, mode="sampled", sample_count=100
        )


# ------------------------------------------------------- ConservationEstimate


def make_estimate(alpha, beta, upsilon, level=10):
    return ConservationEstimate(0.1, 0.2, level, 3, alpha, beta, upsilon, [])


def test_estimate_sanity_guards():
    with pytest.raises(ValueError, match="negative"):
        make_estimate(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError, match="projected rate"):
        make_estimate(1.5, 1.9, 0.5)
    with pytest.raises(ValueError, match="planar rate"):
        make_estimate(2.9, 0.5, 0.5)


def test_corollary_logic():
    # alpha well above beta + 1 while well below 2: the bound fails
    assert not make_estimate(1.5, 0.2, 0.5).corollary_consistent
    # alpha essentially full-dimensional: no contradiction
    assert make_estimate(1.95, 0.2, 0.5).corollary_consistent
    # alpha below beta + 1: premise never fires
    assert make_estimate(1.1, 0.2, 0.5).corollary_consistent


def test_sweep_result_properties_standalone():
    r = SweepResult([0.1, 0.2], [0.3, 0.4, 0.5], 4, np.array([[3.0, 1.0, 2.0], [4.0, 5.0, 6.0]]))
    assert r.min_rate == 1.0
    assert r.max_rate == 6.0
    assert r.beta_hat == 1.0
    assert r.argmin() == (0.1, 0.4)
