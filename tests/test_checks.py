"""Falsifier probes: condition (H), separation, transversality, atomlessness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.checks import (
    _continuation_margins,
    _min_pairwise_gap,
    condition_h_probe,
    exponential_separation_test,
    gamma_exception_scan,
    transversality_search,
)
from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab.rng import SplitMix64
from solenoidlab.words import enumerate_words, scale_hat, symbolic_sum

X_GRID = [(i + 0.5) / 17 for i in range(17)]


# --------------------------------------------------------------- condition (H)


def test_condition_h_flags_constant_drive(constant_system):
    # every branch sum is the same function of x, so pairs are inseparable
    report = condition_h_probe(constant_system, 100, 2, X_GRID)
    assert report.exhaustive
    assert report.pairs_checked == 4
    assert report.min_sup <= report.noise_floor
    assert report.fail_candidates
    assert report.verdict == "violation witness"


def test_condition_h_consistent_for_cosine(system_b2):
    report = condition_h_probe(system_b2, 100, 4, X_GRID)
    assert report.exhaustive
    assert report.min_sup > report.noise_floor
    assert not report.fail_candidates
    assert report.verdict == "consistent with (H)"
    w0, w1 = report.worst_pair
    assert len(w0) == len(w1) == 4
    assert w0[0] != w1[0]


def test_condition_h_sampled_path(system_b2):
    report = condition_h_probe(system_b2, 50, 9, X_GRID, seed=3)
    assert not report.exhaustive
    assert report.pairs_checked == 50
    w0, w1 = report.worst_pair
    assert w0[0] != w1[0]
    again = condition_h_probe(system_b2, 50, 9, X_GRID, seed=3)
    assert again.min_sup == report.min_sup
    other = condition_h_probe(system_b2, 50, 9, X_GRID, seed=4)
    assert other.min_sup != report.min_sup


def test_condition_h_theta_minima(system_b2):
    thetas = [0.0, 0.1, 0.25]
    report = condition_h_probe(system_b2, 100, 4, X_GRID, theta_grid=thetas)
    assert set(report.theta_minima) == set(thetas)
    for v in report.theta_minima.values():
        # a projected sup never exceeds the complex sup of the same pair
        assert 0.0 <= v <= report.min_sup + 1e-12


@pytest.mark.parametrize("b, depth", [(2, 4), (3, 3)])
def test_condition_h_exhaustive_matches_scalar_oracle(cos_poly, b, depth):
    params = SystemParams(b, 0.55, math.sqrt(2.0) - 1.0, cos_poly)
    xs = X_GRID[::3]
    report = condition_h_probe(params, 10**6, depth, xs, theta_grid=[0.0, 0.3])
    assert report.exhaustive
    words = enumerate_words(b, depth)
    sums = {w: np.array([symbolic_sum(params, x, w) for x in xs]) for w in words}
    cross = [(u, v) for k, u in enumerate(words) for v in words[k + 1 :] if u[0] != v[0]]
    assert report.pairs_checked == len(cross)
    sup = {pair: float(np.abs(sums[pair[0]] - sums[pair[1]]).max()) for pair in cross}
    assert report.min_sup == pytest.approx(min(sup.values()), abs=1e-12)
    assert sup[report.worst_pair] == pytest.approx(report.min_sup, abs=1e-12)
    for theta, got in report.theta_minima.items():
        phase = np.exp(-2j * np.pi * theta)
        want = min(np.abs(((sums[u] - sums[v]) * phase).real).max() for u, v in cross)
        assert got == pytest.approx(want, abs=1e-12)


def test_condition_h_sampled_theta_minima(system_b3):
    # the sampled pairs, redrawn from the probe's documented streams
    count, depth, seed, thetas = 40, 7, 5, [0.0, 0.15, 0.4]
    report = condition_h_probe(system_b3, count, depth, X_GRID, theta_grid=thetas, seed=seed)
    assert not report.exhaustive and report.pairs_checked == count
    stream = SplitMix64(seed, "condition-h.pairs")
    left = stream.derive("left").integers(0, count * depth, 3).reshape(count, depth)
    right = stream.derive("right").integers(0, count * depth, 3).reshape(count, depth)
    right[:, 0] = (left[:, 0] + 1 + stream.derive("shift").integers(0, count, 2)) % 3
    diffs = np.array(
        [
            [symbolic_sum(system_b3, x, u) - symbolic_sum(system_b3, x, v) for x in X_GRID]
            for u, v in zip(left, right)
        ]
    )
    sups = np.abs(diffs).max(axis=1)
    assert report.min_sup == pytest.approx(sups.min(), abs=1e-12)
    assert (tuple(left[sups.argmin()]), tuple(right[sups.argmin()])) == report.worst_pair
    assert list(report.theta_minima) == thetas
    for theta in thetas:
        phase = np.exp(-2j * np.pi * theta)
        want = np.abs((diffs * phase).real).max(axis=1).min()
        assert report.theta_minima[theta] == pytest.approx(want, abs=1e-12)


def test_condition_h_validation(system_b2):
    with pytest.raises(ValueError, match="depth"):
        condition_h_probe(system_b2, 10, 0, X_GRID)
    with pytest.raises(ValueError, match="empty x grid"):
        condition_h_probe(system_b2, 10, 3, [])
    for budget in (0, -1):
        with pytest.raises(ValueError, match="pair_budget must be >= 1"):
            condition_h_probe(system_b2, budget, 3, X_GRID)


# ------------------------------------------------------------- exception scan


def test_exception_scan_cosine_witness():
    cos = TrigPoly(0.0, (1.0,), ())
    report = gamma_exception_scan(2, cos, 1, 1, 0.3, 0.7, 0.05, n_r=16, n_theta=16)
    assert report.terms >= 1
    assert 0.0 <= report.certified_fraction <= 1.0
    # refinement keeps children inside parents, so the area cannot grow
    assert all(
        b <= a + 1e-12 for a, b in zip(report.area_history, report.area_history[1:])
    )
    for r_lo, r_hi, t_lo, t_hi in report.suspect_cells:
        assert 0.3 - 1e-12 <= r_lo < r_hi <= 0.7 + 1e-12
        assert 0.0 - 1e-12 <= t_lo < t_hi <= 1.0 + 1e-12


def test_exception_scan_bigger_rho_certifies_less():
    cos = TrigPoly(0.0, (1.0,), ())
    small = gamma_exception_scan(2, cos, 1, 1, 0.3, 0.7, 0.02, n_r=16, n_theta=16)
    large = gamma_exception_scan(2, cos, 1, 1, 0.3, 0.7, 0.3, n_r=16, n_theta=16)
    assert large.suspect_area >= small.suspect_area - 1e-12


def test_exception_scan_constant_drive_clears_nothing(constant_system):
    # the collision series vanishes identically; without a witness index the
    # scan runs and simply fails to certify anything
    report = gamma_exception_scan(
        2, constant_system.phi, 1, None, 0.3, 0.7, 0.05, n_r=4, n_theta=4, rounds=1
    )
    assert report.certified_fraction == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError, match="witness precondition"):
        gamma_exception_scan(2, constant_system.phi, 1, 1, 0.3, 0.7, 0.05)


def test_exception_scan_clears_cells_past_int64_powers():
    # r2 = 0.9 and rho = 1e-3 take 116 terms; 2^n passes int64 from n = 63,
    # where int64 powers wrapped to 0, the coefficients became NaN and no
    # cell was ever cleared
    cos = TrigPoly(0.0, (1.0,), ())
    report = gamma_exception_scan(2, cos, 0, None, 0.2, 0.9, 1e-3)
    assert report.terms > 63
    assert report.certified_fraction > 0


def test_exception_scan_base_4_past_int64_powers():
    # 4^n passes int64 from n = 32: the scan must finish without dividing
    # by a wrapped zero power (a RuntimeWarning is an error here)
    cos = TrigPoly(0.0, (1.0,), ())
    report = gamma_exception_scan(4, cos, 0, None, 0.2, 0.9, 1e-3)
    assert report.terms > 32
    # its suspect cells sum to an ulp above the annulus area
    assert 0.0 <= report.certified_fraction <= 1.0


def test_exception_scan_validation():
    cos = TrigPoly(0.0, (1.0,), ())
    with pytest.raises(ValueError, match="0 < r1 < r2 < 1"):
        gamma_exception_scan(2, cos, 1, 1, 0.7, 0.3, 0.05)
    with pytest.raises(ValueError, match="out of range"):
        gamma_exception_scan(2, cos, 1, 10**9, 0.3, 0.7, 0.05)


# ----------------------------------------------------------------- separation


def test_min_pairwise_gap_known_values():
    assert _min_pairwise_gap(np.array([0j, 3 + 4j, 10 + 0j])) == pytest.approx(5.0)
    assert _min_pairwise_gap(np.array([1 + 1j, 1 + 1j, 5 + 0j])) == 0.0
    assert _min_pairwise_gap(np.array([2 + 3j])) == math.inf
    # the nearest pair is two apart in real-part order, and its real gap is
    # just under the best distance between neighbours: the sweep must not stop
    assert _min_pairwise_gap(np.array([0j, 0.98 + 1j, 1 + 0j])) == 1.0


def _point_set(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(n) + 1j * rng.random(n)
    if kind == "equal-real":  # two vertical lines: the sweep never stops early
        return rng.integers(0, 2, n) / 3 + 1j * rng.random(n)
    if kind == "lattice":  # many pairs tie at the lattice spacing
        k = rng.permutation(n)
        return (k % 61) / 7 + 1j * (k // 61) / 7
    pts = rng.random(n // 2 + 1) + 1j * rng.random(n // 2 + 1)
    return pts[rng.integers(0, len(pts), n)]  # exact duplicates


@given(
    st.sampled_from(["random", "equal-real", "lattice", "duplicates"]),
    st.one_of(st.integers(0, 64), st.integers(4090, 4200), st.just(5000)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_min_pairwise_gap_sweep_matches_brute(kind, n, seed):
    pts = _point_set(kind, n, seed)
    assert _min_pairwise_gap(pts.copy()) == _brute_gap(pts)


def _brute_gap(pts: np.ndarray) -> float:
    n = len(pts)
    best = math.inf
    for lo in range(0, n, 512):
        d = np.abs(pts[lo : lo + 512, None] - pts[None, :])
        rows = np.arange(lo, min(lo + 512, n))
        d[rows - lo, rows] = math.inf
        best = min(best, float(d.min()))
    return best


def _line_or_cloud(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = rng.random(n)
    if kind == "vertical":  # one real part: only the imaginary axis separates
        return 0.25 + 1j * t
    if kind == "horizontal":
        return t + 0.75j
    if kind == "tall-cloud":  # wider along the imaginary axis, ties on both axes
        return rng.integers(0, 5, n) / 64 + 1j * np.round(t, 3)
    return rng.random(n) + 1j * t


@given(
    st.sampled_from(["vertical", "horizontal", "tall-cloud", "cloud"]),
    st.one_of(st.integers(0, 64), st.integers(4090, 4200)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_min_pairwise_gap_on_lines_matches_brute(kind, n, seed):
    pts = _line_or_cloud(kind, n, seed)
    assert _min_pairwise_gap(pts.copy()) == _brute_gap(pts)
    # the sweep does not depend on which of a pair comes first
    assert _min_pairwise_gap(pts[::-1].copy()) == _brute_gap(pts)


def test_min_pairwise_gap_sweeps_the_wider_axis(monkeypatch):
    # on one vertical line every real gap is 0, so a sweep in real-part
    # order would run all 4095 shifts; the imaginary order stops at once
    calls = []
    absolute = np.abs
    monkeypatch.setattr(np, "abs", lambda *a, **k: calls.append(1) or absolute(*a, **k))
    for pts in (_line_or_cloud("vertical", 4096, 3), _line_or_cloud("horizontal", 4096, 3)):
        calls.clear()
        assert _min_pairwise_gap(pts) > 0.0
        assert len(calls) <= 4


def test_separation_constant_drive_fails_everywhere(constant_system):
    cert = exponential_separation_test(
        constant_system, 0.3, (), 0.4, [2, 3, 4]
    )
    assert cert.passing_levels == []
    for row in cert.rows:
        assert row.min_gap <= 1e-12
        assert not row.passed


def test_separation_cosine_passes(system_b2):
    eps0 = 0.5**1.5
    x = math.sqrt(2) - 1
    cert = exponential_separation_test(system_b2, x, (), eps0, range(2, 7))
    assert [r.n for r in cert.rows] == [2, 3, 4, 5, 6]
    for row in cert.rows:
        assert row.nhat == scale_hat(system_b2, row.n)
        assert row.threshold == pytest.approx(math.sqrt(2) * eps0**row.nhat)
        assert row.points == 2**row.n
        assert not row.sampled
    assert cert.passing_levels == [2, 3, 4, 5]


def test_separation_suffix_shrinks_point_count(system_b2):
    cert = exponential_separation_test(system_b2, 0.3177, (1, 0), 0.35, [4, 5])
    assert [r.points for r in cert.rows] == [4, 8]
    with pytest.raises(ValueError, match="below the suffix length"):
        exponential_separation_test(system_b2, 0.3177, (1, 0), 0.35, [1])


def test_separation_sampling_gives_upper_bound(system_b2):
    full = exponential_separation_test(system_b2, 0.3177, (), 0.35, [8])
    sub = exponential_separation_test(
        system_b2, 0.3177, (), 0.35, [8], max_points=64, seed=2
    )
    assert not full.rows[0].sampled
    assert sub.rows[0].sampled
    assert sub.rows[0].points <= 64
    assert sub.rows[0].min_gap >= full.rows[0].min_gap - 1e-15


def test_separation_serialize(system_b2):
    cert = exponential_separation_test(system_b2, 0.3177, (), 0.35, [2, 3])
    text = cert.serialize()
    lines = text.strip().split("\n")
    assert lines[0] == "SEPCERT v1"
    assert len(lines) == 3
    assert all(line.endswith(("pass", "fail")) for line in lines[1:])


def test_separation_validation(system_b2):
    with pytest.raises(ValueError, match="eps0"):
        exponential_separation_test(system_b2, 0.3, (), 1.5, [2])


# ------------------------------------------------------------- transversality


def test_transversality_needs_varying_drive(zero_system, constant_system):
    assert transversality_search(zero_system, 2, 8, 4) is None
    assert transversality_search(constant_system, 2, 8, 4) is None


def test_transversality_witness_for_cosine(system_b2):
    witness = transversality_search(system_b2, 2, 8, 16)
    assert witness is not None
    assert len(witness.h) == len(witness.h_prime) == len(witness.a) == witness.t
    assert witness.h != witness.h_prime
    assert witness.a1_margin > 0 and witness.a2_margin > 0
    assert witness.xi1 == pytest.approx(min(witness.a1_margin, witness.a2_margin) / 2)
    assert witness.a3_lhs < witness.xi1 / 4
    text = witness.serialize()
    assert text.startswith(f"TRANSWIT v1 {witness.t} ")
    assert text.endswith("\n")


def test_transversality_verify_confirms_witness(system_b2):
    # the witness's margins stay positive on a 4x finer grid, with twice
    # the samples drawn from a fresh stream of continuations
    witness = transversality_search(system_b2, 2, 8, 16)
    a1, a2 = _continuation_margins(
        system_b2,
        witness.h,
        witness.h_prime,
        witness.a,
        4 * witness.grid,
        witness.sample_depth,
        2 * witness.samples,
        SplitMix64(1, "transversality.verify"),
    )
    assert a1 > 0 and a2 > 0
