"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Every check prints its verdict before asserting, so the tee'd pytest log
always carries the full scoreboard even when a later assert trips.  The
quantitative targets and runtime ceilings are the package's published
contract; seeds are frozen so reruns are bit-for-bit comparable.
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np

from solenoidlab.checks import condition_h_probe, exponential_separation_test
from solenoidlab.cli import main
from solenoidlab.dimension import (
    box_dimension,
    fiber_dimension,
    generate_attractor,
    lyapunov_crosscheck,
    predicted_fiber_dimension,
)
from solenoidlab.entropy import (
    binary_entropy,
    conditional_entropy,
    entropy,
    entropy_growth_experiment,
    mix_measures,
    porosity_check,
)
from solenoidlab.fiber import (
    FiberMeasureSpec,
    build_fiber_measure,
    certified_level,
    map_fiber_tiles,
)
from solenoidlab.gridmeasure import (
    _bin_points,
    _reduce_cells,
    measure_from_cells,
    measure_from_points,
)
from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab.projection import (
    conservation_estimate,
    conservation_estimates,
    projection_entropy_sweep,
)
from solenoidlab.rng import SplitMix64
from solenoidlab.rotation import birkhoff_average, rotation_orbit
from solenoidlab.words import (
    cocycle_residual,
    difference_residual,
    symbolic_sum,
    word_address,
    word_from_index,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
COS = TrigPoly(0.0, (1.0,), ())
P2 = SystemParams(2, 0.5, SQRT2M1, COS)
P3 = SystemParams(3, 0.55, SQRT2M1, COS)
X_GRID = [(i + 0.5) / 17 for i in range(17)]


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(
        f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}",
        file=sys.__stdout__,
        flush=True,
    )
    return ok


def _random_word(s: SplitMix64, counter: int, b: int, length: int) -> tuple:
    return word_from_index(int(s.integers(counter, 1, b**length)[0]), b, length)


def test_01_branch_sum_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (2, 3, 5):
        s = SplitMix64(11, f"acceptance.identities.b{b}")
        gammas = 0.3 + 0.6 * s.derive("gamma").uniform(0, 1000)
        deltas = s.derive("delta").uniform(0, 1000)
        amps = 2.0 * s.derive("amp").uniform(0, 1000) - 1.0
        xs = s.derive("x").uniform(0, 1000)
        lens = s.derive("len").integers(0, 3000, 4) + 1
        widx = s.derive("words")
        for k in range(1000):
            p = SystemParams(
                b, float(gammas[k]), float(deltas[k]), TrigPoly(0.0, (float(amps[k]),), ())
            )
            x = float(xs[k])
            w = _random_word(widx, 3 * k, b, int(lens[3 * k]))
            i = _random_word(widx, 3 * k + 1, b, int(lens[3 * k + 1]))
            j = _random_word(widx, 3 * k + 2, b, int(lens[3 * k + 1]))
            worst = max(
                worst,
                cocycle_residual(p, x, w, i),
                difference_residual(p, x, w, i, j),
            )

    # the cocycle S(x, w + i) = S(x, w) + gamma^k S(w(x), i) on real data:
    # each child's raw sums, pushed forward by y -> S(x, w) + gamma^k y, are
    # the direct build's sums over w's leaf range [idx(w) b^N, (idx(w)+1) b^N),
    # and binned they fill the direct build's cells, but for points the
    # boundary tally counts
    s = SplitMix64(12, "acceptance.refine")
    cocycle_ok = 0
    trials = 20
    for k in range(trials):
        b = (2, 3)[k % 2]
        gamma_abs = 0.35 + 0.25 * float(s.uniform(2 * k, 1)[0])
        p = SystemParams(b, gamma_abs, SQRT2M1, COS)
        n_words = k % 3 + 1
        child_depth = 7 if b == 2 else 5
        child_level = certified_level(p, child_depth)
        target = min(2, child_level)
        x = float(s.uniform(2 * k + 1, 1)[0])
        spec = FiberMeasureSpec(p, x, child_depth + n_words, target)
        direct_sums = _raw_sums(spec)
        leaves = b**child_depth
        pushed = np.empty_like(direct_sums)
        for idx in range(b**n_words):
            w = word_from_index(idx, b, n_words)
            child = _raw_sums(
                FiberMeasureSpec(p, word_address(p, x, w), child_depth, child_level)
            )
            pushed[idx * leaves : (idx + 1) * leaves] = (
                symbolic_sum(p, x, w) + p.gamma**n_words * child
            )
        gap = float(np.abs(pushed - direct_sums).max())
        direct = build_fiber_measure(spec)
        rows, _ = _bin_points(pushed, b, target)
        table = _reduce_cells(rows)
        binned = dict(zip(map(tuple, table.rows().tolist()), table.weights.tolist()))
        want = direct.cells()
        moved = sum(abs(binned.get(c, 0) - want.get(c, 0)) for c in binned.keys() | want)
        if gap < 1e-10 and moved <= 2 * direct.boundary_ambiguous:
            cocycle_ok += 1

    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and cocycle_ok == trials and dt < 30.0
    assert _verdict(
        1,
        "exact identities",
        ok,
        f"max_residual={worst:.2e} cocycle={cocycle_ok}/{trials} ({dt:.1f}s)",
    )
    assert worst < 1e-10
    assert cocycle_ok == trials
    assert dt < 30.0


def _raw_sums(spec: FiberMeasureSpec) -> np.ndarray:
    """The branch sums map_fiber_tiles hands out, placed in word-list order."""
    out = np.empty(spec.total_words, dtype=np.complex128)

    def fold(tile):
        row0, values = tile
        out[row0 : row0 + len(values)] = values

    map_fiber_tiles(spec, lambda values, row0: (row0, values), fold)
    return out


def _random_measure(s: SplitMix64, counter: int, base: int, level: int, cells: int):
    side = base**level
    ii = s.integers(counter, cells, 2 * side) - side
    jj = s.integers(counter + 1, cells, 2 * side) - side
    ww = s.integers(counter + 2, cells, 9) + 1
    table = {}
    for a, b_, w in zip(ii, jj, ww):
        key = (int(a), int(b_))
        table[key] = table.get(key, 0) + int(w)
    return measure_from_cells(base, 2, level, table)


def test_02_entropy_property_suite():
    t0 = time.perf_counter()
    s = SplitMix64(21, "acceptance.entropy")
    base = 2

    sandwich_bad = 0
    for k in range(200):
        mu = _random_measure(s, 10 * k, base, 4, 20)
        nu = _random_measure(s, 10 * k + 5, base, 4, 20)
        p_num = k % 6 + 1
        mix = mix_measures(mu, nu, p_num, 7)
        t = p_num / 7
        for n in (2, 4):
            lhs = t * entropy(mu, n) + (1 - t) * entropy(nu, n)
            mid = entropy(mix, n)
            if not (lhs <= mid + 1e-9 and mid <= lhs + binary_entropy(t, base) + 1e-9):
                sandwich_bad += 1

    affine_bad = 0
    for k in range(50):
        mu = _random_measure(s, 3000 + 10 * k, base, 5, 25)
        power = k % 2 + 1
        shift = tuple(int(v) for v in s.integers(3005 + 10 * k, 2, 64) - 32)
        moved = mu.affine_badic(power, shift)
        if entropy(moved, 5 - power) != entropy(mu, 5):
            affine_bad += 1

    close_bad = 0
    cd_bound = math.log(9.0, base)
    n = 5
    cell = float(base) ** -n
    for k in range(200):
        cs = s.derive(f"close.{k}")
        pts = np.column_stack((cs.uniform(0, 500), cs.uniform(500, 500)))
        mu = measure_from_points(pts, base, n)
        dx = (2.0 * cs.uniform(1000, 500) - 1.0) * 0.999 * cell
        dy = (2.0 * cs.uniform(1500, 500) - 1.0) * 0.999 * cell
        nu = measure_from_points(pts + np.column_stack((dx, dy)), base, n)
        if abs(entropy(mu, n) - entropy(nu, n)) > cd_bound + 1e-9:
            close_bad += 1

    chain_bad = 0
    for k in range(50):
        mu = _random_measure(s, 8000 + 10 * k, base, 5, 30)
        for coarse in (1, 2, 3, 4):
            expected = entropy(mu, 5) - entropy(mu, coarse)
            if abs(conditional_entropy(mu, 5, coarse) - expected) > 1e-9:
                chain_bad += 1

    dt = time.perf_counter() - t0
    ok = sandwich_bad == affine_bad == close_bad == chain_bad == 0 and dt < 60.0
    assert _verdict(
        2,
        "entropy property suite",
        ok,
        f"sandwich_bad={sandwich_bad} affine_bad={affine_bad} "
        f"close_bad={close_bad} chain_bad={chain_bad} ({dt:.1f}s)",
    )
    assert ok


def test_03_degenerate_systems_ground_truth():
    t0 = time.perf_counter()
    zero = SystemParams(2, 0.5, SQRT2M1, TrigPoly(0.0, (), ()))
    const = SystemParams(2, 0.5, SQRT2M1, TrigPoly(0.7, (), ()))
    details = []
    ok = True
    for name, sysm in (("zero", zero), ("const", const)):
        alpha = fiber_dimension(sysm, 0.437, 20, 8).estimate
        cloud = generate_attractor(sysm, 1 << 15, seed=5)
        slope = box_dimension(cloud, 2, range(4, 11)).slope
        sweep = projection_entropy_sweep(
            sysm, [0.3, 0.7], [0.0, 0.17, 0.25], 6, 12
        )
        flat = bool(np.all(sweep.matrix == 0.0))
        verdict = condition_h_probe(sysm, 100, 2, X_GRID).verdict
        part_ok = (
            alpha == 0.0
            and abs(slope - 1.0) <= 0.05
            and flat
            and verdict == "violation witness"
        )
        ok = ok and part_ok
        details.append(f"{name}: alpha={alpha} slope={slope:.4f} proj_flat={flat}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert _verdict(3, "degenerate ground truth", ok, "; ".join(details) + f" ({dt:.1f}s)")
    assert ok


@lru_cache(maxsize=1)
def _criterion4_alpha() -> float:
    return fiber_dimension(P2, SQRT2M1, 13, 12).estimate


@lru_cache(maxsize=1)
def _criterion4_measure():
    return build_fiber_measure(FiberMeasureSpec(P2, SQRT2M1, 13, 12))


def test_04_dichotomy_desk_check_b2():
    t0 = time.perf_counter()
    probe = condition_h_probe(P2, 100, 4, X_GRID)
    cert = exponential_separation_test(P2, SQRT2M1, (), 0.5**1.5, range(2, 7))
    passed_levels = [row.n for row in cert.rows if row.passed]
    alpha = _criterion4_alpha()
    predicted, exact = predicted_fiber_dimension(P2)
    dt = time.perf_counter() - t0
    ok = (
        probe.verdict == "consistent with (H)"
        and len(passed_levels) >= 3
        and 0.85 <= alpha <= 1.15
        and dt < 300.0
    )
    assert _verdict(
        4,
        "dichotomy desk check b=2",
        ok,
        f"probe={probe.verdict!r} separation_levels={passed_levels} "
        f"alpha_hat={alpha:.4f} predicted={predicted:.1f} ({dt:.1f}s)",
    )
    assert ok


def test_05_dichotomy_desk_check_b3():
    t0 = time.perf_counter()
    fd = fiber_dimension(
        P3, 0.3177, 20, 10, mode="sampled", sample_count=1 << 20, seed=11
    )
    predicted, _ = predicted_fiber_dimension(P3)
    cloud = generate_attractor(P3, 1 << 20, seed=12)
    box = box_dimension(cloud, 3, range(2, 8))
    gap = lyapunov_crosscheck(box.slope, fd.estimate)
    dt = time.perf_counter() - t0
    ok = abs(fd.estimate - predicted) <= 0.15 and gap <= 0.3 and dt < 600.0
    assert _verdict(
        5,
        "dichotomy desk check b=3",
        ok,
        f"alpha_hat={fd.estimate:.4f} predicted={predicted:.4f} "
        f"boxdim={box.slope:.4f} ly_gap={gap:.4f} ({dt:.1f}s)",
    )
    assert ok


def test_06_dimension_conservation():
    t0 = time.perf_counter()
    pairs = [
        (0.3177, 0.0816),
        (0.6130, 0.2214),
        (0.2137, 0.4670),
        (0.8522, 0.1093),
        (0.4471, 0.3308),
        (0.0913, 0.2531),
        (0.7406, 0.0377),
        (0.5689, 0.4152),
    ]
    qs = (4, 5, 6)
    residuals = []
    upsilon_mean = dict.fromkeys(qs, 0.0)
    fired = False
    for k, (x, theta) in enumerate(pairs):
        ests = conservation_estimates(
            P3, x, theta, 10, qs, 20, mode="sampled", sample_count=3**17, seed=600 + k
        )
        residuals.append(ests[5].residual)
        for q in qs:
            upsilon_mean[q] += ests[q].upsilon / len(pairs)
            fired = fired or not ests[q].corollary_consistent
    # cheap sanity systems: the corollary must stay silent on these too
    for est in (
        conservation_estimate(P2, 0.3177, 0.13, 5, 2, 10),
        conservation_estimate(SystemParams(2, 0.5, SQRT2M1, TrigPoly(0.0, (), ())), 0.5, 0.0, 4, 2, 8),
    ):
        fired = fired or not est.corollary_consistent
    mean_resid = sum(residuals) / len(residuals)
    trend_down = upsilon_mean[4] > upsilon_mean[5] > upsilon_mean[6]
    dt = time.perf_counter() - t0
    ok = abs(mean_resid) <= 0.2 and trend_down and not fired and dt < 600.0
    assert _verdict(
        6,
        "dimension conservation",
        ok,
        f"mean_residual={mean_resid:+.4f} upsilon(q)="
        + "/".join(f"{upsilon_mean[q]:.4f}" for q in qs)
        + f" corollary_fired={fired} ({dt:.1f}s)",
    )
    assert ok


def test_07_projection_entropy_uniformity():
    t0 = time.perf_counter()
    xs = [(i + 0.5) / 16 for i in range(16)]
    thetas = [(j + 0.5) / 32 for j in range(32)]
    sweep = projection_entropy_sweep(
        P3, xs, thetas, 10, 20, mode="sampled", sample_count=1 << 20, seed=404
    )
    spread = sweep.max_rate - sweep.min_rate
    dt = time.perf_counter() - t0
    ok = spread <= 0.25 and dt < 600.0
    assert _verdict(
        7,
        "projection entropy uniformity",
        ok,
        f"min={sweep.min_rate:.4f} max={sweep.max_rate:.4f} spread={spread:.4f} ({dt:.1f}s)",
    )
    assert ok


def test_08_porosity():
    t0 = time.perf_counter()
    report = porosity_check(_criterion4_measure(), _criterion4_alpha(), 0.2, 4, 1, 8)
    dt = time.perf_counter() - t0
    ok = report.verdict and dt < 120.0
    assert _verdict(
        8,
        "porosity",
        ok,
        f"verdict={report.verdict} fraction_below={report.fraction_below:.4f} "
        f"threshold={report.threshold:.4f} ({dt:.1f}s)",
    )
    assert ok


def test_09_entropy_growth():
    t0 = time.perf_counter()
    fiber = _criterion4_measure()
    self_gain = entropy_growth_experiment(fiber, fiber, 10).gain
    point = measure_from_cells(2, 2, 12, {(137, -254): 1}, box_radius=2)
    point_gain = entropy_growth_experiment(point, fiber, 10).gain
    dt = time.perf_counter() - t0
    ok = self_gain >= 0.02 and abs(point_gain) <= 2 / 10 and dt < 120.0
    assert _verdict(
        9,
        "entropy growth",
        ok,
        f"self_gain={self_gain:.4f} point_gain={point_gain:+.4f} ({dt:.1f}s)",
    )
    assert ok


def test_10_rotation_ergodics():
    t0 = time.perf_counter()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    disc = rotation_orbit(golden, 0.0, 100_000).discrepancy
    half = rotation_orbit(0.5, 0.1, 12, delta_fraction=(1, 2))
    periodic = bool(
        np.array_equal(half.points[::2], np.full(6, half.points[0]))
        and np.array_equal(half.points[1::2], np.full(6, half.points[1]))
    )
    rep = birkhoff_average(P2, 2, 0.05, 256, quad_points=256)
    gap16, gap256 = rep.gaps[15], rep.gaps[255]
    dt = time.perf_counter() - t0
    ok = disc < 5e-4 and periodic and gap256 < gap16 and dt < 120.0
    assert _verdict(
        10,
        "rotation ergodics",
        ok,
        f"golden_disc={disc:.2e} half_periodic={periodic} "
        f"gap16={gap16:.5f} gap256={gap256:.5f} ({dt:.1f}s)",
    )
    assert ok


def test_11_thread_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[system]\n"
        "b = 3\n"
        "gamma_abs = 0.55\n"
        "delta_kind = irrational(sqrt2-1)\n"
        "[experiment]\n"
        "n = 10\n"
        "mode = sampled\n"
    )
    outs = {}
    summaries = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        out.mkdir()
        code = main(
            [
                "fiber-entropy",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--threads",
                str(threads),
                "--seed",
                "42",
            ]
        )
        assert code == 0
        outs[threads] = out
        summaries[threads] = capsys.readouterr().out
    same_measure = (
        (outs[1] / "fiber-entropy-42.measure").read_bytes()
        == (outs[4] / "fiber-entropy-42.measure").read_bytes()
    )
    same_csv = (
        (outs[1] / "fiber-entropy-42.csv").read_bytes()
        == (outs[4] / "fiber-entropy-42.csv").read_bytes()
    )
    alphas = []
    for threads in (1, 4):
        for token in summaries[threads].split():
            if token.startswith("alpha_hat="):
                alphas.append(float(token.split("=")[1]))
    summary_close = len(alphas) == 2 and abs(alphas[0] - alphas[1]) <= 1e-9
    ok = same_measure and same_csv and summary_close
    assert _verdict(
        11,
        "thread determinism",
        ok,
        f"measure_identical={same_measure} csv_identical={same_csv} "
        f"alpha_hats={alphas}",
    )
    assert ok
