"""Command-line orchestration: one subcommand per experiment.

Flags beat config values, which beat defaults.  The thread count (flag,
config or SOLENOID_THREADS) caps the workers that fill and bin fiber
tiles; unset or 0, every CPU of the process works.  Outputs are the
same bits on any thread count.
Every output file starts with a comment header carrying the config hash
and seed, and all randomness is derived from that single seed through
named sub-streams, so rerunning any experiment cannot perturb another.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .checks import (
    condition_h_probe,
    exponential_separation_test,
    transversality_search,
)
from .config import ConfigError, RunConfig, config_sha256, parse_config
from .dimension import (
    box_dimension,
    fiber_dimension,
    generate_attractor,
    predicted_fiber_dimension,
)
from .entropy import _porosity_sweep, _slope_window, conditional_entropy, entropy, entropy_profile
from .fiber import FiberMeasureSpec, build_fiber_measure, depth_for_resolution
from .gridmeasure import dump_measure
from .params import SystemParams
from .projection import (
    conservation_estimates,
    project_point,
    projection_entropy_sweep,
)
from .rng import SplitMix64, stream_seed
from .rotation import birkhoff_average, rotation_orbit
from .words import (
    cocycle_residual,
    difference_residual,
    scale_hat,
    scale_tilde,
    word_from_str,
    word_to_str,
)

__all__ = ["EXPERIMENTS", "main"]


def _header(cfg: RunConfig, experiment: str, seed: int) -> str:
    return f"# solenoidlab {experiment} config_sha256={config_sha256(cfg)} seed={seed}\n"


def _fiber_spec(
    cfg: RunConfig, seed: int, x: Optional[float] = None, n: Optional[int] = None,
    params: Optional[SystemParams] = None,
) -> FiberMeasureSpec:
    p = params if params is not None else cfg.params
    o = cfg.options
    x = o["x"] if x is None else x
    n = o["n"] if n is None else n
    depth = o["depth"] or depth_for_resolution(p, n)
    mode = o["mode"]
    if mode == "auto":
        mode = "exhaustive" if p.b**depth <= cfg.max_words else "sampled"
    return FiberMeasureSpec(
        p, x, depth, n, mode=mode, sample_count=o["sample_count"], seed=seed
    )


def _profile_alpha(profile) -> float:
    """Slope of the entropy profile over its slope window."""
    return profile.slope(_slope_window(profile.levels))


def _run_attractor(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    sub = stream_seed(seed, "attractor")
    pts = generate_attractor(
        cfg.params, o["cloud_count"], seed=sub, mode=o["cloud_mode"]
    )
    head = _header(cfg, "attractor", seed)
    lines = [head, "x,re_y,im_y\n"]
    lines.extend(
        f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}\n" for p in pts
    )
    (out / f"attractor-{seed}.csv").write_text("".join(lines))

    R = cfg.params.box_radius()
    px = o["density_pixels"]
    counts, _, _ = np.histogram2d(
        pts[:, 1], pts[:, 2], bins=px, range=[[-R, R], [-R, R]]
    )
    rows = [head, f"DENSITY v1 {px} {px}\n"]
    rows.extend(" ".join(str(int(c)) for c in row) + "\n" for row in counts)
    (out / f"attractor-{seed}.density").write_text("".join(rows))
    return f"points={len(pts)} box_radius={R}", True


def _run_dim_table(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    p0 = cfg.params
    rows = []
    worst = 0.0
    for i, g in enumerate(o["gamma_values"]):
        params = SystemParams(
            p0.b, float(g), p0.delta, p0.phi, delta_fraction=p0.delta_fraction
        )
        spec = _fiber_spec(cfg, stream_seed(seed, f"dim-table.{i}"), params=params)
        est = fiber_dimension(
            params,
            spec.x,
            spec.depth,
            spec.resolution,
            mode=spec.mode,
            sample_count=spec.sample_count,
            seed=spec.seed,
            threads=threads,
        )
        predicted, exact = predicted_fiber_dimension(params)
        method = f"entropy-slope-{spec.mode}" + ("" if exact else "-upper-bound")
        rows.append((float(g), params.delta, predicted, est.estimate, method))
        gap = est.estimate - predicted if exact else max(0.0, est.estimate - predicted)
        worst = max(worst, abs(gap))
    lines = [_header(cfg, "dim-table", seed), "gamma_abs,delta,predicted,estimated,method\n"]
    lines.extend(
        f"{float(g)!r},{float(d)!r},{float(p)!r},{float(e)!r},{m}\n"
        for (g, d, p, e, m) in rows
    )
    (out / f"dim-table-{seed}.csv").write_text("".join(lines))
    return f"rows={len(rows)} max_gap={worst:.4f}", True


def _run_fiber_entropy(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    spec = _fiber_spec(cfg, stream_seed(seed, "fiber-entropy"))
    mu = build_fiber_measure(spec, threads=threads)
    profile = entropy_profile(mu, range(1, o["n"] + 1))
    lines = [_header(cfg, "fiber-entropy", seed), "level,entropy,normalized\n"]
    for lv, h, nh in zip(profile.levels, profile.entropies, profile.normalized):
        lines.append(f"{lv},{float(h)!r},{float(nh)!r}\n")
    (out / f"fiber-entropy-{seed}.csv").write_text("".join(lines))
    (out / f"fiber-entropy-{seed}.measure").write_text(
        _header(cfg, "fiber-entropy", seed) + dump_measure(mu)
    )
    return f"alpha_hat={_profile_alpha(profile):.6f} cells={mu.ncells}", True


def _run_porosity(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    deepest = o["i_max"] - 1 + o["porosity_m"]
    if deepest > o["n"]:
        raise ConfigError(
            f"the components need level i_max - 1 + porosity_m = {deepest}, "
            f"finer than n = {o['n']}: lower i_max or porosity_m, or raise n"
        )
    spec = _fiber_spec(cfg, stream_seed(seed, "porosity"))
    mu = build_fiber_measure(spec, threads=threads)
    h = o["porosity_h"]
    if h < 0:
        h = _profile_alpha(entropy_profile(mu, range(1, o["n"] + 1)))
    sweep, report = _porosity_sweep(
        mu, h, o["porosity_delta"], o["porosity_m"], o["i_min"], o["i_max"]
    )
    lines = [_header(cfg, "porosity", seed), "i,cell,component_entropy,mass\n"]
    for lv, cell, val, mass in sweep.rows:
        tag = ":".join(str(int(c)) for c in cell)
        lines.append(f"{lv},{tag},{float(val)!r},{float(mass)!r}\n")
    (out / f"porosity-{seed}.csv").write_text("".join(lines))
    return (
        f"verdict={str(report.verdict).lower()} fraction={report.fraction_below:.4f} "
        f"threshold={report.threshold:.4f}"
    ), True


def _run_projection_sweep(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    xg = [(i + 0.5) / o["nx"] for i in range(o["nx"])]
    tg = [j / o["ntheta"] for j in range(o["ntheta"])]
    spec = _fiber_spec(cfg, stream_seed(seed, "projection-sweep"))
    sweep = projection_entropy_sweep(
        cfg.params,
        xg,
        tg,
        o["n"],
        spec.depth,
        mode=spec.mode,
        sample_count=spec.sample_count,
        seed=spec.seed,
        threads=threads,
    )
    lines = [_header(cfg, "projection-sweep", seed), "x,theta,level,normalized_entropy\n"]
    for i, x in enumerate(sweep.x_grid):
        for j, t in enumerate(sweep.theta_grid):
            lines.append(
                f"{float(x)!r},{float(t)!r},{sweep.level},{float(sweep.matrix[i, j])!r}\n"
            )
    (out / f"projection-sweep-{seed}.csv").write_text("".join(lines))
    spread = sweep.max_rate - sweep.min_rate
    return f"min={sweep.min_rate:.4f} spread={spread:.4f}", True


def _run_conservation(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    sub = SplitMix64(stream_seed(seed, "conservation"), "pairs")
    npairs = o["pairs"]
    xs = sub.derive("x").uniform(0, npairs)
    thetas = sub.derive("theta").uniform(0, npairs)
    qs = sorted(set(o["q_values"]) | {o["q"]})
    spec = _fiber_spec(cfg, 0)
    rows = []
    qmeans: dict[int, float] = {q: 0.0 for q in qs}
    for k in range(npairs):
        ests = conservation_estimates(
            cfg.params,
            float(xs[k]),
            float(thetas[k]),
            o["n"],
            qs,
            spec.depth,
            mode=spec.mode,
            sample_count=spec.sample_count,
            seed=stream_seed(seed, f"conservation.{k}"),
            threads=threads,
        )
        rows.append(ests[o["q"]])
        for q in qs:
            qmeans[q] += ests[q].upsilon / npairs
    lines = [_header(cfg, "conservation", seed), "x,theta,alpha,beta,upsilon,residual\n"]
    for est in rows:
        lines.append(
            f"{float(est.x)!r},{float(est.theta)!r},{float(est.alpha)!r},"
            f"{float(est.beta)!r},{float(est.upsilon)!r},{float(est.residual)!r}\n"
        )
    (out / f"conservation-{seed}.csv").write_text("".join(lines))
    qlines = [_header(cfg, "conservation", seed), "q,upsilon_mean\n"]
    qlines.extend(f"{q},{float(qmeans[q])!r}\n" for q in qs)
    (out / f"conservation-q-{seed}.csv").write_text("".join(qlines))
    mean_res = sum(e.residual for e in rows) / len(rows)
    fired = any(not e.corollary_consistent for e in rows)
    return (
        f"mean_residual={mean_res:.4f} corollary_fired={str(fired).lower()}"
    ), not fired


def _run_condition_h(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    xg = [(i + 0.5) / 33 for i in range(33)]
    report = condition_h_probe(
        cfg.params,
        o["pair_budget"],
        o["probe_depth"],
        xg,
        seed=stream_seed(seed, "condition-h"),
    )
    lines = [
        _header(cfg, "condition-h", seed),
        f"verdict: {report.verdict}\n",
        f"depth: {report.depth}\n",
        f"exhaustive: {report.exhaustive}\n",
        f"pairs_checked: {report.pairs_checked}\n",
        f"min_sup: {report.min_sup!r}\n",
        f"noise_floor: {report.noise_floor!r}\n",
        f"worst_pair: {' '.join(word_to_str(w) for w in report.worst_pair)}\n",
        f"fail_candidates: {len(report.fail_candidates)}\n",
    ]
    (out / f"condition-h-{seed}.txt").write_text("".join(lines))
    return f"verdict={report.verdict!r} min_sup={report.min_sup:.6g}", True


def _run_separation(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    suffix = word_from_str(o["suffix"]) if o["suffix"] else ()
    eps0 = cfg.params.gamma_abs ** (o["eps_exponent"] / 2.0)
    cert = exponential_separation_test(
        cfg.params,
        o["x"],
        suffix,
        eps0,
        o["levels"],
        max_points=cfg.max_points,
        seed=stream_seed(seed, "separation"),
    )
    (out / f"separation-{seed}.sepcert").write_text(
        _header(cfg, "separation", seed) + cert.serialize()
    )
    return f"passing={len(cert.passing_levels)}/{len(cert.rows)} eps0={eps0:.6g}", True


def _run_transversality(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    witness = transversality_search(
        cfg.params,
        o["t_min"],
        o["sample_depth"],
        o["z_grid"],
        seed=stream_seed(seed, "transversality"),
    )
    body = witness.serialize() if witness else "none found\n"
    (out / f"transversality-{seed}.transwit").write_text(
        _header(cfg, "transversality", seed) + body
    )
    if witness is None:
        return "none-found", True
    return f"t={witness.t} xi1={witness.xi1:.6g}", True


def _run_rotation(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    o = cfg.options
    p = cfg.params
    orbit = rotation_orbit(p.delta, o["theta0"], o["orbit_length"], p.delta_fraction)
    report = birkhoff_average(p, o["ell"], o["theta0"], o["k_max"], threads=threads)
    lines = [_header(cfg, "rotation", seed), "k,partial_average,integral,gap\n"]
    for k, avg, integral, gap in report.rows():
        lines.append(f"{int(k)},{float(avg)!r},{float(integral)!r},{float(gap)!r}\n")
    (out / f"rotation-{seed}.csv").write_text("".join(lines))
    return (
        f"discrepancy={orbit.discrepancy:.6g} final_gap={report.gaps[-1]:.6g}"
    ), True


def _run_verify_suite(cfg: RunConfig, out: Path, threads: Optional[int], seed: int):
    p = cfg.params
    checks: list[tuple[str, bool, str]] = []
    rng = SplitMix64(stream_seed(seed, "verify-suite"), "draws")

    def draw_word(stream, length):
        return tuple(int(v) for v in stream.integers(0, length, p.b))

    worst = 0.0
    for k in range(50):
        s = rng.derive(f"cocycle{k}")
        x = float(s.uniform(0, 1)[0])
        w = draw_word(s.derive("w"), 1 + k % 5)
        i = draw_word(s.derive("i"), 1 + (k // 5) % 5)
        worst = max(worst, cocycle_residual(p, x, w, i))
    checks.append(("cocycle-residual", worst < 1e-10, f"max={worst:.3e}"))

    worst = 0.0
    for k in range(50):
        s = rng.derive(f"difference{k}")
        x = float(s.uniform(0, 1)[0])
        w = draw_word(s.derive("w"), 2 + k % 4)
        i = draw_word(s.derive("i"), 1 + k % 3)
        j = draw_word(s.derive("j"), 1 + (k + 1) % 3)
        worst = max(worst, difference_residual(p, x, w, i, j))
    checks.append(("difference-residual", worst < 1e-10, f"max={worst:.3e}"))

    worst = 0.0
    for z, theta in zip(
        rng.derive("rotz").uniform(0, 20) + 1j * rng.derive("rotz2").uniform(0, 20),
        rng.derive("rott").uniform(0, 20),
    ):
        lhs = project_point(p.gamma * z, theta)
        rhs = p.gamma_abs * project_point(z, theta - p.delta)
        worst = max(worst, abs(lhs - rhs))
    checks.append(("rotation-identity", worst < 1e-12, f"max={worst:.3e}"))

    ok = True
    for n in range(1, 21):
        nh, nt = scale_hat(p, n), scale_tilde(p, n)
        if p.gamma_abs**nh > p.b ** (-n) or (nh > 1 and p.gamma_abs ** (nh - 1) <= p.b ** (-n)):
            ok = False
        if not (p.b ** (-nt) <= p.gamma_abs**n < p.b ** (-(nt - 1))):
            ok = False
    checks.append(("scale-conversions", ok, "n=1..20"))

    level = min(8, cfg.options["n"])
    spec = _fiber_spec(cfg, stream_seed(seed, "verify-suite.fiber"), n=level)
    mu = build_fiber_measure(spec, threads=threads)
    prof = entropy_profile(mu, range(1, level + 1))
    alpha = _profile_alpha(prof)
    fine, coarse = level, max(1, level // 2)
    chain_gap = abs(
        entropy(mu, fine) - entropy(mu, coarse) - conditional_entropy(mu, fine, coarse)
    )
    checks.append(("chain-rule", chain_gap < 1e-9, f"gap={chain_gap:.3e}"))

    one, two = (build_fiber_measure(spec, threads=t) for t in (1, 2))
    same = one.equals(two) and one.boundary_ambiguous == two.boundary_ambiguous
    checks.append(("thread-determinism", same, "threads 1 vs 2"))

    cloud = generate_attractor(
        p, 20000, seed=stream_seed(seed, "verify-suite.cloud"), mode="orbit"
    )
    # a surface fills b^(2l) boxes at level l; fit six levels up to the finest
    # l with b^(2l) <= the cloud size (box_dimension drops saturated levels)
    top = 1
    while p.b ** (2 * top + 2) <= len(cloud):
        top += 1
    box = box_dimension(cloud, p.b, range(max(1, top - 5), top + 1))
    dim = box.slope
    checks.append(
        ("box-slope-range", 0.5 <= dim <= 3.001, f"dim={dim:.3f}")
    )

    lines = [_header(cfg, "verify-suite", seed)]
    all_ok = True
    for name, good, detail in checks:
        all_ok &= good
        lines.append(f"{'ok  ' if good else 'FAIL'} {name} {detail}\n")
    (out / f"verify-suite-{seed}.txt").write_text("".join(lines))
    # +0.0 turns a negative zero from the slope fit into plain 0.000
    return f"alpha={alpha + 0.0:.3f} dim={dim + 0.0:.3f}", all_ok


RUNNERS: dict[str, Callable] = {
    "attractor": _run_attractor,
    "dim-table": _run_dim_table,
    "fiber-entropy": _run_fiber_entropy,
    "porosity": _run_porosity,
    "projection-sweep": _run_projection_sweep,
    "conservation": _run_conservation,
    "condition-h": _run_condition_h,
    "separation": _run_separation,
    "transversality": _run_transversality,
    "rotation": _run_rotation,
    "verify-suite": _run_verify_suite,
}

EXPERIMENTS = tuple(RUNNERS)


def _resolve_threads(cli_value: Optional[int], cfg: RunConfig) -> Optional[int]:
    """Worker cap from flag, config or SOLENOID_THREADS; None (every CPU) if unset."""
    if cli_value:
        return cli_value
    if cfg.thread_count:
        return cfg.thread_count
    env = os.environ.get("SOLENOID_THREADS", "")
    try:
        if env and int(env) > 0:
            return int(env)
    except ValueError:
        pass
    return None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="solenoidlab",
        description="Numerical laboratory for a complex-contracting skew product over x -> bx mod 1.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, help="key = value configuration file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument(
        "--threads", type=int,
        help="worker cap for fiber builds (SOLENOID_THREADS fallback; default every CPU)",
    )
    parser.add_argument("--out", type=Path, help="output directory (overrides config)")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 0:
        print("solenoidlab: --threads cannot be negative", file=sys.stderr)
        return 2

    try:
        text = args.config.read_text() if args.config else ""
    except OSError as exc:
        print(f"solenoidlab: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"solenoidlab: {exc}", file=sys.stderr)
        return 2
    for warning in cfg.warnings:
        print(f"solenoidlab: warning: {warning}", file=sys.stderr)

    if cfg.experiment and cfg.experiment != args.experiment:
        print(
            f"solenoidlab: note: config names experiment {cfg.experiment!r}; "
            f"running {args.experiment!r} from the command line",
            file=sys.stderr,
        )
    cfg.experiment = args.experiment
    seed = args.seed if args.seed is not None else cfg.seed
    threads = _resolve_threads(args.threads, cfg)
    out = args.out if args.out is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        headline, ok = RUNNERS[args.experiment](cfg, out, threads, seed)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"solenoidlab: {args.experiment}: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print(f"solenoidlab: {args.experiment}: internal contract failed", file=sys.stderr)
        print(f"{args.experiment} FAIL {headline}")
        return 1
    print(f"{args.experiment} OK {headline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
