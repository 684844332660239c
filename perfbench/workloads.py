"""The benchmark's four workloads: inputs, operations and output checks.

Each workload is a scaled-down copy of one slow acceptance path.  A
*solution* is one pass over the workload's operations; the benchmark
times solutions, checks every output, and counts an operation as failed
when it raises or when one of its checks fails.

Inputs are derived from the benchmark seed with the standard library's
``random.Random``, so the program only ever sees the generated numbers.

Checks come in two kinds.  Most (mass totals, finite and non-negative
rates, the corollary flag, the sweep spread) hold at every size.  The
estimator checks (upsilon falling over the q range, alpha-hat near the
prediction, the Lyapunov gap) are statistical and hold only at the
benchmark sizes, so smoke mode skips them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

SQRT2M1 = math.sqrt(2.0) - 1.0
DEFAULT_SEED = 0
FLOAT_TOL = 1e-9  # reference tolerance for float facts; ints must match exactly


@dataclass(frozen=True)
class Op:
    """One timed call into the program.

    run(lab, inputs, state) makes the call; state carries results between
    the ops of one solution.  facts(result, inputs) reduces the output to
    plain numbers, which the checks read and the reference pins.
    """

    name: str
    run: Callable
    facts: Callable


@dataclass(frozen=True)
class Workload:
    """A workload; why it exists is recorded in BENCHMARK.json."""

    name: str
    make_inputs: Callable  # (rng, smoke) -> dict
    ops: tuple
    check: Callable  # (facts by op, inputs, estimators) -> [(op, message)]


def _systems(lab):
    cos = lab.params.TrigPoly(0.0, (1.0,), ())
    p2 = lab.params.SystemParams(2, 0.5, SQRT2M1, cos)
    p3 = lab.params.SystemParams(3, 0.55, SQRT2M1, cos)
    return p2, p3


def _finite_nonneg(values) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


# === conservation-b3: test_06 path, both key-count paths ===


def _conservation_inputs(rng: random.Random, smoke: bool) -> dict:
    return {
        "x": rng.uniform(0.05, 0.95),
        "theta": rng.uniform(0.0, 0.5),
        "seed_dense": rng.randrange(1 << 31),
        "seed_sparse": rng.randrange(1 << 31),
        # above 2^21 words the dense op streams several chunks and its
        # 8-byte-per-word planar keys are a visible share of peak memory
        "words_dense": 3**6 if smoke else 3**14,
        "words_sparse": 3**6 if smoke else 3**11,
        "qs": (4, 5, 6),
    }


def _conservation_op(name: str, n: int, depth: int) -> Op:
    def run(lab, inp, state):
        _, p3 = _systems(lab)
        return lab.projection.conservation_estimates(
            p3, inp["x"], inp["theta"], n, inp["qs"], depth,
            mode="sampled", sample_count=inp[f"words_{name}"], seed=inp[f"seed_{name}"],
        )

    def facts(ests, inp) -> dict:
        words = inp[f"words_{name}"]
        out = {}
        for q, e in sorted(ests.items()):
            out[f"q{q}.alpha"] = e.alpha
            out[f"q{q}.beta"] = e.beta
            out[f"q{q}.upsilon"] = e.upsilon
            out[f"q{q}.strips"] = len(e.strip_table)
            # strip masses are count / words: rebuild the integer counts to sum them exactly
            out[f"q{q}.strip_words"] = sum(round(m * words) for (_, m, _) in e.strip_table)
            out[f"q{q}.corollary_consistent"] = bool(e.corollary_consistent)
        return out

    return Op(f"{name}_n{n}", run, facts)


def _conservation_check(facts: dict, inp: dict, estimators: bool) -> list:
    problems = []
    for op, words in (("dense_n10", inp["words_dense"]), ("sparse_n12", inp["words_sparse"])):
        f = facts[op]
        ups = []
        for q in inp["qs"]:
            if f[f"q{q}.strip_words"] != words:
                problems.append(
                    (op, f"q={q}: strip mass {f[f'q{q}.strip_words']} != {words} words"))
            rates = [f[f"q{q}.alpha"], f[f"q{q}.beta"], f[f"q{q}.upsilon"]]
            if not _finite_nonneg(rates):
                problems.append((op, f"q={q}: rate not finite and non-negative: {rates}"))
            if not f[f"q{q}.corollary_consistent"]:
                problems.append((op, f"q={q}: corollary fired"))
            ups.append(f[f"q{q}.upsilon"])
        # upsilon falls from the coarsest strips to the finest.  It need not
        # fall at every step: at n=10 and theta near 0.2-0.25 it is flat from
        # q=5 to q=6, also on two of test_06's own pairs, whose check is on
        # the mean over pairs
        if estimators and not ups[0] > ups[-1]:
            problems.append((op, f"upsilon does not fall from q={inp['qs'][0]} "
                                 f"to q={inp['qs'][-1]}: {ups}"))
    return problems


CONSERVATION = Workload(
    name="conservation-b3",
    make_inputs=_conservation_inputs,
    ops=(
        _conservation_op("dense", 10, 20),
        _conservation_op("sparse", 12, 24),
    ),
    check=_conservation_check,
)


# === projection-sweep-b3: test_07 path, read-heavy binning ===


def _projection_inputs(rng: random.Random, smoke: bool) -> dict:
    angles = 4 if smoke else 32
    return {
        "xs": [rng.uniform(0.05, 0.95) for _ in range(2)],
        "thetas": [(j + 0.5) / angles for j in range(angles)],
        "words": 1 << 10 if smoke else 1 << 15,
        "seed": rng.randrange(1 << 31),
    }


def _projection_run(lab, inp, state):
    _, p3 = _systems(lab)
    return lab.projection.projection_entropy_sweep(
        p3, inp["xs"], inp["thetas"], 10, 20,
        mode="sampled", sample_count=inp["words"], seed=inp["seed"],
    )


def _projection_facts(sweep, inp) -> dict:
    return {
        "rates": [float(v) for v in sweep.matrix.ravel()],
        "min_rate": sweep.min_rate,
        "max_rate": sweep.max_rate,
    }


def _projection_check(facts: dict, inp: dict, estimators: bool) -> list:
    f = facts["sweep"]
    problems = []
    if not _finite_nonneg(f["rates"]):
        problems.append(("sweep", "projected rate not finite and non-negative"))
    if len(f["rates"]) != len(inp["xs"]) * len(inp["thetas"]):
        problems.append(("sweep", f"{len(f['rates'])} rates for the grid"))
    spread = f["max_rate"] - f["min_rate"]
    if not spread <= 0.25:
        problems.append(("sweep", f"sweep spread {spread:.4f} > 0.25"))
    return problems


PROJECTION = Workload(
    name="projection-sweep-b3",
    make_inputs=_projection_inputs,
    ops=(Op("sweep", _projection_run, _projection_facts),),
    check=_projection_check,
)


# === fiber-exhaustive-b2: lexicographic words, threads=2, convolve ===


def _fiber_inputs(rng: random.Random, smoke: bool) -> dict:
    return {
        "x": rng.uniform(0.05, 0.95),
        "x_growth": rng.uniform(0.05, 0.95),
        # 2^20 words are four build blocks, so threads=2 has blocks to share
        "depth": 10 if smoke else 20,
        "level": 8 if smoke else 16,
        "growth_depth": 8 if smoke else 13,
        "growth_build_level": 7 if smoke else 12,
        "growth_level": 5 if smoke else 7,
        "threads": 2,
    }


def fiber_spec(lab, inp):
    """The exhaustive P2 build of fiber-exhaustive-b2 (also timed at 1 and 2 threads)."""
    p2, _ = _systems(lab)
    return lab.fiber.FiberMeasureSpec(p2, inp["x"], inp["depth"], inp["level"])


def _fiber_build(lab, inp, state):
    state["mu"] = lab.fiber.build_fiber_measure(fiber_spec(lab, inp), threads=inp["threads"])
    return state["mu"]


def _fiber_profile(lab, inp, state):
    return lab.entropy.entropy_profile(state["mu"], range(1, inp["level"] + 1))


def _fiber_porosity(lab, inp, state):
    # component levels 1..10 at scale m=4 (fewer at smoke size); h is the
    # predicted fiber dimension of P2, which is exactly 1
    return lab.entropy.porosity_check(state["mu"], 1.0, 0.2, 4, 1, min(11, inp["level"] - 3))


def _fiber_conditional(lab, inp, state):
    return lab.entropy.conditional_entropy(state["mu"], inp["level"], inp["level"] // 2)


def _fiber_growth(lab, inp, state):
    p2, _ = _systems(lab)
    spec = lab.fiber.FiberMeasureSpec(
        p2, inp["x_growth"], inp["growth_depth"], inp["growth_build_level"]
    )
    g = lab.fiber.build_fiber_measure(spec)
    return g, lab.entropy.entropy_growth_experiment(g, g, inp["growth_level"])


def _fiber_check(facts: dict, inp: dict, estimators: bool) -> list:
    problems = []
    b = facts["build"]
    if b["total"] != 2 ** inp["depth"]:
        problems.append(("build", f"mass {b['total']} != {2 ** inp['depth']} words"))
    if not 0 < b["cells"] <= b["total"] or b["boundary_ambiguous"] < 0:
        problems.append(("build", f"cell tally out of range: {b}"))
    ent = facts["profile"]["entropies"]
    if not _finite_nonneg(ent):
        problems.append(("profile", "entropy not finite and non-negative"))
    if any(h2 < h1 - 1e-12 for h1, h2 in zip(ent, ent[1:])):
        problems.append(("profile", "entropy falls under refinement"))
    frac = facts["porosity"]["fraction_below"]
    if not 0.0 <= frac <= 1.0 + 1e-12:
        problems.append(("porosity", f"fraction {frac} outside [0, 1]"))
    h = facts["conditional"]["value"]
    if not (math.isfinite(h) and h >= -1e-12):
        problems.append(("conditional", f"conditional entropy {h}"))
    g = facts["growth"]
    if g["total"] != 2 ** inp["growth_depth"]:
        problems.append(("growth", f"mass {g['total']} != {2 ** inp['growth_depth']} words"))
    if not _finite_nonneg([g["base_rate"], g["convolved_rate"]]):
        problems.append(("growth", "rate not finite and non-negative"))
    return problems


FIBER = Workload(
    name="fiber-exhaustive-b2",
    make_inputs=_fiber_inputs,
    ops=(
        Op("build", _fiber_build, lambda mu, inp: {
            "total": mu.total, "cells": mu.ncells,
            "boundary_ambiguous": mu.boundary_ambiguous}),
        Op("profile", _fiber_profile, lambda p, inp: {"entropies": list(p.entropies)}),
        Op("porosity", _fiber_porosity, lambda r, inp: {
            "fraction_below": r.fraction_below, "verdict": bool(r.verdict)}),
        Op("conditional", _fiber_conditional, lambda h, inp: {"value": float(h)}),
        Op("growth", _fiber_growth, lambda r, inp: {
            "total": r[0].total, "cells": r[0].ncells,
            "base_rate": r[1].base_rate, "convolved_rate": r[1].convolved_rate}),
    ),
    check=_fiber_check,
)


# === dimension-b3: test_05 path ===


def _dimension_inputs(rng: random.Random, smoke: bool) -> dict:
    # the estimator checks set the size: alpha-hat misses the prediction by
    # 0.154 at 2^17 words, 0.147 at 2^18 and 0.138 at 2^19 (limit 0.15), and
    # the Lyapunov gap is 0.37 at 2^16 cloud points and 0.26 at 2^17 (limit
    # 0.3).  Smoke sizes are the smallest that still leave two levels to fit.
    return {
        "x": 0.3177,
        "words": 1 << 13 if smoke else 1 << 19,
        "depth": 12 if smoke else 20,
        "level": 5 if smoke else 10,
        "seed_fiber": rng.randrange(1 << 31),
        "points": 1 << 13 if smoke else 1 << 17,
        "seed_cloud": rng.randrange(1 << 31),
        "box_levels": (1, 2, 3) if smoke else (2, 3, 4, 5, 6, 7),
    }


def _dimension_fiber(lab, inp, state):
    _, p3 = _systems(lab)
    return lab.dimension.fiber_dimension(
        p3, inp["x"], inp["depth"], inp["level"],
        mode="sampled", sample_count=inp["words"], seed=inp["seed_fiber"],
    )


def _dimension_cloud(lab, inp, state):
    _, p3 = _systems(lab)
    state["cloud"] = lab.dimension.generate_attractor(p3, inp["points"], seed=inp["seed_cloud"])
    return state["cloud"]


def _dimension_box(lab, inp, state):
    return lab.dimension.box_dimension(state["cloud"], 3, inp["box_levels"])


# P3 constants, from the paper's formulas rather than the program's
P3_RADIUS = 1.0 / (1.0 - 0.55)  # sup|cos| / (1 - |gamma|)
P3_PREDICTED_FIBER_DIM = min(2.0, math.log(3) / -math.log(0.55))


def _cloud_facts(cloud, inp) -> dict:
    return {
        "points": int(cloud.shape[0]),
        "means": [float(v) for v in cloud.mean(axis=0)],
        "x_range": [float(cloud[:, 0].min()), float(cloud[:, 0].max())],
        "y_abs_max": float(abs(cloud[:, 1] + 1j * cloud[:, 2]).max()),
    }


def _dimension_check(facts: dict, inp: dict, estimators: bool) -> list:
    problems = []
    fd = facts["fiber_dimension"]
    if not _finite_nonneg(fd["normalized"] + [fd["estimate"]]):
        problems.append(("fiber_dimension", "rate not finite and non-negative"))
    c = facts["attractor"]
    lo, hi = c["x_range"]
    if c["points"] != inp["points"] or not (0.0 <= lo and hi < 1.0):
        problems.append(("attractor", f"cloud shape or base range wrong: {c}"))
    if not c["y_abs_max"] <= P3_RADIUS + 1e-9:
        problems.append(("attractor", f"fiber point outside radius {P3_RADIUS}"))
    bx = facts["box"]
    counts = bx["counts"]
    if any(b < a for a, b in zip(counts, counts[1:])) or max(counts) > inp["points"]:
        problems.append(("box", f"box counts not monotone or above the point count: {counts}"))
    if not math.isfinite(bx["slope"]):
        problems.append(("box", "slope not finite"))
    if estimators:
        miss = abs(fd["estimate"] - P3_PREDICTED_FIBER_DIM)
        if not miss <= 0.15:
            problems.append(("fiber_dimension", f"|alpha_hat - predicted| = {miss:.4f} > 0.15"))
        gap = abs(bx["slope"] - 1.0 - fd["estimate"])
        if not gap <= 0.3:
            problems.append(("box", f"Lyapunov gap {gap:.4f} > 0.3"))
    return problems


DIMENSION = Workload(
    name="dimension-b3",
    make_inputs=_dimension_inputs,
    ops=(
        Op("fiber_dimension", _dimension_fiber, lambda fd, inp: {
            "estimate": fd.estimate, "normalized": list(fd.normalized),
            "fitted_levels": list(fd.fitted_levels)}),
        Op("attractor", _dimension_cloud, _cloud_facts),
        Op("box", _dimension_box, lambda bx, inp: {
            "counts": list(bx.counts), "fitted_levels": list(bx.fitted_levels),
            "slope": bx.slope}),
    ),
    check=_dimension_check,
)


WORKLOADS = {w.name: w for w in (CONSERVATION, PROJECTION, FIBER, DIMENSION)}


def make_inputs(workload: Workload, seed: int, smoke: bool) -> dict:
    return workload.make_inputs(random.Random(f"{workload.name}:{seed}"), smoke)


def compare_reference(facts: dict, ref: dict) -> list:
    """(op, message) for every fact that differs from the recorded reference."""
    problems = []
    for op, want in ref.items():
        got = facts.get(op)
        if got is None:
            continue  # the op raised; that failure is already counted
        for key, w in want.items():
            g = got.get(key)
            if not _same(g, w):
                problems.append((op, f"{key}: {g!r} differs from reference {w!r}"))
    return problems


def _same(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= FLOAT_TOL
    return type(got) is type(want) and got == want
