"""Falsifiers and witness searches for the structural hypotheses.

Every check here is finite, so the vocabulary is deliberately modest: a
probe can exhibit a violation witness or report consistency at a given
truncation depth, never a proof.  Thresholds always carry the
truncation-tail noise floor so that "indistinguishable from zero" is an
explicit, certified notion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .params import SystemParams, TrigPoly
from .rng import SplitMix64
from .words import (
    branch_interval,
    check_word,
    scale_hat,
    symbol_block,
    symbolic_sum_batch,
    word_to_str,
)

__all__ = [
    "ConditionHReport",
    "condition_h_probe",
    "ExceptionScanReport",
    "gamma_exception_scan",
    "SeparationRow",
    "SeparationCertificate",
    "exponential_separation_test",
    "TransversalityWitness",
    "transversality_search",
    "verify_transversality",
    "AtomlessnessTable",
    "atomlessness_probe",
    "BoundaryMassTable",
    "boundary_mass_probe",
]


# === condition (H) ===


@dataclass
class ConditionHReport:
    depth: int
    exhaustive: bool
    pairs_checked: int
    min_sup: float
    noise_floor: float
    worst_pair: tuple[tuple, tuple]
    fail_candidates: list[tuple[tuple, tuple, float]]
    theta_minima: Optional[dict[float, float]] = None

    @property
    def verdict(self) -> str:
        return "violation witness" if self.fail_candidates else "consistent with (H)"


def condition_h_probe(
    params: SystemParams,
    pair_budget: int,
    depth: int,
    x_grid: Sequence[float],
    theta_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> ConditionHReport:
    """Search for branch pairs whose fiber sums nearly coincide as functions of x.

    Only pairs differing in the first symbol matter: any other disagreement
    reduces to this case by peeling the common prefix.  A pair whose sup
    over the x grid falls below twice the truncation tail cannot be told
    apart from an identical pair at this depth and is reported as a
    violation candidate.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    xs = [float(x) for x in x_grid]
    if not xs:
        raise ValueError("empty x grid")
    b = params.b
    noise = 2.0 * params.tail_bound(depth)
    nw = b**depth
    group = nw // b  # words per leading symbol
    total_pairs = (nw * nw - b * group * group) // 2

    if total_pairs <= pair_budget:
        syms = symbol_block(b, depth, 0, nw).astype(np.int64)
        values = np.empty((nw, len(xs)), dtype=np.complex128)
        for k, x in enumerate(xs):
            values[:, k] = symbolic_sum_batch(params, x, syms)
        sup = np.zeros((nw, nw))
        for k in range(len(xs)):
            col = values[:, k]
            np.maximum(sup, np.abs(col[:, None] - col[None, :]), out=sup)
        first = syms[:, 0]
        cross = first[:, None] != first[None, :]
        cross &= np.tri(nw, nw, -1, dtype=bool).T  # upper triangle only
        ii, jj = np.nonzero(cross)
        sups = sup[ii, jj]
        order = np.argsort(sups, kind="stable")
        min_sup = float(sups[order[0]])
        worst = (tuple(syms[ii[order[0]]]), tuple(syms[jj[order[0]]]))
        fails = [
            (tuple(syms[ii[o]]), tuple(syms[jj[o]]), float(sups[o]))
            for o in order[:100]
            if sups[o] <= noise
        ]
        theta_minima = None
        if theta_grid is not None:
            theta_minima = {}
            for theta in theta_grid:
                phase = np.exp(-2j * np.pi * float(theta))
                psup = np.zeros(len(ii))
                for k in range(len(xs)):
                    col = values[:, k] * phase
                    np.maximum(psup, np.abs(col[ii].real - col[jj].real), out=psup)
                theta_minima[float(theta)] = float(psup.min())
        return ConditionHReport(
            depth, True, len(ii), min_sup, noise, worst, fails, theta_minima
        )

    # sampled pairs: independent words, second leading symbol forced distinct
    stream = SplitMix64(seed, "condition-h.pairs")
    count = pair_budget
    si = (
        stream.derive("left")
        .integers(0, count * depth, b)
        .reshape(count, depth)
        .astype(np.int64)
    )
    sj = (
        stream.derive("right")
        .integers(0, count * depth, b)
        .reshape(count, depth)
        .astype(np.int64)
    )
    shift = 1 + stream.derive("shift").integers(0, count, b - 1).astype(np.int64)
    sj[:, 0] = (si[:, 0] + shift) % b
    sup = np.zeros(count)
    want_theta = theta_grid is not None
    vi = np.empty((count, len(xs)), dtype=np.complex128) if want_theta else None
    vj = np.empty((count, len(xs)), dtype=np.complex128) if want_theta else None
    for k, x in enumerate(xs):
        d_i = symbolic_sum_batch(params, x, si)
        d_j = symbolic_sum_batch(params, x, sj)
        np.maximum(sup, np.abs(d_i - d_j), out=sup)
        if vi is not None:
            vi[:, k] = d_i
            vj[:, k] = d_j
    order = np.argsort(sup, kind="stable")
    min_sup = float(sup[order[0]])
    worst = (tuple(si[order[0]]), tuple(sj[order[0]]))
    fails = [
        (tuple(si[o]), tuple(sj[o]), float(sup[o]))
        for o in order[:100]
        if sup[o] <= noise
    ]
    theta_minima = None
    if theta_grid is not None:
        theta_minima = {}
        for theta in theta_grid:
            phase = np.exp(-2j * np.pi * float(theta))
            diff = (vi - vj) * phase
            theta_minima[float(theta)] = float(np.abs(diff.real).max(axis=1).min())
    return ConditionHReport(
        depth, False, count, min_sup, noise, worst, fails, theta_minima
    )


# === exceptional-parameter scan ===


@dataclass
class ExceptionScanReport:
    rho: float
    terms: int
    lipschitz: float
    annulus_area: float
    area_history: list[float]
    suspect_cells: list[tuple[float, float, float, float]]  # (r_lo, r_hi, t_lo, t_hi)

    @property
    def suspect_area(self) -> float:
        return self.area_history[-1]

    @property
    def certified_fraction(self) -> float:
        return 1.0 - self.suspect_area / self.annulus_area


def _polar_cell_area(cells: np.ndarray) -> np.ndarray:
    return (cells[:, 1] ** 2 - cells[:, 0] ** 2) * math.pi * (cells[:, 3] - cells[:, 2])


def gamma_exception_scan(
    b: int,
    phi: TrigPoly,
    x_prime: int,
    m: Optional[int],
    r1: float,
    r2: float,
    rho: float,
    n_r: int = 32,
    n_theta: int = 32,
    rounds: int = 2,
) -> ExceptionScanReport:
    """Cover the near-zeros of the two-branch collision series over an annulus.

    The series sums the displacement differences of the addresses x'/b^n
    and (x'+1)/b^n with geometric weights in the contraction parameter.
    Cells where the certified bound |value| - noise > rho + L * radius
    holds are cleared; the rest are subdivided.  The suspect region can
    only shrink under refinement, and each child box lies in its parent.

    When m is given, the m-th series coefficient must be nonzero (the
    witness that the series is not identically zero); pass m=None to
    scan without that guarantee.
    """
    if not 0 < r1 < r2 < 1:
        raise ValueError("need 0 < r1 < r2 < 1")
    if b < 2:
        raise ValueError("b must be >= 2")
    sup = phi.sup_bound()
    terms = 1
    while 2.0 * sup * r2**terms / (1.0 - r2) > rho / 10.0 and terms < 600:
        terms += 1
    ns = np.arange(1, terms + 1)
    coeffs = phi((x_prime + 1.0) / b**ns) - phi(x_prime / b**ns)
    if m is not None:
        if not 1 <= m <= terms:
            raise ValueError(f"witness index m={m} out of range 1..{terms}")
        if abs(coeffs[m - 1]) <= 1e-12:
            raise ValueError(
                f"witness precondition fails: phi(x'/b^{m}) equals phi((x'+1)/b^{m}) "
                "to machine precision; try another m or x'"
            )
    tail = 2.0 * sup * r2**terms / (1.0 - r2)
    lipschitz = 2.0 * sup / (1.0 - r2) ** 2

    def series(z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(z)
        for c in coeffs[::-1]:
            acc *= z
            acc += c
        return acc

    r_edges = np.linspace(r1, r2, n_r + 1)
    t_edges = np.linspace(0.0, 1.0, n_theta + 1)
    cells = np.array(
        [
            (r_edges[i], r_edges[i + 1], t_edges[j], t_edges[j + 1])
            for i in range(n_r)
            for j in range(n_theta)
        ]
    )
    annulus_area = math.pi * (r2**2 - r1**2)
    history = []
    for _ in range(rounds + 1):
        rc = (cells[:, 0] + cells[:, 1]) / 2
        tc = (cells[:, 2] + cells[:, 3]) / 2
        centers = rc * np.exp(2j * np.pi * tc)
        radius = np.hypot(
            (cells[:, 1] - cells[:, 0]) / 2,
            cells[:, 1] * math.pi * (cells[:, 3] - cells[:, 2]),
        )
        clear = np.abs(series(centers)) - tail > rho + lipschitz * radius
        cells = cells[~clear]
        history.append(float(_polar_cell_area(cells).sum()) if len(cells) else 0.0)
        if len(cells) == 0:
            break
        if len(history) <= rounds:
            rm = (cells[:, 0] + cells[:, 1]) / 2
            tm = (cells[:, 2] + cells[:, 3]) / 2
            cells = np.concatenate(
                [
                    np.stack(
                        [
                            np.where(ri, rm, cells[:, 0]),
                            np.where(ri, cells[:, 1], rm),
                            np.where(ti, tm, cells[:, 2]),
                            np.where(ti, cells[:, 3], tm),
                        ],
                        axis=1,
                    )
                    for ri in (False, True)
                    for ti in (False, True)
                ]
            )
    return ExceptionScanReport(
        rho, terms, lipschitz, annulus_area, history, [tuple(c) for c in cells]
    )


# === exponential separation ===


@dataclass
class SeparationRow:
    n: int
    nhat: int
    threshold: float
    min_gap: float
    passed: bool
    points: int
    sampled: bool


@dataclass
class SeparationCertificate:
    eps0: float
    x: float
    suffix: tuple
    rows: list[SeparationRow] = field(default_factory=list)

    @property
    def passing_levels(self) -> list[int]:
        return [r.n for r in self.rows if r.passed]

    def serialize(self) -> str:
        lines = ["SEPCERT v1"]
        for r in self.rows:
            gap = "inf" if math.isinf(r.min_gap) else repr(r.min_gap)
            lines.append(
                f"{r.n},{r.nhat},{r.threshold!r},{gap},{'pass' if r.passed else 'fail'}"
            )
        return "\n".join(lines) + "\n"


def _min_pairwise_gap(values: np.ndarray) -> float:
    """Exact nearest-pair distance of a complex point set.

    Small sets go through a chunked all-pairs scan; larger ones through a
    sweep on real-part order, stopping at the shift where the sorted
    real gaps already exceed the best distance (which certifies that no
    farther pair can do better).
    """
    n = len(values)
    if n < 2:
        return math.inf
    if n <= 4096:
        best = math.inf
        for lo in range(0, n, 512):
            block = values[lo : lo + 512]
            d = np.abs(block[:, None] - values[None, :])
            rows = np.arange(lo, min(lo + 512, n))
            d[rows - lo, rows] = math.inf
            best = min(best, float(d.min()))
        return best
    v = values[np.argsort(values.real, kind="stable")]
    re = v.real
    best = math.inf
    for k in range(1, n):
        span = re[k:] - re[:-k]
        if float(span.min()) >= best:
            break
        best = min(best, float(np.abs(v[k:] - v[:-k]).min()))
    return best


def exponential_separation_test(
    params: SystemParams,
    x: float,
    suffix: Sequence[int],
    eps0: float,
    n_list: Sequence[int],
    max_points: int = 1 << 16,
    seed: int = 0,
) -> SeparationCertificate:
    """Per-level nearest-pair gaps of the branch value sets against eps0^nhat.

    The value set at level n collects S(x, j + suffix) over all prefixes
    j of length n - len(suffix).  A level passes when the minimum gap
    exceeds sqrt(2) * eps0^nhat.  Levels whose prefix count exceeds
    max_points are subsampled; their reported gap is only an upper bound
    on the true minimum and the row is flagged.
    """
    if not 0 < eps0 < 1:
        raise ValueError("eps0 must lie in (0, 1)")
    w = check_word(suffix, params.b, allow_empty=True)
    ell = len(w)
    cert = SeparationCertificate(eps0, float(x), w)
    for n in sorted(set(int(v) for v in n_list)):
        if n < ell:
            raise ValueError(f"level {n} below the suffix length {ell}")
        nhat = scale_hat(params, n)
        threshold = math.sqrt(2.0) * eps0**nhat
        count = params.b ** (n - ell)
        sampled = count > max_points
        if sampled:
            stream = SplitMix64(seed, f"separation.n{n}")
            picks = np.unique(stream.words(0, max_points) % count)
            syms = _indices_to_words(picks, params.b, n - ell)
        else:
            syms = symbol_block(params.b, n - ell, 0, count).astype(np.int64)
        if ell:
            tail_block = np.tile(np.asarray(w, dtype=np.int64), (len(syms), 1))
            syms = np.hstack([syms, tail_block]) if n > ell else tail_block
        values = symbolic_sum_batch(params, x, syms)
        gap = _min_pairwise_gap(values)
        cert.rows.append(
            SeparationRow(n, nhat, threshold, gap, gap > threshold, len(syms), sampled)
        )
    return cert


def _indices_to_words(indices: np.ndarray, b: int, length: int) -> np.ndarray:
    out = np.empty((len(indices), length), dtype=np.int64)
    rem = indices.astype(np.int64)
    for pos in range(length - 1, -1, -1):
        out[:, pos] = rem % b
        rem //= b
    return out


# === transversality ===


@dataclass
class TransversalityWitness:
    t: int
    xi1: float
    h: tuple
    h_prime: tuple
    a: tuple
    grid: int
    sample_depth: int
    samples: int
    seed: int
    a1_margin: float
    a2_margin: float
    a3_lhs: float

    def serialize(self) -> str:
        return (
            f"TRANSWIT v1 {self.t} {self.xi1!r} "
            f"{word_to_str(self.h)} {word_to_str(self.h_prime)} {word_to_str(self.a)}\n"
        )


def _derivative_batch(
    params: SystemParams, x, symbols: np.ndarray
) -> np.ndarray:
    """d/dx of the fiber sum for every row; scalar or per-row base points."""
    rows, depth = symbols.shape
    dphi = params.phi.derivative()
    a = np.zeros(rows, dtype=np.float64)
    a += np.asarray(x, dtype=np.float64)
    acc = np.zeros(rows, dtype=np.complex128)
    g = 1.0 / params.b + 0.0j
    ratio = params.gamma / params.b
    inv_b = 1.0 / params.b
    for n in range(depth):
        a += symbols[:, n]
        a *= inv_b
        acc += g * dphi(a)
        g *= ratio
    return acc


def _interval_grid(b: int, word: Sequence[int], grid: int) -> np.ndarray:
    lo, hi = branch_interval(b, word)
    return lo + (hi - lo) * (np.arange(grid) + 0.5) / grid


def transversality_search(
    params: SystemParams,
    t_min: int,
    sample_depth: int,
    grid: int,
    t_max: Optional[int] = None,
    samples: int = 8,
    seed: int = 0,
) -> Optional[TransversalityWitness]:
    """Hunt for a depth, a word pair, and a base interval with separated derivatives.

    For each depth t the finite-depth derivatives of all word pairs are
    compared on a grid over each b-adic interval; the best pair is then
    re-checked with random continuations of the given sample depth, and
    the witness margin is discounted by the continuation tail so that it
    covers every infinite extension.  The witness scale is half the
    observed margin; the coarse-scale condition (small derivative sup at
    depth t against a quarter of the witness scale) must also hold.
    """
    if t_max is None:
        t_max = t_min + 4
    dsup = params.phi.derivative().sup_bound()
    if dsup == 0.0:
        return None
    b = params.b
    stream = SplitMix64(seed, "transversality")
    for t in range(t_min, t_max + 1):
        if b**t > 4096:
            break
        nw = b**t
        tail = dsup * params.gamma_abs**t / (b**t * (b - params.gamma_abs))
        words = symbol_block(b, t, 0, nw).astype(np.int64)
        best = None  # (margin, a_idx, h_idx, hp_idx)
        for a_idx in range(nw):
            zs = _interval_grid(b, words[a_idx], grid)
            # D[h, z]: depth-t derivative of branch h at z
            D = np.empty((nw, grid), dtype=np.complex128)
            for k, z in enumerate(zs):
                D[:, k] = _derivative_batch(params, z, words)
            m1 = np.abs(D).min(axis=1) - tail
            pair_min = np.full((nw, nw), math.inf)
            for k in range(grid):
                col = D[:, k]
                np.minimum(
                    pair_min, np.abs(col[:, None] - col[None, :]), out=pair_min
                )
            m2 = pair_min - 2.0 * tail
            margin = np.minimum(np.minimum(m1[:, None], m1[None, :]), m2)
            np.fill_diagonal(margin, -math.inf)
            h_idx, hp_idx = np.unravel_index(int(margin.argmax()), margin.shape)
            cand = float(margin[h_idx, hp_idx])
            if best is None or cand > best[0]:
                best = (cand, a_idx, int(h_idx), int(hp_idx))
        if best is None or best[0] <= 0.0:
            continue
        _, a_idx, h_idx, hp_idx = best
        a_word = tuple(words[a_idx])
        h = tuple(words[h_idx])
        hp = tuple(words[hp_idx])
        a1, a2 = _continuation_margins(
            params, h, hp, a_word, grid, sample_depth, samples, stream.derive(f"t{t}")
        )
        margin = min(a1, a2)
        if margin <= 0.0:
            continue
        xi1 = margin / 2.0
        a3_lhs = dsup / ((1.0 - params.gamma_abs) * b**t)
        if a3_lhs < xi1 / 4.0:
            return TransversalityWitness(
                t, xi1, h, hp, a_word, grid, sample_depth, samples, seed, a1, a2, a3_lhs
            )
    return None


def _continuation_margins(
    params: SystemParams,
    h: tuple,
    hp: tuple,
    a_word: tuple,
    grid: int,
    sample_depth: int,
    samples: int,
    stream: SplitMix64,
) -> tuple[float, float]:
    """(A.1), (A.2) margins over sampled infinite-word stand-ins."""
    b = params.b
    zs = _interval_grid(b, a_word, grid)
    tail = (
        params.phi.derivative().sup_bound()
        * params.gamma_abs ** (len(h) + sample_depth)
        / (b ** (len(h) + sample_depth) * (b - params.gamma_abs))
    )

    def block(word: tuple, name: str) -> np.ndarray:
        cont = (
            stream.derive(name)
            .integers(0, samples * sample_depth, b)
            .reshape(samples, sample_depth)
            .astype(np.int64)
        )
        head = np.tile(np.asarray(word, dtype=np.int64), (samples, 1))
        syms = np.hstack([head, cont])
        out = np.empty((samples, len(zs)), dtype=np.complex128)
        for k, z in enumerate(zs):
            out[:, k] = _derivative_batch(params, z, syms)
        return out

    dh = block(h, "left")
    dhp = block(hp, "right")
    a1 = min(float(np.abs(dh).min()), float(np.abs(dhp).min())) - tail
    a2 = float(np.abs(dh[:, None, :] - dhp[None, :, :]).min()) - 2.0 * tail
    return a1, a2


def verify_transversality(
    params: SystemParams, witness: TransversalityWitness, grid_factor: int = 10, seed: int = 1
) -> tuple[float, float]:
    """Re-evaluate a witness on a finer grid with fresh continuations."""
    a1, a2 = _continuation_margins(
        params,
        witness.h,
        witness.h_prime,
        witness.a,
        witness.grid * grid_factor,
        witness.sample_depth,
        witness.samples * 2,
        SplitMix64(seed, "transversality.verify"),
    )
    return a1, a2


# === atomlessness and boundary mass ===


@dataclass
class AtomlessnessTable:
    x_grid: list[float]
    theta_grid: list[float]
    n_list: list[int]
    values: np.ndarray  # (x, theta, n) max single-cell masses

    @property
    def headline(self) -> float:
        return float(self.values[:, :, -1].max())

    def non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.values, axis=2) <= 1e-12))


def atomlessness_probe(
    params: SystemParams,
    x_grid: Sequence[float],
    theta_grid: Sequence[float],
    n_list: Sequence[int],
    depth: Optional[int] = None,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> AtomlessnessTable:
    """Max projected cell mass per (base point, angle, level); rows shrink with level.

    threads is accepted for compatibility and changes nothing.
    """
    from .fiber import FiberMeasureSpec, build_fiber_measure, depth_for_resolution
    from .projection import project_measure

    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise ValueError("levels must be positive")
    n_max = ns[-1]
    if depth is None:
        depth = depth_for_resolution(params, n_max)
    values = np.zeros((len(x_grid), len(theta_grid), len(ns)))
    for i, x in enumerate(x_grid):
        spec = FiberMeasureSpec(
            params, float(x), depth, n_max, mode=mode, sample_count=sample_count, seed=seed
        )
        mu = build_fiber_measure(spec, threads=threads)
        for j, theta in enumerate(theta_grid):
            proj = project_measure(mu, float(theta))
            for k, n in enumerate(ns):
                values[i, j, k] = proj.coarsen(n).max_cell_mass()
    return AtomlessnessTable([float(x) for x in x_grid], [float(t) for t in theta_grid], ns, values)


@dataclass
class BoundaryMassTable:
    level: int
    n_list: list[int]
    delta2_list: list[float]
    values: np.ndarray  # (n, delta2) mass fractions

    def decreasing_in_delta2(self) -> bool:
        return bool(np.all(np.diff(self.values, axis=1) <= 1e-12))


def boundary_mass_probe(
    params: SystemParams,
    x: float,
    n_list: Sequence[int],
    delta2_list: Sequence[float],
    resolution: Optional[int] = None,
    depth: Optional[int] = None,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    threads: int = 1,
    mu=None,
) -> BoundaryMassTable:
    """Mass near the level-n grid lines, for each (n, delta2).

    The neighborhood has width delta2 * b^-n on each side of each line;
    it must be at least one cell of the working measure wide, otherwise
    the question outruns the resolution.  Pass mu to probe a prebuilt
    measure instead of constructing one.  threads is accepted for
    compatibility and changes nothing.
    """
    from .fiber import FiberMeasureSpec, build_fiber_measure, depth_for_resolution

    ns = sorted(set(int(n) for n in n_list))
    deltas = sorted((float(d) for d in delta2_list), reverse=True)
    if not ns or not deltas:
        raise ValueError("empty probe table")
    if mu is None:
        if resolution is None:
            resolution = ns[-1] + int(math.ceil(math.log(1.0 / min(deltas), params.b))) + 1
        if depth is None:
            depth = depth_for_resolution(params, resolution)
        spec = FiberMeasureSpec(
            params, x, depth, resolution, mode=mode, sample_count=sample_count, seed=seed
        )
        mu = build_fiber_measure(spec, threads=threads)
    level = mu.level
    for n in ns:
        for d in deltas:
            if d * float(mu.base) ** (level - n) < 1.0:
                raise ValueError(
                    f"boundary neighborhood thinner than resolution: "
                    f"delta2={d} at level n={n} needs a measure finer than level {level}"
                )
    centers = mu.centers()
    total = mu.total
    values = np.zeros((len(ns), len(deltas)))
    for i, n in enumerate(ns):
        sx = centers[:, 0] * mu.base**n
        sy = centers[:, 1] * mu.base**n
        dist = np.minimum(np.abs(sx - np.rint(sx)), np.abs(sy - np.rint(sy)))
        for j, d in enumerate(deltas):
            mask = dist <= d
            values[i, j] = int(mu.weights[mask].sum()) / total
    return BoundaryMassTable(level, ns, deltas, values)
