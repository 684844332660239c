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
    _branch_sums,
    _digit_dtype,
    _index_digits,
    branch_interval,
    check_word,
    scale_hat,
    symbol_block,
    symbolic_sum_batch,
    word_from_index,
    word_to_str,
    word_value,
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
    reduces to this case by peeling the common prefix.  All such pairs of
    depth-m words are checked when they fit the pair budget (exhaustive);
    otherwise pair_budget pairs of random words are drawn, the second
    leading symbol forced distinct.  The mode only picks the rows of one
    word matrix and the row pairs (i, j).  Per grid point the row sums S
    are evaluated once, and each pair keeps its running max of |S_i - S_j|
    and, per angle theta, of |Re((S_i - S_j) e^{-2 pi i theta})|; their
    minima over the pairs are min_sup and theta_minima.  A pair whose sup
    falls below twice the truncation tail cannot be told apart from an
    identical pair at this depth and is reported as a violation candidate.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if pair_budget < 1:
        raise ValueError(f"pair_budget must be >= 1, got {pair_budget}")
    xs = [float(x) for x in x_grid]
    if not xs:
        raise ValueError("empty x grid")
    b = params.b
    noise = 2.0 * params.tail_bound(depth)
    nw = b**depth
    group = nw // b  # words per leading symbol
    exhaustive = (nw * nw - b * group * group) // 2 <= pair_budget
    if exhaustive:
        words = symbol_block(b, depth, 0, nw)
        # rows are lexicographic, so i < j with distinct first symbols is
        # first[i] < first[j]; nonzero lists the pairs in row-major order
        first = words[:, 0]
        ii, jj = np.nonzero(first[:, None] < first[None, :])
    else:
        # left words are rows 0..count-1, their right partners the rows after
        stream = SplitMix64(seed, "condition-h.pairs")
        count = pair_budget
        words = np.empty((2 * count, depth), dtype=_digit_dtype(b))
        for rows, name in ((words[:count], "left"), (words[count:], "right")):
            rows[:] = stream.derive(name).integers(0, count * depth, b).reshape(count, depth)
        shift = 1 + stream.derive("shift").integers(0, count, b - 1)
        words[count:, 0] = (words[:count, 0] + shift) % b
        ii = np.arange(count)
        jj = ii + count
    thetas = [] if theta_grid is None else [float(t) for t in theta_grid]
    phases = [np.exp(-2j * np.pi * t) for t in thetas]
    sup = np.zeros(len(ii))
    psup = np.zeros((len(thetas), len(ii)))
    for x in xs:
        v = symbolic_sum_batch(params, x, words)
        d = v[ii] - v[jj]
        np.maximum(sup, np.abs(d), out=sup)
        for row, phase in zip(psup, phases):
            np.maximum(row, np.abs((d * phase).real), out=row)

    def pair(k: int) -> tuple[tuple, tuple]:
        return tuple(words[ii[k]].tolist()), tuple(words[jj[k]].tolist())

    order = np.argsort(sup, kind="stable")
    fails = [(*pair(o), float(sup[o])) for o in order[:100] if sup[o] <= noise]
    theta_minima = None if theta_grid is None else dict(zip(thetas, psup.min(axis=1).tolist()))
    min_sup, worst = float(sup[order[0]]), pair(order[0])
    return ConditionHReport(depth, exhaustive, len(ii), min_sup, noise, worst, fails, theta_minima)


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
        # the summed polar cells can round an ulp above the annulus area
        return min(1.0, max(0.0, 1.0 - self.suspect_area / self.annulus_area))


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
    # float powers: int64 ones wrap past b^n = 2^63; past the float range
    # they are inf, and both addresses of that term are 0
    with np.errstate(over="ignore"):
        powers = float(b) ** ns
    coeffs = phi((x_prime + 1.0) / powers) - phi(x_prime / powers)
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
    """Exact nearest-pair distance of a complex point set (inf below two points).

    One sweep over the points in order along the axis, real or
    imaginary, of larger spread: shift k compares each point with the
    k-th next one.  In sorted order every point's gap along the axis to
    its k-th successor grows with k, and a pair is no closer than that
    gap, so once the smallest gap at a shift reaches the best distance
    found, no later shift can beat it and the sweep stops.  The result
    is the all-pairs minimum bit for bit, since each pair's distance is
    the same float |v_i - v_j| in either order.  Spread-out sets stop
    after a few shifts, and so do points on one vertical or horizontal
    line; points with equal coordinates along the wider axis never stop
    early, so the worst case is still O(n^2) work in n vector steps.
    """
    if len(values) < 2:
        return math.inf
    axis = values.imag if np.ptp(values.imag) > np.ptp(values.real) else values.real
    order = np.argsort(axis, kind="stable")
    v, along = values[order], axis[order]
    best = math.inf
    for k in range(1, len(v)):
        if float((along[k:] - along[:-k]).min()) >= best:
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
            picks = np.unique(stream.words(0, max_points) % count).astype(np.int64)
        else:
            picks = np.arange(count, dtype=np.int64)
        heads = _index_digits(picks, params.b, n - ell)
        tails = np.tile(np.asarray(w, dtype=heads.dtype), (len(heads), 1))
        values = symbolic_sum_batch(params, x, np.hstack([heads, tails]))
        gap = _min_pairwise_gap(values)
        cert.rows.append(
            SeparationRow(n, nhat, threshold, gap, gap > threshold, len(values), sampled)
        )
    return cert


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
        best = None  # (margin, a_idx, h_idx, hp_idx)
        for a_idx in range(nw):
            zs = _interval_grid(b, word_from_index(a_idx, b, t), grid)
            # D[h, z]: depth-t derivative of branch h at z
            D = np.empty((nw, grid), dtype=np.complex128)
            for k, z in enumerate(zs):
                D[:, k] = _branch_sums(params, z, t, 0, nw, derivative=True)
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
        a_word, h, hp = (word_from_index(i, b, t) for i in (a_idx, h_idx, hp_idx))
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
        cont = stream.derive(name).integers(0, samples * sample_depth, b)
        cont = cont.reshape(samples, sample_depth)
        # the word is one leaf of the depth-|word| tree, continued per sample
        leaf = word_value(word[::-1], b)
        out = np.empty((samples, len(zs)), dtype=np.complex128)
        for k, z in enumerate(zs):
            out[:, k] = _branch_sums(
                params, z, len(word), leaf, leaf + 1, [samples], cont, derivative=True
            )
        return out

    dh = block(h, "left")
    dhp = block(hp, "right")
    a1 = min(float(np.abs(dh).min()), float(np.abs(dhp).min())) - tail
    a2 = float(np.abs(dh[:, None, :] - dhp[None, :, :]).min()) - 2.0 * tail
    return a1, a2
