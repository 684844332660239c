"""Branch words and symbolic fiber sums.

A word w = (w_1, ..., w_m) over the digit alphabet {0, ..., b-1} labels a
depth-m inverse branch of x -> b x mod 1.  Its branch point is

    w(x) = (x + w_1 + w_2 b + ... + w_m b^{m-1}) / b^m,

and the fiber sum along the branch is

    S(x, w) = sum_{n=1}^{m} gamma^{n-1} phi(a_n),   a_n = prefix-n branch point,

with the exact recurrence a_0 = x, a_n = (a_{n-1} + w_n) / b.  The two
identities every consumer leans on:

    S(x, w + i) = S(x, w) + gamma^{|w|} S(w(x), i)            (branch cocycle)
    S(x, w+i) - S(x, w+j) = gamma^{|w|} (S(w(x), i) - S(w(x), j))

are exposed as residual checks so tests can pin them to float accuracy.

Scalar sums accumulate Horner-style from the deepest term outward; the
vectorized batch engine accumulates outward-in (the cocycle expansion),
which agrees to machine accuracy and is what measure builders use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .params import SystemParams
from .rng import GAMMA64, SplitMix64, mix64_array

__all__ = [
    "Word",
    "check_word",
    "word_value",
    "word_address",
    "branch_interval",
    "word_to_str",
    "word_from_str",
    "word_from_index",
    "enumerate_words",
    "random_words",
    "symbolic_sum",
    "symbolic_sum_derivative",
    "branch_addresses",
    "symbol_block",
    "sampled_symbol_block",
    "stratum_layout",
    "symbolic_sum_batch",
    "cocycle_residual",
    "difference_residual",
    "scale_hat",
    "scale_tilde",
]

Word = tuple  # alias: a word is a tuple of ints in [0, b)


def check_word(word: Sequence[int], b: int, allow_empty: bool = False) -> tuple:
    """Validate digits and return the word as a tuple."""
    w = tuple(int(s) for s in word)
    if not w and not allow_empty:
        raise ValueError("empty address: word must have at least one symbol")
    for s in w:
        if not 0 <= s < b:
            raise ValueError(f"symbol {s} out of range for base {b}")
    return w


def word_value(word: Sequence[int], b: int) -> int:
    """w_1 + w_2 b + ... + w_m b^{m-1} (exact integer)."""
    v = 0
    for k, s in enumerate(word):
        v += int(s) * b**k
    return v


def word_address(params: SystemParams, x: float, word: Sequence[int]) -> float:
    """Branch point w(x) = (x + word_value) / b^m.  Lands in [0, 1) for x in [0, 1)."""
    w = check_word(word, params.b)
    return (x + word_value(w, params.b)) / params.b ** len(w)


def branch_interval(b: int, word: Sequence[int]) -> tuple[float, float]:
    """Half-open interval [v/b^m, (v+1)/b^m) of branch points of the word."""
    w = check_word(word, b)
    v = word_value(w, b)
    m = len(w)
    return v / b**m, (v + 1) / b**m


def word_to_str(word: Sequence[int]) -> str:
    """Digit string form, e.g. (1, 0, 2) -> "102".  Digits >= 10 are dot-separated."""
    if any(s >= 10 for s in word):
        return ".".join(str(s) for s in word)
    return "".join(str(s) for s in word)


def word_from_str(text: str) -> tuple:
    if "." in text:
        return tuple(int(p) for p in text.split("."))
    return tuple(int(c) for c in text)


def word_from_index(index: int, b: int, length: int) -> tuple:
    """Word at position index in lexicographic order over {0..b-1}^length."""
    if not 0 <= index < b**length:
        raise ValueError(f"index {index} out of range for {b}^{length} words")
    digits = []
    for _ in range(length):
        digits.append(index % b)
        index //= b
    return tuple(reversed(digits))


def enumerate_words(b: int, length: int) -> list[tuple]:
    """All words of the given length in lexicographic order."""
    return [word_from_index(i, b, length) for i in range(b**length)]


def random_words(b: int, length: int, count: int, stream: SplitMix64) -> list[tuple]:
    syms = stream.integers(0, count * length, b)
    return [tuple(syms[i * length : (i + 1) * length]) for i in range(count)]


# === scalar fiber sums ===


def branch_addresses(params: SystemParams, x: float, word: Sequence[int]) -> list[float]:
    """Addresses a_1 .. a_m of the prefixes of the word, via a_n = (a_{n-1} + w_n)/b."""
    w = check_word(word, params.b)
    a = float(x)
    out = []
    for s in w:
        a = (a + s) / params.b
        out.append(a)
    return out


def symbolic_sum(params: SystemParams, x: float, word: Sequence[int]) -> complex:
    """Fiber sum S(x, word), deepest term first (Horner in gamma).

    Bounded by sup|phi| * (1 - |gamma|^m) / (1 - |gamma|).
    """
    addrs = branch_addresses(params, x, word)
    gamma = params.gamma
    acc = 0.0 + 0.0j
    for a in reversed(addrs):
        acc = params.phi(a) + gamma * acc
    return acc


def symbolic_sum_derivative(params: SystemParams, x: float, word: Sequence[int]) -> complex:
    """d/dx S(x, word) = sum_n gamma^{n-1} phi'(a_n) / b^n.

    Bounded by sup|phi'| / (b - |gamma|).
    """
    addrs = branch_addresses(params, x, word)
    dphi = params.phi.derivative()
    ratio = params.gamma / params.b
    acc = 0.0 + 0.0j
    for a in reversed(addrs):
        acc = dphi(a) + ratio * acc
    return acc / params.b


# === vectorized word enumeration ===


def _digit_dtype(b: int) -> type:
    """Symbol-matrix dtype for base b: int8 while the digits 0..b-1 fit, else int64."""
    return np.int8 if b <= 128 else np.int64


def symbol_block(b: int, depth: int, start: int, stop: int) -> np.ndarray:
    """Symbol matrix of words start..stop-1 (lexicographic), shape (stop-start, depth).

    Column n holds w_{n+1}; w_1 is the most significant digit of the index.
    """
    # int32 division is markedly cheaper and covers every realistic block
    dtype = np.int32 if stop <= 2**31 else np.int64
    idx = np.arange(start, stop, dtype=dtype)
    rem = np.empty(stop - start, dtype=dtype)
    out = np.empty((stop - start, depth), dtype=_digit_dtype(b))
    for pos in range(depth - 1, -1, -1):
        np.divmod(idx, dtype(b), out=(idx, rem))
        out[:, pos] = rem
    return out


def stratum_layout(b: int, depth: int, count: int) -> tuple[int, int, int]:
    """(prefix_len, strata, base_quota) for stratified sampling of count words.

    The first floor(log_b count) symbols are stratified (capped at depth);
    stratum i receives base_quota plus one extra while i < count % strata.
    """
    if count < 1:
        raise ValueError("sample count must be positive")
    s = 0
    while b ** (s + 1) <= count:
        s += 1
    s = min(s, depth)
    strata = b**s
    return s, strata, count // strata


def sampled_symbol_block(
    b: int,
    depth: int,
    count: int,
    stream: SplitMix64,
    stratum_start: int,
    stratum_stop: int,
) -> np.ndarray:
    """Symbols of the samples owned by strata [stratum_start, stratum_stop).

    Stratified over the leading prefix; suffix digits come from a
    counter-mode sub-stream per stratum, so the output is independent of
    how strata are grouped into blocks.
    """
    s, strata, base_quota = stratum_layout(b, depth, count)
    rem = count % strata
    if not 0 <= stratum_start <= stratum_stop <= strata:
        raise ValueError("stratum range out of bounds")
    n_str = stratum_stop - stratum_start
    if n_str == 0:
        return np.empty((0, depth), dtype=_digit_dtype(b))

    quotas = np.full(n_str, base_quota, dtype=np.int64)
    ids = np.arange(stratum_start, stratum_stop, dtype=np.int64)
    quotas[ids < rem] += 1
    total = int(quotas.sum())

    out = np.empty((total, depth), dtype=_digit_dtype(b))
    # prefix digits repeat per quota
    prefix = symbol_block(b, s, stratum_start, stratum_stop) if s else None
    row_stratum = np.repeat(np.arange(n_str, dtype=np.int64), quotas)
    if s:
        out[:, :s] = prefix[row_stratum]

    suffix_len = depth - s
    if suffix_len:
        # per-stratum state, then counter-mode draws within the stratum
        with np.errstate(over="ignore"):
            states = mix64_array(
                np.uint64(stream.state)
                + (ids + 1).astype(np.uint64) * np.uint64(GAMMA64)
            )
        # counter j of each emitted symbol within its stratum
        offs = np.concatenate(([0], np.cumsum(quotas)))[:-1]
        sample_in_stratum = np.arange(total, dtype=np.int64) - offs[row_stratum]
        base_counter = (sample_in_stratum * suffix_len).astype(np.uint64)
        expanded_states = states[row_stratum]
        for k in range(suffix_len):
            with np.errstate(over="ignore"):
                z = expanded_states + (
                    (base_counter + np.uint64(k + 1)) * np.uint64(GAMMA64)
                )
            out[:, s + k] = mix64_array(z) % np.uint64(b)
    return out


def symbolic_sum_batch(params: SystemParams, x, symbols: np.ndarray) -> np.ndarray:
    """Fiber sums S(x, w) for every row of a symbol matrix, as complex128.

    x may be a scalar (shared base point) or one base point per row.
    Outward-in accumulation; agrees with symbolic_sum to float roundoff.
    """
    rows, depth = symbols.shape
    if rows == 0:
        return np.zeros(0, dtype=np.complex128)
    gamma = params.gamma
    a = np.zeros(rows, dtype=np.float64)
    a += np.asarray(x, dtype=np.float64)
    # accumulate the components separately; a complex axpy per level costs
    # an extra pass and a temporary
    re = np.zeros(rows, dtype=np.float64)
    im = np.zeros(rows, dtype=np.float64)
    tmp = np.empty(rows, dtype=np.float64)
    change = np.empty(rows, dtype=np.bool_)
    g = 1.0 + 0.0j
    inv_b = 1.0 / params.b
    for n in range(depth):
        a += symbols[:, n]
        a *= inv_b
        # lexicographic word blocks leave the early levels' angle arrays
        # piecewise constant, so phi only needs one evaluation per run
        change[0] = True
        np.not_equal(a[1:], a[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        if 4 * len(starts) <= rows:
            lengths = np.diff(starts, append=rows)
            v = np.repeat(params.phi(a[starts]), lengths)
        else:
            v = params.phi(a)
        np.multiply(v, g.real, out=tmp)
        re += tmp
        if g.imag != 0.0:
            np.multiply(v, g.imag, out=tmp)
            im += tmp
        g *= gamma
    acc = np.empty(rows, dtype=np.complex128)
    acc.real = re
    acc.imag = im
    return acc


# === identity residuals ===


def cocycle_residual(
    params: SystemParams, x: float, w: Sequence[int], i: Sequence[int]
) -> float:
    """|S(x, w+i) - S(x, w) - gamma^{|w|} S(w(x), i)|; zero in exact arithmetic."""
    w = check_word(w, params.b)
    i = check_word(i, params.b)
    lhs = symbolic_sum(params, x, w + i)
    rhs = symbolic_sum(params, x, w) + params.gamma ** len(w) * symbolic_sum(
        params, word_address(params, x, w), i
    )
    return abs(lhs - rhs)


def difference_residual(
    params: SystemParams,
    x: float,
    w: Sequence[int],
    i: Sequence[int],
    j: Sequence[int],
) -> float:
    """Residual of the difference form: common-prefix sums cancel exactly."""
    w = check_word(w, params.b)
    i = check_word(i, params.b)
    j = check_word(j, params.b)
    lhs = symbolic_sum(params, x, w + i) - symbolic_sum(params, x, w + j)
    wx = word_address(params, x, w)
    rhs = params.gamma ** len(w) * (
        symbolic_sum(params, wx, i) - symbolic_sum(params, wx, j)
    )
    return abs(lhs - rhs)


# === scale conversions ===


def scale_hat(params: SystemParams, n: int) -> int:
    """Smallest contraction count k with |gamma|^k <= b^{-n}.

    Exact: the log-based candidate is verified (and corrected) with
    rational arithmetic on the float value of |gamma|.
    """
    if n < 0:
        raise ValueError(f"scale index must be nonnegative, got {n}")
    if n == 0:
        return 0
    g = Fraction(params.gamma_abs)
    target = Fraction(1, params.b**n)
    cand = max(1, math.ceil(n * math.log(params.b) / -math.log(params.gamma_abs)))
    for k in range(max(1, cand - 2), cand + 4):
        if g**k <= target and g ** (k - 1) > target:
            return k
    # fallback scan; unreachable in practice
    k = 1
    while g**k > target:
        k += 1
    return k


def scale_tilde(params: SystemParams, n: int) -> int:
    """Grid level k with b^{-k} <= |gamma|^n < b^{-k+1}, exact as scale_hat."""
    if n < 0:
        raise ValueError(f"scale index must be nonnegative, got {n}")
    if n == 0:
        return 0
    g = Fraction(params.gamma_abs) ** n
    cand = max(1, math.floor(n * -math.log(params.gamma_abs) / math.log(params.b)))
    for k in range(max(1, cand - 2), cand + 4):
        if Fraction(1, params.b**k) <= g and g < Fraction(1, params.b ** (k - 1)):
            return k
    k = 1
    while not (Fraction(1, params.b**k) <= g < Fraction(1, params.b ** (k - 1))):
        k += 1
        if k > 10**6:
            raise RuntimeError("scale search failed")
    return k
