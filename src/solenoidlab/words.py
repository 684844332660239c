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

Scalar sums accumulate Horner-style from the deepest term outward.  Batch
sums go through one kernel, _branch_sums, which adds the terms in the
order n = 1, 2, ....  Since a_n and the partial sum S_n = S_{n-1} + gamma^{n-1}
phi(a_n) depend only on the first n digits, it grows them over the b-ary
prefix tree, one drive evaluation per distinct prefix, and then row by
row over per-row suffix digits.  The same level loop gives d/dx S with
drive phi' and weights gamma^{n-1} / b^n.  Batch and scalar sums agree to
machine accuracy.  A row's sum has the same bits whatever leaf range it
is grown in, and sampled suffix digits are counter-mode draws per
stratum, so the fiber module fills value blocks from independent tiles
on several threads, each writing its own slice of the block.
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
    """Branch point w(x) = (x + v) / b^m, v = word_value, for x in [0, 1).

    It lies in branch_interval(b, word).  Within an ulp or so of x = 1 the
    float quotient can round up to the interval's right end (v + 1) / b^m;
    it is then clamped to the last float below that end.
    """
    w = check_word(word, params.b)
    v, scale = word_value(w, params.b), params.b ** len(w)
    return min((x + v) / scale, math.nextafter((v + 1) / scale, 0.0))


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


def _index_digits(idx: np.ndarray, b: int, depth: int) -> np.ndarray:
    """Digit rows of word indices, as symbol_block; idx is divided in place."""
    rem = np.empty_like(idx)
    out = np.empty((len(idx), depth), dtype=_digit_dtype(b))
    for pos in range(depth - 1, -1, -1):
        np.divmod(idx, idx.dtype.type(b), out=(idx, rem))
        out[:, pos] = rem
    return out


def symbol_block(b: int, depth: int, start: int, stop: int) -> np.ndarray:
    """Symbol matrix of words start..stop-1 (lexicographic), shape (stop-start, depth).

    Column n holds w_{n+1}; w_1 is the most significant digit of the index.
    """
    # int32 division is markedly cheaper and covers every realistic block
    dtype = np.int32 if stop <= 2**31 else np.int64
    return _index_digits(np.arange(start, stop, dtype=dtype), b, depth)


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


def _first_samples(count: int, strata: int, ids: np.ndarray) -> np.ndarray:
    """Sample index at which each stratum in ids starts, as stratum_layout deals them.

    Stratum i holds count // strata samples, plus one while
    i < count % strata; ids may run to strata itself (the end).
    """
    ids = np.asarray(ids, dtype=np.int64)
    return ids * (count // strata) + np.minimum(ids, count % strata)


def _stratified_suffixes(
    b: int, depth: int, count: int, stream: SplitMix64, start: int, stop: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """(prefix_len, quotas, suffix digits) of the samples of strata [start, stop).

    Stratum i owns quotas[i - start] samples with prefix word i; their
    suffix digits come from the stratum's own counter-mode sub-stream.
    """
    s, strata, _ = stratum_layout(b, depth, count)
    if not 0 <= start <= stop <= strata:
        raise ValueError("stratum range out of bounds")
    firsts = _first_samples(count, strata, np.arange(start, stop + 1))
    firsts -= firsts[0]
    quotas = np.diff(firsts)
    total = int(firsts[-1])
    width = depth - s
    out = np.empty((total, width), dtype=_digit_dtype(b))
    if width and total:
        ids = np.arange(start + 1, stop + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = mix64_array(np.uint64(stream.state) + ids * np.uint64(GAMMA64))
            # digit k of sample j in its stratum: mix(state + (j*width + k + 1) * GAMMA)
            j = np.arange(total, dtype=np.uint64)
            j -= np.repeat(firsts[:-1].astype(np.uint64), quotas)
            j *= np.uint64(width * GAMMA64 % 2**64)
            z = np.repeat(states, quotas)
            z += j
            draw = j  # one scratch column, reused for every digit
            for k in range(width):
                z += np.uint64(GAMMA64)
                mix64_array(z, out=draw)
                out[:, k] = np.remainder(draw, np.uint64(b), out=draw)
    return s, quotas, out


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
    s, quotas, suffix = _stratified_suffixes(
        b, depth, count, stream, stratum_start, stratum_stop
    )
    prefix = symbol_block(b, s, stratum_start, stratum_stop)
    return np.hstack([np.repeat(prefix, quotas, axis=0), suffix])


# === the branch-sum kernel ===


def _branch_sums(
    params: SystemParams,
    x,
    prefix_len: int = 0,
    lo: int = 0,
    hi: int = 1,
    counts=None,
    suffix=None,
    derivative: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fiber sums S(x, w), or with derivative=True d/dx S(x, w), as complex128.

    The rows are the depth-prefix_len words of lexicographic index lo..hi-1,
    each repeated counts[i] times (once when counts is None) and continued
    by its row of the suffix digit matrix.  Prefix levels grow the b-ary
    tree: a_n = (a_{n-1} + w_n) / b and S_n = S_{n-1} + g_n drive(a_n) are
    formed once per distinct prefix.  Suffix levels run row by row.  A row
    gets the same float operations in the same order as when all its digits
    are suffix digits, so both forms agree bit for bit.  x is a scalar, or
    one base point per row when prefix_len is 0 and counts is None.  out,
    a complex128 array of one entry per row, receives the sums if given.
    """
    b = params.b
    if derivative:  # drive phi', level-n weight gamma^{n-1} / b^n
        drive, ratio, g = params.phi.derivative(), params.gamma / b, 1.0 / b + 0.0j
    else:
        drive, ratio, g = params.phi, params.gamma, 1.0 + 0.0j
    inv_b = 1.0 / b
    # rows: branch point a, Re S, Im S; one column per prefix or row
    st = np.zeros((3, np.size(x)), dtype=np.float64)
    st[0] += np.asarray(x, dtype=np.float64)
    digits = np.arange(b, dtype=np.float64)
    first = 0  # index of the first prefix held at the current tree level
    width = 0 if suffix is None else suffix.shape[1]
    for n in range(prefix_len + 1 + width):
        if n < prefix_len:
            unit = b ** (prefix_len - 1 - n)
            start = lo // unit
            st = np.repeat(st, b, axis=1)
            children = st[0].reshape(-1, b)
            children += digits
            children *= inv_b
            st = st[:, start - first * b : (hi - 1) // unit + 1 - first * b]
            first = start
        elif n == prefix_len:
            # the leaves, each repeated by its count, become the rows (a
            # repeat by all ones would only copy them)
            if counts is not None and np.any(np.not_equal(counts, 1)):
                st = np.repeat(st, counts, axis=1)
            continue
        else:
            st[0] += suffix[:, n - prefix_len - 1]
            st[0] *= inv_b
        v = drive(st[0])
        if g.imag != 0.0:
            st[2] += v * g.imag
        v *= g.real
        st[1] += v
        g *= ratio
    if out is None:
        out = np.empty(st.shape[1], dtype=np.complex128)
    out.real = st[1]
    out.imag = st[2]
    return out


def symbolic_sum_batch(params: SystemParams, x, symbols: np.ndarray) -> np.ndarray:
    """Fiber sums S(x, w) for every row of a symbol matrix, as complex128.

    x may be a scalar (shared base point) or one base point per row.  The
    flat case of _branch_sums; agrees with symbolic_sum to float roundoff.
    """
    counts = None if np.ndim(x) else [len(symbols)]
    return _branch_sums(params, x, counts=counts, suffix=symbols)


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
