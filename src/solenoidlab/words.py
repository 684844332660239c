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

Scalar sums accumulate Horner-style from the deepest term outward and
call the drive (libm cos and sin) at each a_n; they are the reference.
Batch sums go through one kernel, _branch_sums, which adds the terms in
the order n = 1, 2, ....  Since a_n = (x + j_n) / b^n, with j_n the
integer the first n digits spell, exp(2 pi i a_n) is exp(2 pi i x / b^n)
times roots of unity picked by those digits.  The kernel cuts the digits
into blocks of c digits from the first digit (b^c <= 4096), reads each
block's root from a cached table per (b, level), and multiplies the
factors in one canonical order, left to right; the drive reads cos and
sin of 2 pi k a_n as Re and Im of the k-th power of that phase.  Every
product is taken out of place: numpy's in-place complex product of short
arrays rounds without the fused multiply-add of its other loops.  A
phase and S_n = S_{n-1} + gamma^{n-1} phi(a_n) depend only on the first
n digits, so the kernel grows them over the b-ary prefix tree, one
phase per distinct prefix, and then row by row over per-row suffix
digits.  The same level loop gives d/dx S with drive phi' and weights
gamma^{n-1} / b^n.  Batch and scalar sums agree to machine accuracy.  A
row's sum depends only on (b, x, its digits), with the same bits
whatever leaf range it is grown in, and sampled suffix digits are
counter-mode draws per stratum, so the fiber module fills independent
tiles of a word list on several threads, each into its own array, in
any order.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

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
            if total == len(quotas):  # quotas are at least 1, so all are 1 and j = 0
                z = states
            else:
                j = np.arange(total, dtype=np.uint64)
                j -= np.repeat(firsts[:-1].astype(np.uint64), quotas)
                j *= np.uint64(width * GAMMA64 % 2**64)
                z = np.repeat(states, quotas)
                z += j
            draw, quot = np.empty_like(z), np.empty_like(z)  # scratch, reused for every digit
            for k in range(width):
                z += np.uint64(GAMMA64)
                mix64_array(z, out=draw)
                # draw - (draw // b) * b: a uint64 floor_divide vectorises, % does not
                np.floor_divide(draw, np.uint64(b), out=quot)
                quot *= np.uint64(b)
                out[:, k] = np.subtract(draw, quot, out=draw)
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

# a block of digits indexes one phase table of at most this many entries
# (b entries when b is larger): 64 KiB of complex128, resident in cache
_TABLE_ENTRIES = 4096
# suffix levels run over rows in chunks of this many, so that the
# temporaries of a chunk stay in a core's cache
_CHUNK_ROWS = 1 << 14
# rows of at least this many phases repay a Python call per row
_LONG_ROW = 1024


def _block_len(b: int) -> int:
    """Digits per block: the largest c with b^c <= _TABLE_ENTRIES, at least 1."""
    c = 1
    while b ** (c + 1) <= _TABLE_ENTRIES:
        c += 1
    return c


def _power(b: int, m: int) -> float:
    """b^m as a float; inf past the float range, where x / b^m is 0."""
    p = b**m
    return float(p) if p.bit_length() <= 1023 else math.inf


def _unit(turns: np.ndarray) -> np.ndarray:
    """exp(2 pi i turns) as complex128, from libm cos and sin."""
    angle = 2.0 * np.pi * turns
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


@functools.lru_cache(maxsize=256)
def _phase_table(b: int, m: int) -> np.ndarray:
    """R_m[i] = exp(2 pi i B / b^m) over the blocks of L = min(c, m) digits.

    c is _block_len(b).  A block (v_1, ..., v_L) sits at its lex index
    i = v_1 b^{L-1} + ... + v_L, the index the prefix tree grows by
    i <- i b + digit, and B = v_1 + v_2 b + ... + v_L b^{L-1} is its value.
    When m = L, B / b^m is taken in [-1/2, 1/2) so the angle stays small.
    The table is read-only and shared by every call and thread.
    """
    width = min(_block_len(b), m)
    value = np.zeros(1, dtype=np.int64)
    for k in range(width):  # i <- i b + v_{k+1} adds v_{k+1} b^k to B
        value = (value[:, None] + np.arange(b) * b**k).reshape(-1)
    if m == width:
        value[2 * value >= b**m] -= b**m
    table = _unit(value / _power(b, m))
    table.setflags(write=False)
    return table


def _lex_blocks(prefixes: np.ndarray, b: int, c: int, k: int) -> list:
    """Lex indices of the k blocks of c digits of each k c-digit prefix, first block first."""
    return [prefixes // b ** ((k - 1 - j) * c) % b**c for j in range(k)]


def _phase_product(z: np.ndarray, b: int, m: int, blocks: Sequence) -> np.ndarray:
    """z R_m[blocks[0]] R_{m-c}[blocks[1]] ..., multiplied left to right.

    Each product goes into a new array: numpy's in-place complex product
    of short arrays skips the fused multiply-add of its other loops, and a
    point must get the same bits in any array it is formed in.
    """
    c = _block_len(b)
    for j, lex in enumerate(blocks):
        z = z * _phase_table(b, m - j * c).take(lex)
    return z


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
    by its row of the suffix digit matrix.  x is a scalar, or one base
    point per row when prefix_len is 0 and counts is None.  out, a
    complex128 array of one entry per row, receives the sums if given.

    Level n adds g_n drive(a_n), g_n = gamma^{n-1} (and drive phi' with
    g_n = gamma^{n-1} / b^n for the derivative), and the drive reads the
    phase z_n = exp(2 pi i a_n) (TrigPoly.on_circle).  Cut the first n
    digits into blocks of c = _block_len(b) digits from the first digit;
    block j adds B_j / b^{n - j c} to a_n, so

        z_n = theta_n R_n[block 0] R_{n-c}[block 1] ...,  theta_n = exp(2 pi i x / b^n),

    multiplied left to right, each product out of place (_phase_product),
    from the cached tables of _phase_table.  Prefix levels grow the b-ary
    tree: the phases of a level are the outer product of one head per
    distinct first k c digits (theta_n times the full blocks) and the
    table of the last block, and S_n = S_{n-1} + g_n drive(z_n) is formed
    once per distinct prefix.  Suffix levels run row by row, in chunks of
    _CHUNK_ROWS rows: the blocks inside the prefix make a head per
    stratum, and the lex index of each block that holds suffix digits
    grows per row by i <- i b + digit.  Every point gets the same products
    and additions in the same order, whatever its form, so the tree and
    flat forms agree bit for bit.
    """
    b = params.b
    if derivative:  # drive phi', level-n weight gamma^{n-1} / b^n
        drive, ratio, g = params.phi.derivative(), params.gamma / b, 1.0 / b + 0.0j
    else:
        drive, ratio, g = params.phi, params.gamma, 1.0 + 0.0j
    c = _block_len(b)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    # rows: Re S, Im S; one column per prefix or row
    st = np.zeros((2, x.size), dtype=np.float64)
    width = 0 if suffix is None else suffix.shape[1]

    # k -> lex blocks of the distinct first k c digits of the leaves lo..hi-1;
    # every call below asks for prefixes of those leaves, so the set is the
    # same whichever call makes it
    heads = {}

    def tree_phases(n, d, start, stop):
        """z_n of the d-digit prefixes start..stop-1 of the tree, d <= prefix_len.

        Heads hold the full blocks before the last of the d digits; the
        last block is read from the level-n table of its position.
        """
        k, last = divmod(d - 1, c)
        span = b ** (last + 1)  # the last block holds last + 1 digits
        h0 = start // span
        if k not in heads:
            heads[k] = _lex_blocks(np.arange(h0, (stop - 1) // span + 1), b, c, k)
        head = _phase_product(_unit(x / _power(b, n)), b, n, heads[k])
        tail = _phase_table(b, n - k * c)
        nodes = slice(start - h0 * span, stop - h0 * span)
        if len(head) == 1:
            return head * tail[nodes]
        if span < _LONG_ROW:
            return (head[:, None] * tail).reshape(-1)[nodes]
        # on long rows one contiguous product per head is about twice as
        # fast as numpy's broadcast product, which runs a strided loop
        z = np.empty((len(head), span), dtype=np.complex128)
        for h, row in zip(head, z):
            np.multiply(h, tail, out=row)
        return z.reshape(-1)[nodes]

    first = 0  # index of the first prefix held at the current tree level
    for n in range(1, prefix_len + 1):
        # every child of the held prefixes, then the ones in range: S_n of
        # a child is S_{n-1} of its parent plus its own term
        unit = b ** (prefix_len - n)
        v = drive.on_circle(tree_phases(n, n, first * b, (first + st.shape[1]) * b))
        children = np.multiply.outer((g.real, g.imag), v).reshape(2, -1, b)
        children += st[:, :, None]
        g *= ratio
        start, stop = lo // unit, (hi - 1) // unit + 1
        st = children.reshape(2, -1)[:, start - first * b : stop - first * b]
        first = start
    # the leaves, each repeated by its count, become the rows (a repeat by
    # all ones would only copy them)
    spread = counts is not None and bool(np.any(np.not_equal(counts, 1)))
    if spread:
        st = np.repeat(st, counts, axis=1)
    if width:
        # blocks 0..kp-1 lie in the prefix and make a head per stratum; the
        # r prefix digits left start block kp, which grows per row
        kp, r = divmod(prefix_len, c)
        leaves = np.arange(lo, hi, dtype=np.int64)
        per_row = (lambda a: np.repeat(a, counts)) if spread else (lambda a: a)
        node0 = lo // b**r  # the first stratum head
        head_rows = per_row(leaves // b**r - node0) if kp and (r or spread) else None
        # lex index of each block that holds suffix digits, per row
        blocks = [per_row(leaves % b**r)] if r else []
        for col in range(width):
            n = prefix_len + 1 + col
            digit = suffix[:, col]
            if (n - 1) // c - kp == len(blocks):  # digit n starts a block
                blocks.append(digit.astype(np.int64))
            else:
                blocks[-1] *= b
                blocks[-1] += digit
            if kp:
                head = tree_phases(n, kp * c, node0, (hi - 1) // b**r + 1)
            else:
                head = _unit(x / _power(b, n))
            for r0 in range(0, st.shape[1], _CHUNK_ROWS):
                part = slice(r0, r0 + _CHUNK_ROWS)
                if head_rows is not None:
                    z = head[head_rows[part]]
                else:  # one head for all rows, or one per row
                    z = head if len(head) == 1 else head[part]
                z = _phase_product(z, b, n - kp * c, [lex[part] for lex in blocks])
                st[:, part] += np.multiply.outer((g.real, g.imag), drive.on_circle(z))
            g *= ratio
    if out is None:
        out = np.empty(st.shape[1], dtype=np.complex128)
    out.real = st[0]
    out.imag = st[1]
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
