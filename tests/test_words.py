"""Words, branch addresses, symbolic sums, and the scale conversions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab.rng import SplitMix64
from solenoidlab.words import (
    _block_len,
    _branch_sums,
    _phase_product,
    _power,
    _unit,
    branch_addresses,
    branch_interval,
    check_word,
    cocycle_residual,
    difference_residual,
    enumerate_words,
    sampled_symbol_block,
    scale_hat,
    scale_tilde,
    stratum_layout,
    symbol_block,
    symbolic_sum,
    symbolic_sum_batch,
    symbolic_sum_derivative,
    word_address,
    word_from_index,
    word_from_str,
    word_to_str,
    word_value,
)


def closed_form_sum(params, x, word):
    # addresses via a_n = (x + sum w_k b^{k-1}) / b^n, no recurrence reuse
    total = 0j
    acc = 0
    for n, wn in enumerate(word, start=1):
        acc += wn * params.b ** (n - 1)
        total += params.gamma ** (n - 1) * params.phi((x + acc) / params.b**n)
    return total


def small_system(b=2, gamma_abs=0.5):
    return SystemParams(b, gamma_abs, math.sqrt(2.0) - 1.0, TrigPoly(0.0, (1.0,), ()))


def test_word_value_positional():
    # least-significant symbol first
    assert word_value((1, 0, 1), 2) == 1 + 4
    assert word_value((2, 1), 3) == 2 + 3
    assert word_value((), 5) == 0


def test_check_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        check_word((0, 2), 2)
    with pytest.raises(ValueError):
        check_word((-1,), 3)
    with pytest.raises(ValueError):
        check_word((), 2)
    assert check_word((), 2, allow_empty=True) == ()


def test_word_str_round_trip():
    assert word_to_str((0, 1, 2)) == "012"
    assert word_from_str("012") == (0, 1, 2)
    for w in enumerate_words(3, 3):
        assert word_from_str(word_to_str(w)) == w


def test_word_from_index_is_lexicographic():
    words = [word_from_index(i, 3, 2) for i in range(9)]
    assert words == sorted(words)
    assert words == enumerate_words(3, 2)


def test_word_address_matches_closed_form():
    p = small_system()
    x = 0.3
    for w in enumerate_words(2, 4):
        expected = (x + word_value(w, 2)) / 2**4
        assert word_address(p, x, w) == pytest.approx(expected, abs=1e-15)


def test_branch_addresses_are_prefix_addresses():
    p = small_system(3)
    x = 0.41
    w = (2, 0, 1, 2)
    addrs = branch_addresses(p, x, w)
    assert len(addrs) == 4
    for n in range(1, 5):
        assert addrs[n - 1] == pytest.approx(word_address(p, x, w[:n]), abs=1e-15)


def test_branch_interval_contains_addresses():
    p = small_system(3)
    for w in enumerate_words(3, 2):
        lo, hi = branch_interval(3, w)
        assert hi - lo == pytest.approx(3.0**-2)
        for x in (0.0, 0.5, 0.999):
            a = word_address(p, x, w)
            assert lo <= a < hi


def _below_one(ulps):
    x = 1.0
    for _ in range(ulps):
        x = math.nextafter(x, 0.0)
    return x


@given(
    b=st.sampled_from([2, 3, 5, 7]),
    digits=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    x=st.one_of(st.integers(1, 4).map(_below_one), st.floats(0.0, 1.0, exclude_max=True)),
)
@example(b=2, digits=[0, 1], x=1.0 - 2.0**-52)
@example(b=2, digits=[1, 1], x=1.0 - 2.0**-52)
@settings(max_examples=200, deadline=None)
def test_word_address_stays_in_branch_interval(b, digits, x):
    # near x = 1 the quotient (x + v) / b^m can round up to (v + 1) / b^m
    w = tuple(d % b for d in digits)
    lo, hi = branch_interval(b, w)
    assert lo <= word_address(small_system(b), x, w) < hi


def test_symbolic_sum_frozen_oracle():
    # values computed by an independent closed-form evaluation
    p2 = small_system(2, 0.5)
    v = symbolic_sum(p2, 0.3, (1, 0, 1, 1, 0, 1))
    assert v.real == pytest.approx(-0.42954333801569095, abs=1e-13)
    assert v.imag == pytest.approx(0.10099348926374133, abs=1e-13)
    p3 = small_system(3, 0.55)
    v3 = symbolic_sum(p3, 0.7, (2, 0, 1))
    assert v3.real == pytest.approx(0.8241471327306689, abs=1e-13)
    assert v3.imag == pytest.approx(0.1562308467118822, abs=1e-13)


@given(
    st.integers(2, 5),
    st.floats(0.05, 0.9),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 10**6),
    st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_symbolic_sum_matches_closed_form(b, gamma_abs, x, widx, length):
    p = small_system(b, gamma_abs)
    w = word_from_index(widx % b**length, b, length)
    assert symbolic_sum(p, x, w) == pytest.approx(
        closed_form_sum(p, x, w), abs=1e-11
    )


@given(
    st.integers(2, 4),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 10**6),
    st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_cocycle_residual_tiny(b, x, wi, wl, ii, il):
    p = small_system(b, 0.6)
    w = word_from_index(wi % b**wl, b, wl)
    i = word_from_index(ii % b**il, b, il)
    assert cocycle_residual(p, x, w, i) < 1e-12


@given(
    st.integers(2, 4),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_difference_residual_tiny(b, x, ii, jj):
    p = small_system(b, 0.45)
    w = word_from_index(5 % b**3, b, 3)
    i = word_from_index(ii % b**2, b, 2)
    j = word_from_index(jj % b**2, b, 2)
    assert difference_residual(p, x, w, i, j) < 1e-12


def test_derivative_sum_central_difference():
    p = small_system(2, 0.5)
    w = (1, 0, 1, 1)
    h = 1e-6
    for x in (0.12, 0.5, 0.88):
        numeric = (symbolic_sum(p, x + h, w) - symbolic_sum(p, x - h, w)) / (2 * h)
        exact = symbolic_sum_derivative(p, x, w)
        assert abs(exact - numeric) < 1e-5


def test_derivative_chain_factor():
    # each term carries 1/b^n from the address map, so deepening by one
    # symbol multiplies the new term's slope by 1/b
    p = small_system(2, 0.5)
    d1 = symbolic_sum_derivative(p, 0.2, (1,))
    expected = p.phi.derivative()((0.2 + 1) / 2) / 2
    assert abs(d1 - expected) < 1e-12


def test_symbol_block_matches_enumeration():
    for b, depth in ((2, 5), (3, 3)):
        words = enumerate_words(b, depth)
        block = symbol_block(b, depth, 0, b**depth)
        assert block.shape == (b**depth, depth)
        for row, w in zip(block, words):
            assert tuple(int(v) for v in row) == w
        # windows are consistent with the full block
        part = symbol_block(b, depth, 3, 11)
        assert np.array_equal(part, block[3:11])


def test_symbolic_sum_batch_matches_scalar():
    p = small_system(3, 0.55)
    block = symbol_block(3, 4, 0, 81)
    vals = symbolic_sum_batch(p, 0.37, block)
    for row, v in zip(block, vals):
        assert v == pytest.approx(symbolic_sum(p, 0.37, tuple(int(s) for s in row)), abs=1e-12)


def test_symbolic_sum_batch_per_row_base_points():
    p = small_system(2, 0.5)
    block = symbol_block(2, 3, 0, 8)
    xs = np.linspace(0.0, 0.9, 8)
    vals = symbolic_sum_batch(p, xs, block)
    for x, row, v in zip(xs, block, vals):
        assert v == pytest.approx(symbolic_sum(p, float(x), tuple(int(s) for s in row)), abs=1e-12)


@given(
    b=st.integers(2, 300),
    depth=st.integers(1, 3),
    start=st.integers(0, 10**6),
    x=st.floats(0.0, 0.99),
)
@settings(max_examples=60, deadline=None)
def test_batch_sums_match_scalar_for_wide_bases(b, depth, start, x):
    # digits above 127 must not wrap in the symbol matrices
    p = small_system(b, 0.5)
    start %= b**depth
    stop = min(b**depth, start + 40)
    exhaustive = symbol_block(b, depth, start, stop)
    sampled = sampled_symbol_block(b, depth, 3 * b, SplitMix64(start, "wide"), 0, 1)
    for block in (exhaustive, sampled):
        assert block.min() >= 0 and block.max() < b
        vals = symbolic_sum_batch(p, x, block)
        for row, v in zip(block, vals):
            word = tuple(int(s) for s in row)
            assert v == pytest.approx(symbolic_sum(p, x, word), abs=1e-12)
    for i, row in zip(range(start, stop), exhaustive):
        assert tuple(int(s) for s in row) == word_from_index(i, b, depth)


def assert_tree_matches_flat(p, x, prefix_len, lo, counts, suffix):
    # the tree form adds the same terms in the same order as the flat form,
    # for the sums and their derivatives, and both match the scalar sums
    counts = np.asarray(counts)
    hi = lo + len(counts)
    heads = np.repeat(symbol_block(p.b, prefix_len, lo, hi), counts, axis=0)
    full = np.hstack([heads.astype(np.int64), suffix])
    tree = _branch_sums(p, x, prefix_len, lo, hi, counts, suffix)
    flat = symbolic_sum_batch(p, x, full)
    assert np.array_equal(tree.view(np.uint64), flat.view(np.uint64))
    deriv = _branch_sums(p, x, prefix_len, lo, hi, counts, suffix, derivative=True)
    flat = _branch_sums(p, x, counts=[len(full)], suffix=full, derivative=True)
    assert np.array_equal(deriv.view(np.uint64), flat.view(np.uint64))
    for row, v, d in zip(full, tree, deriv):
        word = tuple(int(s) for s in row)
        if word:
            assert abs(v - symbolic_sum(p, x, word)) < 1e-12
            assert abs(d - symbolic_sum_derivative(p, x, word)) < 1e-12
        else:
            assert v == 0 and d == 0


@given(
    b=st.integers(2, 300),
    prefix_len=st.integers(0, 4),
    suffix_len=st.integers(0, 4),
    data=st.data(),
    x=st.floats(0.0, 0.99),
)
@example(b=200, prefix_len=2, suffix_len=2, data=None, x=0.3)
@settings(max_examples=80, deadline=None)
def test_prefix_tree_kernel_matches_flat_and_scalar(b, prefix_len, suffix_len, data, x):
    p = SystemParams(b, 0.6, 0.137, TrigPoly(0.3, (1.0, 0.5), (0.25,)))
    while b**prefix_len > 10**6:
        prefix_len -= 1
    leaves = b**prefix_len
    if data is None:  # the explicit example: a range straddling two subtrees
        lo = b - 3
        counts = np.array([2, 0, 1, 3, 1, 0, 2])
    else:
        lo = data.draw(st.integers(0, leaves - 1))
        hi = data.draw(st.integers(lo + 1, min(leaves, lo + 20)))
        n = hi - lo
        counts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    rows = int(counts.sum())
    suffix = SplitMix64(b + lo, "suffix").integers(0, rows * suffix_len, b)
    assert_tree_matches_flat(p, x, prefix_len, lo, counts, suffix.reshape(rows, suffix_len))


@pytest.mark.parametrize(
    "b,prefix_len,suffix_len,lo,counts",
    [
        # blocks of 12, 12 and 2 digits, all in the prefix, then split 14 + 12
        (2, 26, 0, 2**25 - 40, [1] * 80),
        (2, 14, 12, 4000, [1, 3, 0, 2, 1, 0, 0, 4]),
        # blocks of 7: block 1 holds prefix digits 8-9 and suffix digits 10-14
        (3, 9, 7, 3**8 - 3, [2, 0, 1, 3, 1, 0]),
        # one row: a one-stratum tile, and a word with no prefix
        (3, 9, 7, 3**9 - 1, [1]),
        (3, 0, 16, 0, [1]),
    ],
)
def test_kernel_block_structure_matches_flat_and_scalar(b, prefix_len, suffix_len, lo, counts):
    # the hypothesis ranges above never reach a second full block at b = 2 or 3
    p = SystemParams(b, 0.8, 0.137, TrigPoly(0.3, (1.0, 0.5), (0.25,)))
    rows = sum(counts)
    suffix = SplitMix64(lo, "blocks").integers(0, rows * suffix_len, b)
    assert_tree_matches_flat(p, 0.61, prefix_len, lo, counts, suffix.reshape(rows, suffix_len))


@pytest.mark.parametrize("b", [2, 3, 5, 10, 128, 200])
def test_table_phases_match_exp(b):
    # z_n = theta_n R_n[block 0] R_{n-c}[block 1] ... over blocks of c digits
    # from the first digit, in the lex index of each block
    c = _block_len(b)
    rng = random.Random(b)
    for _ in range(200):
        n = rng.randint(1, 60 // int(math.log2(b)))
        x, j = rng.random(), rng.randrange(b**n)
        digits = [j // b**k % b for k in range(n)]  # w_1 is the least significant
        blocks = []
        for start in range(0, n, c):
            lex = 0
            for w in digits[start : start + c]:
                lex = lex * b + w
            blocks.append(np.array([lex]))
        theta = _unit(np.array([x]) / _power(b, n))
        z = _phase_product(theta, b, n, blocks)[0]
        assert abs(z - np.exp(2j * np.pi * ((x + j) / b**n))) < 4e-15


def test_sampled_symbol_block_split_invariance():
    # drawing strata [0,4) in one call or as [0,2)+[2,4) yields the same rows
    s, strata, base = stratum_layout(2, 6, 300)
    stream = SplitMix64(9, "sample")
    whole = sampled_symbol_block(2, 6, 300, stream, 0, strata)
    first = sampled_symbol_block(2, 6, 300, stream, 0, strata // 2)
    second = sampled_symbol_block(2, 6, 300, stream, strata // 2, strata)
    assert np.array_equal(whole, np.concatenate([first, second]))


@pytest.mark.parametrize("b", [2, 3, 10, 128, 129, 200])
def test_sampled_symbol_block_matches_a_modulo_reference(b):
    # suffix digit k of sample j in stratum i is output j * width + k of
    # the stream seeded by output i, taken mod b (int8 up to b = 128);
    # b^2 samples put one sample in each stratum
    depth, start, stop = 7, 1, 5
    stream = SplitMix64(17, "digits")
    for count in (70, b * b):
        s, strata, _ = stratum_layout(b, depth, count)
        last = min(stop, strata)
        first = min(start, last - 1)
        width = depth - s
        want = []
        for i in range(first, last):
            sub = SplitMix64(0)
            sub.state = stream.word(i)
            quota = count // strata + (i < count % strata)
            prefix = [(i // b**p) % b for p in range(s - 1, -1, -1)]
            want += [prefix + [sub.word(j * width + k) % b for k in range(width)] for j in range(quota)]
        got = sampled_symbol_block(b, depth, count, stream, first, last)
        assert got.dtype == (np.int8 if b <= 128 else np.int64)
        assert got.tolist() == want


def brute_scale_hat(params, n):
    g = Fraction(params.gamma_abs)
    target = Fraction(1, params.b**n)
    k = 1
    while g**k > target:
        k += 1
    return k


def brute_scale_tilde(params, n):
    g = Fraction(params.gamma_abs) ** n
    k = 1
    while not (Fraction(1, params.b**k) <= g < Fraction(1, params.b ** (k - 1))):
        k += 1
    return k


def test_scale_conversions_match_brute_force():
    for b, gamma_abs in ((2, 0.5), (3, 0.55), (5, 0.3), (2, 0.9), (3, 0.17)):
        p = small_system(b, gamma_abs)
        for n in range(1, 30):
            assert scale_hat(p, n) == brute_scale_hat(p, n), (b, gamma_abs, n)
            assert scale_tilde(p, n) == brute_scale_tilde(p, n), (b, gamma_abs, n)


def test_scale_conversions_at_zero():
    p = small_system()
    assert scale_hat(p, 0) == 0
    assert scale_tilde(p, 0) == 0


def test_scale_hat_defining_inequalities():
    p = small_system(3, 0.4)
    for n in range(1, 15):
        k = scale_hat(p, n)
        assert p.gamma_abs**k <= p.b**-n
        assert p.gamma_abs ** (k - 1) > p.b**-n


def test_scale_tilde_defining_inequalities():
    p = small_system(2, 0.7)
    for n in range(1, 15):
        k = scale_tilde(p, n)
        assert p.b**-k <= p.gamma_abs**n < p.b ** (-(k - 1))
