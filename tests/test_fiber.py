"""Fiber measure construction: certification, oracles, refinement, determinism."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import fiber
from solenoidlab.fiber import (
    EXHAUSTIVE_WORD_BUDGET,
    FiberMeasureSpec,
    build_fiber_measure,
    certified_level,
    depth_for_resolution,
    fiber_value_chunks,
    refine_fiber_measure,
)
from solenoidlab.gridmeasure import _bin_points, _reduce_rows, dump_measure, load_measure
from solenoidlab.params import SystemParams, TrigPoly
from solenoidlab.rng import SplitMix64
from solenoidlab.words import (
    _branch_sums,
    _stratified_suffixes,
    enumerate_words,
    stratum_layout,
    symbolic_sum,
    word_address,
)


def enumeration_oracle(params, x, depth, level):
    """Bin every word's branch sum by hand: dict of cell -> count.

    Evaluates the sum by the closed-form address formula, an independent
    path from the package's recurrence-based batch evaluator.
    """
    table = {}
    scale = params.b**level
    for w in enumerate_words(params.b, depth):
        total = 0j
        acc = 0
        for n, wn in enumerate(w, start=1):
            acc += wn * params.b ** (n - 1)
            total += params.gamma ** (n - 1) * params.phi(
                (x + acc) / params.b**n
            )
        key = (math.floor(total.real * scale), math.floor(total.imag * scale))
        table[key] = table.get(key, 0) + 1
    return table


def test_certified_level_matches_rational_scan(system_b2, system_b3):
    for p in (system_b2, system_b3):
        for depth in (3, 6, 10, 15):
            lev = certified_level(p, depth)
            tail = Fraction(p.tail_bound(depth))
            assert Fraction(1, p.b**lev) >= tail
            assert Fraction(1, p.b ** (lev + 1)) < tail


def test_certified_level_zero_drive_hits_cap(zero_system):
    # no tail at all: certification limited only by index safety
    lev = certified_level(zero_system, 1)
    assert lev > 50


def test_depth_for_resolution_minimal(system_b3):
    for resolution in (2, 5, 9):
        d = depth_for_resolution(system_b3, resolution)
        assert certified_level(system_b3, d) >= resolution
        assert certified_level(system_b3, d - 1) < resolution


def test_spec_validation_rejects_uncertified(system_b2):
    spec = FiberMeasureSpec(system_b2, 0.3, 4, 12)
    with pytest.raises(ValueError, match="not certified"):
        spec.validate()


def test_spec_validation_rejects_over_budget(system_b2):
    depth = 30
    assert system_b2.b**depth > EXHAUSTIVE_WORD_BUDGET
    spec = FiberMeasureSpec(system_b2, 0.3, depth, 4)
    with pytest.raises(ValueError, match="word budget"):
        spec.validate()


def test_build_matches_enumeration_oracle(system_b2):
    spec = FiberMeasureSpec(system_b2, 0.3, 8, 5)
    mu = build_fiber_measure(spec)
    assert mu.cells() == enumeration_oracle(system_b2, 0.3, 8, 5)
    assert mu.total == 2**8


def test_build_matches_enumeration_oracle_b3(system_b3):
    spec = FiberMeasureSpec(system_b3, 0.62, 9, 4)
    mu = build_fiber_measure(spec)
    assert mu.cells() == enumeration_oracle(system_b3, 0.62, 9, 4)
    assert mu.total == 3**9


def test_zero_drive_gives_point_mass(zero_system):
    spec = FiberMeasureSpec(zero_system, 0.4, 10, 6)
    mu = build_fiber_measure(spec)
    assert mu.ncells == 1
    assert mu.total == 2**10
    assert mu.cells() == {(0, 0): 2**10}


def test_constant_drive_gives_point_mass(constant_system):
    # every word sums the same geometric series
    spec = FiberMeasureSpec(constant_system, 0.1, 12, 6)
    mu = build_fiber_measure(spec)
    assert mu.ncells == 1
    value = constant_system.phi(0.0) * (
        1 - constant_system.gamma**12
    ) / (1 - constant_system.gamma)
    scale = 2**6
    key = (math.floor(value.real * scale), math.floor(value.imag * scale))
    assert mu.cells() == {key: 2**12}


def test_support_inside_certified_box(system_b3):
    mu = build_fiber_measure(FiberMeasureSpec(system_b3, 0.8, 8, 3))
    centers = mu.centers()
    radius = system_b3.attractor_radius + system_b3.b**-3
    assert np.all(np.abs(centers) <= radius)


@pytest.mark.parametrize(
    "mode,sample_count",
    # 50 samples at depth 7: 32 strata of 1 or 2 words, two suffix digits,
    # and blocks of 6 strata
    [("exhaustive", 0), ("sampled", 50)],
    ids=["exhaustive", "sampled"],
)
def test_value_chunks_concatenate_to_full_set(system_b2, mode, sample_count):
    spec = FiberMeasureSpec(
        system_b2, 0.55, 7, 4, mode=mode, sample_count=sample_count, seed=3
    )
    chunks = list(fiber_value_chunks(spec, block_words=13))
    assert len(chunks) > 2
    values = np.concatenate(chunks)
    assert len(values) == spec.total_words
    whole = np.concatenate(list(fiber_value_chunks(spec)))
    assert np.array_equal(values, whole)


@given(
    b=st.integers(2, 4),
    depth=st.integers(1, 7),
    count=st.integers(1, 400),
    sampled=st.booleans(),
    tile_rows=st.integers(1, 9),
    block_words=st.integers(1, 60),
    cpus=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_tiled_blocks_match_one_range(
    b, depth, count, sampled, tile_rows, block_words, cpus
):
    # tiny tiles split every block, and sampled strata hold uneven quotas
    # when count % strata != 0; the values must be the one-range kernel's bits
    while b**depth > 600:  # one-row tiles: keep the tile count small
        depth -= 1
    p = SystemParams(b, 0.5, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    x = 0.37
    if sampled:
        spec = FiberMeasureSpec(
            p, x, depth, 0, mode="sampled", sample_count=count, seed=11
        )
        s, strata, base_quota = stratum_layout(b, depth, count)
        stream = SplitMix64(spec.seed, "fiber.samples")
        _, quotas, suffix = _stratified_suffixes(b, depth, count, stream, 0, strata)
        whole = _branch_sums(p, x, s, 0, strata, quotas, suffix)
        per_block = max(1, block_words // (base_quota + 1))
        sizes = [
            int(quotas[lo : lo + per_block].sum()) for lo in range(0, strata, per_block)
        ]
    else:
        spec = FiberMeasureSpec(p, x, depth, 0)
        whole = _branch_sums(p, x, depth, 0, b**depth)
        sizes = [
            len(whole[lo : lo + block_words]) for lo in range(0, b**depth, block_words)
        ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "_TILE_ROWS", tile_rows)
        mp.setattr(fiber, "_cpus", lambda: cpus)
        chunks = list(fiber_value_chunks(spec, block_words=block_words))
    assert [len(c) for c in chunks] == sizes
    assert np.array_equal(np.concatenate(chunks).view(np.uint64), whole.view(np.uint64))


@given(
    b=st.integers(2, 4),
    depth=st.integers(1, 7),
    count=st.integers(1, 400),
    sampled=st.booleans(),
    tile_rows=st.integers(1, 9),
    block_words=st.integers(1, 60),
    cpus=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_tile_map_matches_unmapped_values(
    b, depth, count, sampled, tile_rows, block_words, cpus
):
    # each tile's map sees its own values and the index of its first row,
    # and the mapped build equals one reduction of all unmapped values
    while b**depth > 600:
        depth -= 1
    p = SystemParams(b, 0.5, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    level = min(3, certified_level(p, depth))
    if sampled:
        spec = FiberMeasureSpec(
            p, 0.37, depth, level, mode="sampled", sample_count=count, seed=11
        )
    else:
        spec = FiberMeasureSpec(p, 0.37, depth, level)
    whole = np.concatenate(list(fiber_value_chunks(spec)))
    rows, near = _bin_points(whole, b, level)
    idx, w = _reduce_rows(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "_TILE_ROWS", tile_rows)
        mp.setattr(fiber, "_cpus", lambda: cpus)
        blocks = list(
            fiber_value_chunks(
                spec, block_words, tile_map=lambda v, row0: (row0, v.copy())
            )
        )
        mu = build_fiber_measure(spec)
    placed = np.full(len(whole), np.nan, dtype=np.complex128)
    for tiles in blocks:
        for row0, values in tiles:
            placed[row0 : row0 + len(values)] = values
    assert [row0 for tiles in blocks for row0, _ in tiles] == sorted(
        row0 for tiles in blocks for row0, _ in tiles
    )
    assert np.array_equal(placed.view(np.uint64), whole.view(np.uint64))
    assert np.array_equal(mu.idx, idx) and np.array_equal(mu.weights, w)
    assert mu.boundary_ambiguous == near


@pytest.mark.parametrize("mode,sample_count", [("exhaustive", 0), ("sampled", 2000)])
def test_tiles_under_thread_stress(system_b3, monkeypatch, mode, sample_count):
    # more threads than cores and a short switch interval: each tile
    # must still be taken once and written to its own slice
    spec = FiberMeasureSpec(
        system_b3, 0.21, 7, 3, mode=mode, sample_count=sample_count, seed=4
    )
    whole = np.concatenate(list(fiber_value_chunks(spec, block_words=400)))
    monkeypatch.setattr(fiber, "_TILE_ROWS", 3)
    monkeypatch.setattr(fiber, "_cpus", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        chunks = list(fiber_value_chunks(spec, block_words=400))
        mapped = list(
            fiber_value_chunks(
                spec, block_words=400, tile_map=lambda v, row0: (row0, v.copy())
            )
        )
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(np.concatenate(chunks).view(np.uint64), whole.view(np.uint64))
    tiles = [tile for block in mapped for tile in block]
    assert [row0 for row0, _ in tiles] == np.cumsum([0] + [len(v) for _, v in tiles])[:-1].tolist()
    assert np.array_equal(
        np.concatenate([v for _, v in tiles]).view(np.uint64), whole.view(np.uint64)
    )


def test_tile_error_reaches_the_caller(system_b2, monkeypatch):
    # a tile that fails on a helper thread fails the block, not silently,
    # whether its values or its map raise
    def failing(params, x, prefix_len, lo, hi, *rest, **kw):
        if lo >= 40:
            raise ArithmeticError("tile failed")
        return _branch_sums(params, x, prefix_len, lo, hi, *rest, **kw)

    monkeypatch.setattr(fiber, "_TILE_ROWS", 8)
    monkeypatch.setattr(fiber, "_cpus", lambda: 2)
    spec = FiberMeasureSpec(system_b2, 0.55, 7, 4)
    with monkeypatch.context() as mp:
        mp.setattr(fiber, "_branch_sums", failing)
        with pytest.raises(ArithmeticError, match="tile failed"):
            list(fiber_value_chunks(spec, block_words=64))

    # no tile is handed out after an error: inline, the tiles after the
    # failing one are never mapped, and no block after it is started
    for cpus in (1, 2):
        mapped = []

        def failing_map(values, row0):
            mapped.append(row0)
            if row0 == 8:
                raise ArithmeticError("map failed")
            return row0

        monkeypatch.setattr(fiber, "_cpus", lambda: cpus)
        with pytest.raises(ArithmeticError, match="map failed"):
            list(fiber_value_chunks(spec, block_words=64, tile_map=failing_map))
        assert 8 in mapped and max(mapped) < 64
        if cpus == 1:
            assert mapped == [0, 8]


def test_thread_count_invariance_exhaustive(system_b3, monkeypatch):
    # small tiles and four CPUs, so threads=3 runs three workers
    monkeypatch.setattr(fiber, "_TILE_ROWS", 100)
    monkeypatch.setattr(fiber, "_cpus", lambda: 4)
    spec = FiberMeasureSpec(system_b3, 0.21, 7, 3)
    mu1 = build_fiber_measure(spec, threads=1)
    mu3 = build_fiber_measure(spec, threads=3)
    assert mu1.equals(mu3)
    assert mu1.boundary_ambiguous == mu3.boundary_ambiguous


def test_thread_count_invariance_sampled(system_b3, monkeypatch):
    monkeypatch.setattr(fiber, "_TILE_ROWS", 100)
    monkeypatch.setattr(fiber, "_cpus", lambda: 4)
    spec = FiberMeasureSpec(
        system_b3, 0.21, 12, 5, mode="sampled", sample_count=5000, seed=77
    )
    mu1 = build_fiber_measure(spec, threads=1)
    mu4 = build_fiber_measure(spec, threads=4)
    assert mu1.equals(mu4)
    assert mu1.total == 5000


def test_threads_cap_the_workers(system_b3, monkeypatch):
    started = []

    class Counted(fiber._Helpers):
        def __init__(self, count):
            started.append(count)
            super().__init__(count)

    monkeypatch.setattr(fiber, "_TILE_ROWS", 100)
    monkeypatch.setattr(fiber, "_cpus", lambda: 3)
    monkeypatch.setattr(fiber, "_Helpers", Counted)
    spec = FiberMeasureSpec(system_b3, 0.21, 7, 3)
    for threads in (None, 1, 2, 8):
        build_fiber_measure(spec, threads=threads)
    assert started == [2, 0, 1, 2]
    with pytest.raises(ValueError, match="threads must be positive"):
        build_fiber_measure(spec, threads=0)


def test_helper_threads_live_for_one_stream(system_b2, monkeypatch):
    # one set of helpers serves every block of a stream, and is gone when
    # the stream ends or is dropped
    monkeypatch.setattr(fiber, "_TILE_ROWS", 8)
    monkeypatch.setattr(fiber, "_cpus", lambda: 3)
    spec = FiberMeasureSpec(system_b2, 0.55, 7, 4)
    before = threading.active_count()
    idents = set()

    def record(values, row0):
        idents.add(threading.get_ident())

    blocks = fiber_value_chunks(spec, block_words=32, tile_map=record)
    next(blocks)
    assert threading.active_count() <= before + 2
    for _ in blocks:
        assert threading.active_count() <= before + 2
    assert len(idents) <= 3
    assert threading.active_count() == before
    dropped = fiber_value_chunks(spec, block_words=32, tile_map=record)
    next(dropped)
    del dropped
    assert threading.active_count() == before


def test_sampled_same_seed_reproduces(system_b2):
    spec = FiberMeasureSpec(
        system_b2, 0.9, 16, 8, mode="sampled", sample_count=3000, seed=5
    )
    assert build_fiber_measure(spec).equals(build_fiber_measure(spec))


def test_sampled_different_seed_differs(system_b2):
    a = build_fiber_measure(
        FiberMeasureSpec(system_b2, 0.9, 16, 8, mode="sampled", sample_count=3000, seed=5)
    )
    b = build_fiber_measure(
        FiberMeasureSpec(system_b2, 0.9, 16, 8, mode="sampled", sample_count=3000, seed=6)
    )
    assert not a.equals(b)


def test_refinement_identity_small():
    # child-path vs direct-path equality
    p = SystemParams(2, 0.1, math.sqrt(2.0) - 1.0, TrigPoly(0.0, (1.0,), ()))
    x = 0.3177
    k, child_depth = 2, 8
    child_level = certified_level(p, child_depth)
    target = 3
    children = {}
    for j in enumerate_words(p.b, k):
        cx = word_address(p, x, j)
        children[j] = build_fiber_measure(
            FiberMeasureSpec(p, cx, child_depth, child_level)
        )
    refined = refine_fiber_measure(p, x, k, children, target)
    direct = build_fiber_measure(
        FiberMeasureSpec(p, x, child_depth + k, target)
    )
    assert refined.total == direct.total == 2 ** (child_depth + k)
    assert refined.cells() == direct.cells()


def test_refine_missing_child_error(system_b2):
    children = {
        (0,): build_fiber_measure(FiberMeasureSpec(system_b2, 0.1, 6, 3))
    }
    with pytest.raises(ValueError, match="missing child"):
        refine_fiber_measure(system_b2, 0.1, 1, children, 2)


def test_refine_single_word_zero_drive(zero_system):
    children = {
        (j,): build_fiber_measure(
            FiberMeasureSpec(zero_system, word_address(zero_system, 0.5, (j,)), 6, 10)
        )
        for j in range(2)
    }
    mu = refine_fiber_measure(zero_system, 0.5, 1, children, 5)
    # every sum is exactly 0, a cell corner, which the half-open cells send
    # to the cell on its upper right
    assert mu.cells() == {(0, 0): 2**7}


@given(
    b=st.integers(2, 4),
    k=st.integers(1, 2),
    child_depth=st.integers(1, 5),
    x=st.floats(0.0, 1.0, exclude_max=True),
    gamma_abs=st.floats(0.3, 0.8),
    coarser=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_refined_equals_direct_build(b, k, child_depth, x, gamma_abs, coarser):
    while b ** (k + child_depth) > 2000:
        child_depth -= 1
    p = SystemParams(b, gamma_abs, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    child_level = certified_level(p, child_depth)
    target = max(0, child_level - coarser)
    children = {
        w: build_fiber_measure(
            FiberMeasureSpec(p, word_address(p, x, w), child_depth, child_level)
        )
        for w in enumerate_words(b, k)
    }
    refined = refine_fiber_measure(p, x, k, children, target)
    direct = build_fiber_measure(FiberMeasureSpec(p, x, child_depth + k, target))
    assert refined.equals(direct)
    tallies = sum(c.boundary_ambiguous for c in children.values())
    assert refined.boundary_ambiguous == direct.boundary_ambiguous + tallies


def _children(p, x, k, depth, level, **kw):
    return {
        w: build_fiber_measure(FiberMeasureSpec(p, word_address(p, x, w), depth, level, **kw))
        for w in enumerate_words(p.b, k)
    }


def test_refine_rejects_children_it_cannot_place(system_b2):
    x = 0.3
    good = _children(system_b2, x, 1, 6, 3)
    # a loaded child has no provenance
    loaded = dict(good)
    loaded[(1,)] = load_measure(dump_measure(good[(1,)]))
    # a sampled child, a child at another base point, a child of another depth
    sampled = dict(good)
    sampled[(0,)] = _children(
        system_b2, x, 1, 6, 3, mode="sampled", sample_count=64, seed=1
    )[(0,)]
    moved = dict(good)
    moved[(0,)] = build_fiber_measure(FiberMeasureSpec(system_b2, 0.4, 6, 3))
    deeper = dict(good)
    deeper[(1,)] = _children(system_b2, x, 1, 7, 3)[(1,)]
    for children in (loaded, sampled, moved):
        with pytest.raises(ValueError, match="not an exhaustive fiber build"):
            refine_fiber_measure(system_b2, x, 1, children, 2)
    with pytest.raises(ValueError, match="share one depth"):
        refine_fiber_measure(system_b2, x, 1, deeper, 2)
    with pytest.raises(ValueError, match="finer than child level"):
        refine_fiber_measure(system_b2, x, 1, good, 4)
    assert refine_fiber_measure(system_b2, x, 1, good, 2).total == 2**7


def test_refine_enforces_the_word_budget_on_the_whole_depth(system_b2, monkeypatch):
    good = _children(system_b2, 0.3, 2, 6, 3)
    monkeypatch.setattr(fiber, "EXHAUSTIVE_WORD_BUDGET", 2**7)
    with pytest.raises(ValueError, match="word budget exceeded"):
        refine_fiber_measure(system_b2, 0.3, 2, good, 2)


@given(
    b=st.integers(2, 3),
    k=st.integers(1, 2),
    child_depth=st.integers(1, 5),
    x=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=30, deadline=None)
def test_pushed_forward_child_values_are_the_direct_leaf_ranges(b, k, child_depth, x):
    # the identity refine_fiber_measure rests on, checked on the values:
    # gamma^k S(w(x), i) + S(x, w) is the sum of leaf idx(w) b^N + idx(i)
    p = SystemParams(b, 0.55, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    gk = p.gamma**k
    leaves = b**child_depth
    for n, w in enumerate(enumerate_words(b, k)):
        spec = FiberMeasureSpec(p, word_address(p, x, w), child_depth, 0)
        child = np.concatenate(list(fiber_value_chunks(spec)))
        direct = _branch_sums(p, x, k + child_depth, n * leaves, (n + 1) * leaves)
        pushed = gk * child + symbolic_sum(p, x, w)
        np.testing.assert_allclose(pushed, direct, rtol=0, atol=1e-12)
