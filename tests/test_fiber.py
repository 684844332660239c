"""Fiber measure construction: certification, oracles, tiles, cocycle, determinism."""

import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solenoidlab import fiber
from solenoidlab.fiber import (
    EXHAUSTIVE_WORD_BUDGET,
    FiberMeasureSpec,
    build_fiber_measure,
    certified_level,
    depth_for_resolution,
    map_fiber_tiles,
)
from solenoidlab.gridmeasure import _bin_points, _reduce_rows
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


def one_range(spec):
    """The spec's branch sums from one call of the kernel over the whole word list."""
    p, x = spec.params, spec.x
    if spec.mode == "exhaustive":
        return _branch_sums(p, x, spec.depth, 0, p.b**spec.depth)
    s, strata, _ = stratum_layout(p.b, spec.depth, spec.sample_count)
    stream = SplitMix64(spec.seed, "fiber.samples")
    _, quotas, suffix = _stratified_suffixes(
        p.b, spec.depth, spec.sample_count, stream, 0, strata
    )
    return _branch_sums(p, x, s, 0, strata, quotas, suffix)


def tile_values(spec):
    """The values map_fiber_tiles hands to tile_map, placed by row0, and its tiles.

    The tiles come back as sorted (row0, rows) pairs; rows no tile wrote
    stay NaN.
    """
    placed = np.full(spec.total_words, np.nan, dtype=np.complex128)
    tiles = []

    def fold(result):
        row0, values = result
        placed[row0 : row0 + len(values)] = values
        tiles.append((row0, len(values)))

    map_fiber_tiles(spec, lambda values, row0: (row0, values), fold)
    return placed, sorted(tiles)


def assert_partition(tiles, total):
    # every row of [0, total) lies in exactly one nonempty tile
    assert all(rows > 0 for _, rows in tiles)
    ends = [row0 + rows for row0, rows in tiles]
    assert [row0 for row0, _ in tiles] == [0] + ends[:-1]
    assert ends[-1] == total


@pytest.mark.parametrize(
    "mode,sample_count",
    # 50 samples at depth 7: 32 strata of 1 or 2 words, two suffix digits,
    # and _TILE_ROWS = 13 cuts tiles of 8 strata
    [("exhaustive", 0), ("sampled", 50)],
    ids=["exhaustive", "sampled"],
)
def test_value_chunks_concatenate_to_full_set(
    system_b2, monkeypatch, mode, sample_count
):
    spec = FiberMeasureSpec(
        system_b2, 0.55, 7, 4, mode=mode, sample_count=sample_count, seed=3
    )
    whole, one = tile_values(spec)
    assert one == [(0, spec.total_words)]
    monkeypatch.setattr(fiber, "_TILE_ROWS", 13)
    values, tiles = tile_values(spec)
    assert len(tiles) > 2
    assert_partition(tiles, spec.total_words)
    assert np.array_equal(values.view(np.uint64), whole.view(np.uint64))


@given(
    b=st.integers(2, 4),
    depth=st.integers(1, 7),
    count=st.integers(1, 400),
    sampled=st.booleans(),
    tile_rows=st.integers(1, 9),
    cpus=st.integers(1, 3),
)
# 3^4 samples at depth 6: one sample per stratum, two suffix digits
@example(b=3, depth=6, count=81, sampled=True, tile_rows=5, cpus=2)
@settings(max_examples=60, deadline=None)
def test_tiles_match_one_range(b, depth, count, sampled, tile_rows, cpus):
    # tiny tiles, and sampled strata that hold uneven quotas when
    # count % strata != 0: the row0 values partition the word list, and
    # the tiles hold the one-range kernel's bits
    while b**depth > 600:  # one-row tiles: keep the tile count small
        depth -= 1
    p = SystemParams(b, 0.5, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    if sampled:
        spec = FiberMeasureSpec(
            p, 0.37, depth, 0, mode="sampled", sample_count=count, seed=11
        )
    else:
        spec = FiberMeasureSpec(p, 0.37, depth, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "_TILE_ROWS", tile_rows)
        mp.setattr(fiber, "_cpus", lambda: cpus)
        values, tiles = tile_values(spec)
    assert_partition(tiles, spec.total_words)
    assert np.array_equal(values.view(np.uint64), one_range(spec).view(np.uint64))


@given(
    b=st.integers(2, 4),
    depth=st.integers(1, 7),
    count=st.integers(1, 400),
    sampled=st.booleans(),
    tile_rows=st.integers(1, 9),
    cpus=st.integers(1, 3),
)
@example(b=3, depth=6, count=81, sampled=True, tile_rows=5, cpus=2)
@settings(max_examples=60, deadline=None)
def test_tile_map_matches_unmapped_values(b, depth, count, sampled, tile_rows, cpus):
    # the build that bins and reduces each tile on its own thread equals
    # one reduction of all the one-range values
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
    # sampled with b^depth samples takes every word once: it fills the
    # exhaustive mode's bits, with its tally
    spellings = [
        FiberMeasureSpec(p, 0.37, depth, level),
        FiberMeasureSpec(
            p, 0.37, depth, level, mode="sampled", sample_count=b**depth, seed=11
        ),
    ]
    rows, near = _bin_points(one_range(spec), b, level)
    idx, w = _reduce_rows(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "_TILE_ROWS", tile_rows)
        mp.setattr(fiber, "_cpus", lambda: cpus)
        mu = build_fiber_measure(spec)
        (whole, _), (every, _) = map(tile_values, spellings)
        whole_mu, every_mu = map(build_fiber_measure, spellings)
    assert np.array_equal(mu.idx, idx) and np.array_equal(mu.weights, w)
    assert mu.boundary_ambiguous == near
    assert np.array_equal(every.view(np.int64), whole.view(np.int64))
    assert every_mu.equals(whole_mu)
    assert every_mu.boundary_ambiguous == whole_mu.boundary_ambiguous


@pytest.mark.parametrize("mode,sample_count", [("exhaustive", 0), ("sampled", 2000)])
def test_tiles_under_thread_stress(system_b3, monkeypatch, mode, sample_count):
    # more threads than cores and a short switch interval: each tile
    # must still be taken once, filled into its own array and folded once
    spec = FiberMeasureSpec(
        system_b3, 0.21, 7, 3, mode=mode, sample_count=sample_count, seed=4
    )
    whole = one_range(spec)
    reference = build_fiber_measure(spec, threads=1)
    monkeypatch.setattr(fiber, "_TILE_ROWS", 3)
    monkeypatch.setattr(fiber, "_cpus", lambda: 6)
    counted = 0

    def count(rows):  # a read-modify-write that an unlocked fold would lose
        nonlocal counted
        seen = counted
        time.sleep(0)  # let another thread run between the read and the write
        counted = seen + rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values, tiles = tile_values(spec)
        mu = build_fiber_measure(spec)
        map_fiber_tiles(spec, lambda values, row0: len(values), count)
    finally:
        sys.setswitchinterval(interval)
    assert counted == spec.total_words
    assert_partition(tiles, spec.total_words)
    assert np.array_equal(values.view(np.uint64), whole.view(np.uint64))
    assert mu.equals(reference)
    assert mu.boundary_ambiguous == reference.boundary_ambiguous


def test_tile_error_reaches_the_caller(system_b2, monkeypatch):
    # a tile that fails on a worker thread fails the call, not silently,
    # whether its values, its map or its fold raise
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
            build_fiber_measure(spec)

    # no tile is handed out after an error: with one worker, the tiles
    # after the failing one are never mapped, and with two, the other
    # worker, slowed to a millisecond a tile, stops long before the 16th
    for cpus in (1, 2):
        for where in ("map", "fold"):
            mapped = []

            def record(values, row0):
                mapped.append(row0)
                if where == "map" and row0 == 8:
                    raise ArithmeticError("map failed")
                if cpus == 2 and row0 != 8:
                    time.sleep(1e-3)
                return row0

            def fold(row0):
                if row0 == 8:
                    raise ArithmeticError("fold failed")

            monkeypatch.setattr(fiber, "_cpus", lambda: cpus)
            with pytest.raises(ArithmeticError, match=f"{where} failed"):
                map_fiber_tiles(spec, record, fold)
            assert 8 in mapped and len(set(mapped)) == len(mapped)
            assert mapped == [0, 8] if cpus == 1 else len(mapped) < 16


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
    # threads beside the caller: threads - 1, at most one per other CPU,
    # and none that would find no tile (3^2 words make one tile)
    started = []
    idents = set()

    class Counted(threading.Thread):
        def start(self):
            started[-1] += 1
            super().start()

    def record(values, row0):
        idents.add(threading.get_ident())

    monkeypatch.setattr(fiber, "_TILE_ROWS", 100)
    monkeypatch.setattr(fiber, "_cpus", lambda: 3)
    monkeypatch.setattr(threading, "Thread", Counted)
    spec = FiberMeasureSpec(system_b3, 0.21, 7, 3)
    for threads in (None, 1, 2, 8):
        started.append(0)
        idents.clear()
        map_fiber_tiles(spec, record, lambda _: None, threads)
        assert len(idents) <= min(threads or 3, 3)
    started.append(0)
    map_fiber_tiles(FiberMeasureSpec(system_b3, 0.21, 2, 0), record, lambda _: None)
    assert started == [2, 0, 1, 2, 0]
    with pytest.raises(ValueError, match="threads must be positive"):
        build_fiber_measure(spec, threads=0)


def test_helper_threads_live_for_one_stream(system_b2, monkeypatch):
    # the threads a call starts are gone when it returns, whether its
    # tiles all fold or a tile's map or fold raises
    monkeypatch.setattr(fiber, "_TILE_ROWS", 8)
    monkeypatch.setattr(fiber, "_cpus", lambda: 3)
    spec = FiberMeasureSpec(system_b2, 0.55, 7, 4)
    before = set(threading.enumerate())
    idents = set()

    def record(values, row0):
        idents.add(threading.get_ident())
        assert threading.active_count() <= len(before) + 2
        if threading.current_thread() is not threading.main_thread():
            time.sleep(1e-3)  # a worker still busy when the caller runs dry
        if row0 == fail_at["map"]:
            raise ArithmeticError("map failed")
        return row0

    def fold(row0):
        if row0 == fail_at["fold"]:
            raise ArithmeticError("fold failed")

    fail_at = {"map": None, "fold": None}
    map_fiber_tiles(spec, record, fold)
    assert len(idents) <= 3
    assert set(threading.enumerate()) == before
    for where in ("map", "fold"):
        fail_at = {"map": None, "fold": None, where: 64}
        with pytest.raises(ArithmeticError, match=f"{where} failed"):
            map_fiber_tiles(spec, record, fold)
        assert set(threading.enumerate()) == before


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


@given(
    b=st.integers(2, 3),
    k=st.integers(1, 2),
    child_depth=st.integers(1, 5),
    x=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=30, deadline=None)
def test_pushed_forward_child_values_are_the_direct_leaf_ranges(b, k, child_depth, x):
    # the cocycle S(x, w + i) = S(x, w) + gamma^k S(w(x), i), checked on
    # the values: the depth-N build at w's branch point, pushed forward,
    # is the direct depth-(k+N) build's leaf range [idx(w) b^N, (idx(w)+1) b^N)
    p = SystemParams(b, 0.55, 0.3, TrigPoly(0.1, (1.0, 0.4), (0.2,)))
    gk = p.gamma**k
    leaves = b**child_depth
    for n, w in enumerate(enumerate_words(b, k)):
        spec = FiberMeasureSpec(p, word_address(p, x, w), child_depth, 0)
        child = tile_values(spec)[0]
        direct = _branch_sums(p, x, k + child_depth, n * leaves, (n + 1) * leaves)
        pushed = gk * child + symbolic_sum(p, x, w)
        np.testing.assert_allclose(pushed, direct, rtol=0, atol=1e-12)
