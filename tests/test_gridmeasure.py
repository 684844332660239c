"""Integer-weight grid measures: exact aggregation, serialization, convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import gridmeasure
from solenoidlab.gridmeasure import (
    BOUNDARY_EPS,
    GridMeasure,
    _bin_points,
    _cell_rows,
    _reduce_rows,
    _RowSums,
    component_measure,
    convolve,
    dump_measure,
    load_measure,
    measure_from_cells,
    measure_from_points,
    rescale_component,
)
from solenoidlab.rng import SplitMix64


def random_measure(seed, base=2, dim=2, level=4, cells=12, radius=2):
    s = SplitMix64(seed, "measure")
    edge = radius * base**level
    k1 = s.derive("k1").integers(0, cells, 2 * edge) - edge
    w = s.derive("w").integers(0, cells, 50) + 1
    if dim == 1:
        idx = {int(k): int(v) for k, v in zip(k1, w)}
    else:
        k2 = s.derive("k2").integers(0, cells, 2 * edge) - edge
        idx = {(int(a), int(b)): int(v) for a, b, v in zip(k1, k2, w)}
    return measure_from_cells(base, dim, level, idx, box_radius=radius)


def test_binning_hand_example():
    pts = np.array([0.1, 0.1, 0.6, 0.9])
    mu = measure_from_points(pts, 2, 1)
    # level-1 half-open cells: [0,0.5) gets two points, [0.5,1) gets two
    assert mu.cells() == {0: 2, 1: 2}
    assert mu.total == 4


def test_binning_2d_complex_input():
    z = np.array([0.1 + 0.6j, 0.1 + 0.6j, 0.9 + 0.2j])
    mu = measure_from_points(z, 2, 1)
    assert mu.cells() == {(0, 1): 2, (1, 0): 1}


def test_cells_sorted_canonically():
    mu = measure_from_cells(2, 2, 2, {(3, 1): 1, (0, 2): 1, (0, 1): 1, (-1, 3): 2})
    rows = [tuple(r) for r in mu.idx]
    assert rows == sorted(rows)


def test_input_order_irrelevant():
    pts = np.array([0.11, 0.52, 0.77, 0.13, 0.52])
    a = measure_from_points(pts, 3, 2)
    b = measure_from_points(pts[::-1].copy(), 3, 2)
    assert a.equals(b)


def test_negative_coordinates_bin_by_floor():
    mu = measure_from_points(np.array([-0.25]), 2, 2)
    # floor(-0.25 * 4) = -1
    assert mu.cells() == {-1: 1}


def test_boundary_tally():
    # 0.5 sits exactly on a level-1 edge; 0.3 does not
    mu = measure_from_points(np.array([0.5, 0.3]), 2, 1)
    assert mu.boundary_ambiguous == 1
    nearly = 0.5 + BOUNDARY_EPS / 4
    mu2 = measure_from_points(np.array([nearly]), 2, 1)
    assert mu2.boundary_ambiguous == 1


def test_boundary_tally_counts_points_not_coordinates():
    # both coordinates of this one point sit just above a level-3 edge
    z = (0.5 + 1e-15) + (0.25 + 1e-15) * 1j
    assert measure_from_points(np.array([z]), 2, 3).boundary_ambiguous == 1
    pair = np.array([[0.5 + 1e-15, 0.25 + 1e-15], [0.3, 0.5]])
    assert measure_from_points(pair, 2, 3).boundary_ambiguous == 2


def dict_coarsen(mu, n):
    factor = mu.base ** (mu.level - n)
    out = {}
    for key, w in mu.cells().items():
        if mu.dim == 1:
            ck = key // factor
        else:
            ck = (key[0] // factor, key[1] // factor)
        out[ck] = out.get(ck, 0) + w
    return out


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_coarsen_matches_dict_oracle(seed):
    mu = random_measure(seed, base=3, level=3, cells=20)
    for n in (2, 1, 0):
        assert mu.coarsen(n).cells() == dict_coarsen(mu, n)


def test_coarsen_preserves_total():
    mu = random_measure(5, base=2, level=5, cells=30)
    for n in range(mu.level + 1):
        assert mu.coarsen(n).total == mu.total


def test_coarsen_rejects_refinement():
    mu = random_measure(1)
    with pytest.raises(ValueError, match="finer than stored"):
        mu.coarsen(mu.level + 1)


def test_affine_badic_permutes_cells():
    mu = random_measure(7, base=2, level=4, cells=10)
    moved = mu.affine_badic(1, (8, -8))
    assert moved.level == mu.level - 1
    assert moved.total == mu.total
    assert sorted(moved.weights) == sorted(mu.weights)


def test_affine_badic_identity():
    mu = random_measure(11)
    same = mu.affine_badic(0, (0, 0))
    assert same.equals(mu) or (
        same.level == mu.level and same.cells() == mu.cells()
    )


def test_dump_load_round_trip():
    mu = random_measure(13, base=3, dim=2, level=3, cells=15)
    text = dump_measure(mu)
    back = load_measure(text, 3)
    assert back.equals(mu)
    assert dump_measure(back) == text


def test_dump_header_fields():
    mu = random_measure(17, base=2, dim=1, level=4, cells=6)
    head = dump_measure(mu).splitlines()[0]
    assert head == f"GRIDMEASURE v1 dim=1 level=4 total={mu.total}"


def test_load_rejects_unsorted_or_repeated_cells():
    text = "GRIDMEASURE v1 dim=1 level=2 total=3\n3 1\n1 1\n1 1\n"
    with pytest.raises(ValueError, match="sorted"):
        load_measure(text, 2)


@given(st.integers(0, 10**6), st.sampled_from(["shuffle", "repeat"]))
@settings(max_examples=40, deadline=None)
def test_cell_table_order_is_enforced(seed, fault):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    mu = random_measure(seed, base=3, dim=dim, level=2, cells=int(rng.integers(2, 20)))
    text = dump_measure(mu)
    assert load_measure(text, 3).equals(mu)
    if mu.ncells < 2:
        return
    idx = mu.idx.copy()
    if fault == "shuffle":
        while np.array_equal(idx, mu.idx):
            idx = idx[rng.permutation(len(idx))]
    else:
        k = int(rng.integers(0, len(idx) - 1))
        idx[k + 1] = idx[k]
    with pytest.raises(ValueError, match="sorted"):
        GridMeasure(3, dim, 2, idx, mu.weights.copy(), mu.box_radius)
    lines = text.splitlines()
    body = [" ".join(str(int(v)) for v in row) + f" {w}" for row, w in zip(idx, mu.weights)]
    with pytest.raises(ValueError, match="sorted"):
        load_measure("\n".join([lines[0], *body]) + "\n", 3)


def reference_reduce(rows, w):
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse.reshape(-1), w)
    return uniq, sums


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 400),
    st.sampled_from([3, 40, 10**6, 2**40]),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_reduce_rows_matches_unique_reference(seed, ncols, nrows, spread, unit):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-spread, spread, size=(nrows, ncols))
    w = None if unit else rng.integers(1, 2**40, size=nrows)
    got_rows, got_w = _reduce_rows(rows, w)
    want_rows, want_w = reference_reduce(rows, np.ones(nrows, np.int64) if unit else w)
    assert got_w.dtype == np.int64 and got_rows.dtype == np.int64
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_w, want_w)


@pytest.mark.parametrize("path", ["dense", "sort"])
def test_reduce_rows_both_count_paths(monkeypatch, path):
    if path == "dense":
        monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_UNIT_ROW", 1 << 30)
        monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_ROW", 1 << 30)
    else:
        monkeypatch.setattr(gridmeasure, "_DENSE_CAP", 0)
    rng = np.random.default_rng(5)
    for ncols in (1, 2, 3):
        rows = rng.integers(-7, 9, size=(300, ncols))
        w = rng.integers(1, 1000, size=300)
        for weights in (None, w):
            got = _reduce_rows(rows, weights)
            want = reference_reduce(rows, np.ones(300, np.int64) if weights is None else weights)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_reduce_rows_large_weights_stay_exact(monkeypatch):
    # a float64 bincount would round these sums, so the reduce must sort
    monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_ROW", 1 << 30)
    rows = np.array([[0], [1], [0], [1]], dtype=np.int64)
    w = np.array([2**60 + 1, 3, 2**60 + 1, 5], dtype=np.int64)
    got_rows, got_w = _reduce_rows(rows, w)
    assert got_rows.tolist() == [[0], [1]]
    assert got_w.tolist() == [2**61 + 2, 8]


def test_reduce_rows_key_range_beyond_int64():
    big = 2**62
    rows = np.array([[big, -big], [-big, big], [big, -big], [0, 0]], dtype=np.int64)
    got_rows, got_w = _reduce_rows(rows, np.array([1, 2, 3, 4], dtype=np.int64))
    assert got_rows.tolist() == [[-big, big], [0, 0], [big, -big]]
    assert got_w.tolist() == [2, 4, 4]


@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_row_sums_over_chunks_match_one_reduce(seed, ncols, nchunks, unit):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 200, size=nchunks)
    chunks = [rng.integers(-9, 9, size=(int(m), ncols)) for m in sizes]
    weights = [None if unit else rng.integers(1, 2**30, size=m) for m in sizes]
    sums = _RowSums()
    for rows, w in zip(chunks, weights):
        sums.add(rows, w)
    all_w = None if unit else np.concatenate(weights)
    want = _reduce_rows(np.concatenate(chunks), all_w)
    for got in (sums.table(), sums.table()):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_cell_rows_are_the_binned_rows_without_tally():
    rng = np.random.default_rng(3)
    line, cloud = rng.normal(size=50), rng.normal(size=(50, 3))
    for pts in (line, cloud, cloud[:, 0] + 1j * cloud[:, 1]):
        rows, _ = _bin_points(pts, 3, 4)
        assert np.array_equal(_cell_rows(pts, 3, 4), rows)


def test_load_skips_comment_lines():
    mu = random_measure(19)
    text = "# provenance line\n# another\n" + dump_measure(mu)
    assert load_measure(text, mu.base).equals(mu)


def dict_convolve(mu, nu):
    out = {}
    # center-sum rebinned at the common level: floor((ka + kb + 1) / b^n ... )
    # computed here from float centers, matching the contract
    scale = mu.base**mu.level
    for ka, wa in mu.cells().items():
        for kb, wb in nu.cells().items():
            ca = (np.asarray(ka) + 0.5) / scale
            cb = (np.asarray(kb) + 0.5) / scale
            c = (ca + cb) * scale
            key = tuple(int(v) for v in np.floor(c).astype(int)) if mu.dim == 2 else int(np.floor(c))
            out[key] = out.get(key, 0) + wa * wb
    return out


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_convolve_matches_double_loop(seed):
    mu = random_measure(seed, base=2, level=3, cells=8)
    nu = random_measure(seed + 1, base=2, level=3, cells=7)
    conv = convolve(mu, nu)
    assert conv.cells() == dict_convolve(mu, nu)
    assert conv.total == mu.total * nu.total


def test_convolve_point_mass_translates():
    mu = random_measure(23, base=2, level=4, cells=9)
    # delta at a cell whose center is b^-level * (k + 0.5)
    delta = measure_from_cells(2, 2, 4, {(16, 16): 1})
    conv = convolve(mu, delta)
    shifted = {(k[0] + 17, k[1] + 17): w for k, w in mu.cells().items()}
    assert conv.cells() == shifted


def test_convolve_level_mismatch():
    mu = random_measure(2, level=3)
    nu = random_measure(3, level=4)
    with pytest.raises(ValueError, match="level"):
        convolve(mu, nu)


def test_convolve_row_and_column_give_square():
    row = measure_from_cells(2, 2, 2, {(k, 0): 1 for k in range(4)})
    col = measure_from_cells(2, 2, 2, {(0, k): 1 for k in range(4)})
    sq = convolve(row, col)
    assert sq.ncells == 16
    assert set(sq.weights) == {1}


def test_component_measure_restricts():
    mu = random_measure(29, base=2, level=4, cells=20)
    parent = mu.coarsen(2)
    cell = tuple(int(v) for v in parent.idx[0])
    comp = component_measure(mu, 2, cell)
    assert comp.total == parent.cells()[cell]
    factor = mu.base ** (mu.level - 2)
    for key in comp.cells():
        assert (key[0] // factor, key[1] // factor) == cell


def test_component_measure_empty_cell_error():
    mu = measure_from_cells(2, 2, 3, {(0, 0): 4})
    with pytest.raises(ValueError, match="empty component"):
        component_measure(mu, 1, (3, 3))


def test_rescale_component_entropy_relation():
    mu = random_measure(31, base=2, level=5, cells=25)
    parent = mu.coarsen(2)
    cell = tuple(int(v) for v in parent.idx[np.argmax(parent.weights)])
    comp = component_measure(mu, 2, cell)
    scaled = rescale_component(comp, 2)
    assert scaled.level == mu.level - 2
    assert scaled.total == comp.total
    # support moved into the unit square
    assert np.all(scaled.idx >= 0)
    assert np.all(scaled.idx < mu.base**scaled.level)
    # cells permute one-for-one
    assert sorted(scaled.weights) == sorted(comp.weights)


def test_rescale_component_spanning_error():
    mu = measure_from_cells(2, 2, 3, {(0, 0): 1, (7, 7): 1})
    with pytest.raises(ValueError, match="spans multiple"):
        rescale_component(mu, 1)


def test_point_mass_at_corner_rescales_to_origin():
    mu = measure_from_cells(2, 2, 3, {(4, 4): 3})
    scaled = rescale_component(mu, 2)
    assert scaled.cells() == {(0, 0): 3}


def test_empty_measure_rejected():
    with pytest.raises(ValueError, match="empty"):
        measure_from_points(np.array([]), 2, 1)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        GridMeasure(
            2,
            1,
            1,
            np.array([[0]], dtype=np.int64),
            np.array([0], dtype=np.int64),
            1,
        )
