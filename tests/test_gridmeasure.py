"""Integer-weight grid measures: exact aggregation, serialization, convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import gridmeasure
from solenoidlab.entropy import (
    component_entropy_distribution,
    conditional_entropy,
    entropy,
    entropy_profile,
)
from solenoidlab.gridmeasure import (
    BOUNDARY_EPS,
    GridMeasure,
    _bin_points,
    _CellTable,
    _cell_rows,
    _encode_rows,
    _reduce_cells,
    _reduce_rows,
    _row_keys,
    _RowSums,
    _transcode,
    convolve,
    dump_measure,
    load_measure,
    measure_from_cells,
    measure_from_points,
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
    shifted = {(k1 + 8, k2 - 8): w for (k1, k2), w in mu.cells().items()}
    want = measure_from_cells(2, 2, 3, shifted)
    assert moved.equals(want) and moved.box_radius == want.box_radius


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
    assert head == f"GRIDMEASURE v2 base=2 dim=1 level=4 total={mu.total}"


@given(
    st.integers(0, 10**6),
    st.integers(2, 7),
    st.integers(1, 2),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dump_round_trip_carries_base(seed, base, dim, level, pass_base):
    mu = random_measure(seed, base=base, dim=dim, level=level, cells=9)
    text = dump_measure(mu)
    back = load_measure(text, base if pass_base else None)
    assert back.base == base and back.equals(mu)
    assert dump_measure(back) == text


def test_load_rejects_conflicting_base():
    mu = random_measure(23, base=3, dim=2, level=2, cells=8)
    text = dump_measure(mu)
    with pytest.raises(ValueError, match="base 2 given for a dump of base 3"):
        load_measure(text, 2)


@pytest.mark.parametrize(
    "header, message",
    [
        ("GRIDMEASURE v2 dim=1 level=2 total=3", "lacks the base field"),
        ("GRIDMEASURE v2 base=2 level=2 total=3", "lacks the dim field"),
        ("GRIDMEASURE v2 base=2 dim=1 total=3", "lacks the level field"),
        ("GRIDMEASURE v2 base=2 dim=1 level=2", "lacks the total field"),
        ("GRIDMEASURE v1 dim=1 level=2", "lacks the total field"),
        ("GRIDMEASURE v2 base=2 dim=1 level=2 total3", "field 'total3' is not name=value"),
        ("GRIDMEASURE v2 base=2 dim=1 level=2 total=3 base=3", "repeats the base field"),
        ("GRIDMEASURE v1 dim=1 dim=2 level=2 total=3", "repeats the dim field"),
    ],
)
def test_load_names_the_bad_header_field(header, message):
    with pytest.raises(ValueError, match=message):
        load_measure(header + "\n1 1\n3 2\n", 2)


def test_load_reads_v1_with_callers_base():
    mu = random_measure(29, base=3, dim=2, level=2, cells=8)
    head, body = dump_measure(mu).split("\n", 1)
    v1 = head.replace("GRIDMEASURE v2 base=3", "GRIDMEASURE v1") + "\n" + body
    assert v1.startswith("GRIDMEASURE v1 dim=2 ")
    assert load_measure(v1, 3).equals(mu)
    with pytest.raises(ValueError, match="no base"):
        load_measure(v1)


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
        GridMeasure(3, dim, 2, _encode_rows(idx, mu.weights.copy()), mu.box_radius)
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


def _count_argsorts(monkeypatch):
    calls = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(gridmeasure.np, "argsort", spy)
    return calls


def test_reduce_rows_large_weights_stay_exact(monkeypatch):
    # a float64 bincount would round these sums, so the reduce must sort;
    # 1 key bit beside 61 weight bits fits in one int64, so it packs them
    monkeypatch.setattr(gridmeasure, "_DENSE_SLOTS_PER_ROW", 1 << 30)
    calls = _count_argsorts(monkeypatch)
    rows = np.array([[0], [1], [0], [1]], dtype=np.int64)
    w = np.array([2**60 + 1, 3, 2**60 + 1, 5], dtype=np.int64)
    got_rows, got_w = _reduce_rows(rows, w)
    assert calls == []
    assert got_rows.tolist() == [[0], [1]]
    assert got_w.tolist() == [2**61 + 2, 8]
    want = reference_reduce(rows, w)
    assert np.array_equal(got_rows, want[0]) and np.array_equal(got_w, want[1])


def test_reduce_rows_unpacked_fallback_when_bits_exceed_63(monkeypatch):
    # 11 key bits and 60 weight bits do not fit in one int64
    monkeypatch.setattr(gridmeasure, "_DENSE_CAP", 0)
    calls = _count_argsorts(monkeypatch)
    rng = np.random.default_rng(11)
    rows = rng.integers(-1000, 1000, size=(500, 2))
    rows[0] = (-1000, 0)
    rows[1] = (999, 0)
    w = rng.integers(2**59, 2**60 - 1, size=500) // 8
    got = _reduce_rows(rows, w)
    want = reference_reduce(rows, w)
    assert len(calls) == 1
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 300),
    st.sampled_from([2, 40, 2**20]),
    st.sampled_from([None, 2**8, 2**55]),
)
@settings(max_examples=80, deadline=None)
def test_reduce_rows_does_not_depend_on_row_order(seed, ncols, nrows, spread, wmax):
    # runs of equal keys sum the same integers in any order, on every path
    rng = np.random.default_rng(seed)
    rows = rng.integers(-spread, spread, size=(nrows, ncols))
    w = None if wmax is None else rng.integers(1, wmax, size=nrows)
    p = rng.permutation(nrows)
    want = _reduce_rows(rows, w)
    got = _reduce_rows(rows[p], None if w is None else w[p])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_reduce_rows_key_range_beyond_int64():
    big = 2**62
    rows = np.array([[big, -big], [-big, big], [big, -big], [0, 0]], dtype=np.int64)
    got_rows, got_w = _reduce_rows(rows, np.array([1, 2, 3, 4], dtype=np.int64))
    assert got_rows.tolist() == [[-big, big], [0, 0], [big, -big]]
    assert got_w.tolist() == [2, 4, 4]


@given(
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.integers(1, 6),
    st.booleans(),
    st.integers(1, 400),
)
@settings(max_examples=60, deadline=None)
def test_row_sums_over_chunks_match_one_reduce(seed, ncols, nchunks, unit, merge_rows):
    # merges on the way, whenever the parts outgrow merge_rows and the
    # merged table, leave the same table
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 200, size=nchunks)
    chunks = [rng.integers(-9, 9, size=(int(m), ncols)) for m in sizes]
    weights = [None if unit else rng.integers(1, 2**30, size=m) for m in sizes]
    sums = _RowSums()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridmeasure, "_MERGE_ROWS", merge_rows)
        for rows, w in zip(chunks, weights):
            sums.add(rows, w)
            held = sum(len(part.weights) for part in sums._parts[1:])
            assert held <= max(len(sums._parts[0].weights), merge_rows)
    all_w = None if unit else np.concatenate(weights)
    want = _reduce_rows(np.concatenate(chunks), all_w)
    for got in (sums.table(), sums.table()):
        assert np.array_equal(got.rows(), want[0]) and np.array_equal(got.weights, want[1])


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


def test_empty_measure_rejected():
    with pytest.raises(ValueError, match="empty"):
        measure_from_points(np.array([]), 2, 1)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        GridMeasure(
            2, 1, 1, _encode_rows(np.array([[0]], dtype=np.int64), np.array([0], dtype=np.int64)), 1
        )


def test_measures_compare_by_identity_without_raising():
    mu = random_measure(3, cells=20)
    other = measure_from_cells(mu.base, mu.dim, mu.level, mu.cells(), box_radius=mu.box_radius)
    assert other.equals(mu) and mu.ncells > 1
    assert mu == mu and not (mu == other) and mu != other


# === keyed cell tables ===


def _keyed_and_row_built(data, base=3):
    """The same random table as a measure held in keys and one built from rows."""
    dim = data.draw(st.integers(1, 2))
    level = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(1, 120))
    spread = data.draw(st.sampled_from([2, 9, 3**level, 10**4]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-spread, spread, size=(m, dim))
    w = rng.integers(1, data.draw(st.sampled_from([2, 50, 2**40])), size=m)
    cells = _reduce_cells(rows, w)
    radius = gridmeasure._box_radius(cells.lo, cells.spans, base, level)
    keyed = GridMeasure(base, dim, level, cells, radius, boundary_ambiguous=3)
    idx, sums = reference_reduce(rows, w)
    return keyed, GridMeasure(base, dim, level, _encode_rows(idx, sums), radius, 3)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_keyed_measure_reads_as_the_row_built_one(data):
    keyed, built = _keyed_and_row_built(data)
    assert keyed._cells.keys is not None and "idx" not in vars(keyed)
    assert keyed.equals(built) and built.equals(keyed)
    assert (keyed.ncells, keyed.total, keyed.box_radius) == (built.ncells, built.total, built.box_radius)
    for n in range(keyed.level + 1):
        assert entropy(keyed, n) == entropy(built, n)
    levels = range(keyed.level + 1)
    assert entropy_profile(keyed, levels) == entropy_profile(built, levels)
    assert "idx" not in vars(keyed)  # entropies read weights only
    if keyed.level:
        m = data.draw(st.integers(1, keyed.level))
        assert conditional_entropy(keyed, keyed.level, m) == conditional_entropy(built, keyed.level, m)
        sweeps = [component_entropy_distribution(mu, range(keyed.level - m + 1), m) for mu in (keyed, built)]
        assert sweeps[0].rows == sweeps[1].rows
    assert keyed.cells() == built.cells()
    assert np.array_equal(keyed.centers(), built.centers())
    assert dump_measure(keyed).encode() == dump_measure(built).encode()
    assert np.array_equal(keyed.idx, built.idx)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_keyed_coarsen_matches_a_dict_of_floored_cells(data):
    keyed, _ = _keyed_and_row_built(data, base=data.draw(st.sampled_from([2, 3, 5])))
    cells = keyed.cells()
    for n in range(keyed.level + 1):
        f = keyed.base ** (keyed.level - n)
        want = {}
        for k, w in cells.items():
            c = k // f if keyed.dim == 1 else (k[0] // f, k[1] // f)
            want[c] = want.get(c, 0) + w
        coarse = keyed.coarsen(n)
        assert coarse.cells() == want
        # the coarse codec is tight: it is the codec of the coarse rows
        assert (coarse._cells.lo, coarse._cells.spans) == gridmeasure._key_range(coarse.idx)


def test_idx_is_decoded_at_most_once(monkeypatch):
    calls = []
    read = _CellTable.rows
    # entropies decode the 1-column histograms of weights, never a cell table
    monkeypatch.setattr(
        _CellTable, "rows", lambda cells: calls.append(len(cells.spans)) or read(cells)
    )
    mu = random_measure(7, base=3, level=3, cells=40)
    assert "idx" not in vars(mu)
    entropy_profile(mu, range(4))
    mu.coarsen(1)
    mu.affine_badic(1, (2, -3))
    assert 2 not in calls
    first = mu.idx
    mu.cells(), mu.centers(), dump_measure(mu), conditional_entropy(mu, 3, 1)
    assert mu.idx is first and calls.count(2) == 1


@given(st.data(), st.sampled_from(["shuffle", "repeat", "zero", "negative", "outside"]))
@settings(max_examples=60, deadline=None)
def test_bad_tables_raise_from_rows_and_from_keys(data, fault):
    keyed, _ = _keyed_and_row_built(data)
    cells = keyed._cells
    idx, w = keyed.idx.copy(), keyed.weights.copy()
    radius = keyed.box_radius
    if fault in ("shuffle", "repeat"):
        if len(w) < 2:
            return
        keys = cells.keys.copy()
        if fault == "shuffle":
            keys[[0, -1]] = keys[[-1, 0]]
            idx[[0, -1]] = idx[[-1, 0]]
        else:
            keys[1] = keys[0]
            idx[1] = idx[0]
        match = "sorted"
    else:
        keys = cells.keys
        if fault == "outside":
            radius -= 1
            edge = radius * keyed.base**keyed.level
            if radius < 1 or (idx.min() >= -edge and idx.max() <= edge - 1):
                return  # the table fits in the next smaller box too
            match = "origin box"
        else:
            w[data.draw(st.integers(0, len(w) - 1))] = 0 if fault == "zero" else -5
            match = "positive"
    with pytest.raises(ValueError, match=match):
        GridMeasure(keyed.base, keyed.dim, keyed.level, _encode_rows(idx, w), radius)
    with pytest.raises(ValueError, match=match):
        GridMeasure(
            keyed.base, keyed.dim, keyed.level, _CellTable(keys, cells.lo, cells.spans, w), radius
        )


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_transcode_is_decode_floor_encode(data):
    ncols = data.draw(st.integers(1, 3))
    base = data.draw(st.sampled_from([2, 3, 5]))
    factor = data.draw(st.integers(1, base**4))
    box = [data.draw(st.tuples(st.integers(-300, 300), st.integers(1, 200))) for _ in range(ncols)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 60))
    rows = np.column_stack([rng.integers(l, l + s, size=m) for l, s in box])
    part = _reduce_cells(rows)
    # the box of the floored rows, grown on either side as a union's codec is
    grow = rng.integers(0, 4, size=(2, ncols))
    new_lo = [l // factor - int(g) for l, g in zip(part.lo, grow[0])]
    new_spans = [
        (l + s - 1) // factor + int(g) - c + 1
        for l, s, g, c in zip(part.lo, part.spans, grow[1], new_lo)
    ]
    want = _row_keys(np.floor_divide(part.rows(), factor), new_lo, new_spans)
    assert np.array_equal(_transcode(part, factor, new_lo, new_spans), want)
    out = np.full(len(part.keys), -1, dtype=np.int64)
    assert _transcode(part, factor, new_lo, new_spans, out) is out
    assert np.array_equal(out, want)


def test_zero_weights_raise_on_every_path():
    # the first table is dense enough to count by bincount, the second
    # sorts; both are refused before either reduce
    for cells in ({-3: 0, -2: 0, -1: 0, 0: 0, 1: 5}, {-300: 0, 1: 5}):
        with pytest.raises(ValueError, match="weights must be positive integers"):
            measure_from_cells(2, 1, 0, cells)
        points = np.array(list(cells), dtype=float)
        with pytest.raises(ValueError, match="weights must be positive integers"):
            measure_from_points(points, 2, 0, weights=np.array(list(cells.values())))


def test_tables_past_int64_build_and_round_trip():
    big = 2**61  # the box radius is an exact integer ceiling, so 2^61 + 1 here
    rows = np.array([[big, -big], [-big, big], [big, -big], [0, 0]], dtype=np.int64)
    cells = _reduce_cells(rows, np.array([1, 2, 3, 4], dtype=np.int64))
    assert cells.keys is None and cells.rows().tolist() == [[-big, big], [0, 0], [big, -big]]
    assert gridmeasure._box_radius(cells.lo, cells.spans, 2, 0) == big + 1
    mu = GridMeasure(2, 2, 0, cells, big + 1)
    built = GridMeasure(2, 2, 0, _encode_rows(cells.rows(), cells.weights), big + 1)
    assert mu.equals(built) and mu.cells() == {(-big, big): 2, (0, 0): 4, (big, -big): 4}
    text = dump_measure(mu)
    assert load_measure(text).equals(mu) and dump_measure(load_measure(text)) == text
    moved = mu.affine_badic(0, (-1, 1))
    assert moved.cells() == {(-big - 1, big + 1): 2, (-1, 1): 4, (big - 1, 1 - big): 4}
    half = GridMeasure(2, 2, 2, cells, big).coarsen(1)
    assert half.cells() == {(-big // 2, big // 2): 2, (0, 0): 4, (big // 2, -big // 2): 4}
    with pytest.raises(ValueError, match="sorted"):
        GridMeasure(2, 2, 0, _encode_rows(rows[:2], np.array([1, 1])), big + 1)
    sums = _RowSums()
    sums.add(rows[:2], np.array([1, 2]))
    sums.add(rows[2:], np.array([3, 4]))
    assert sums.table().keys is None and sums.table().weights.tolist() == [2, 4, 4]


def test_row_sums_skip_empty_chunks():
    sums = _RowSums()
    sums.add(np.zeros((0, 2), dtype=np.int64))
    sums.add(np.zeros((0, 2), dtype=np.int64))
    assert len(sums.table().weights) == 0 and sums.table().rows().shape == (0, 2)
    rows = np.array([[3, -1], [0, 2], [3, -1]], dtype=np.int64)
    sums.add(rows)
    sums.add(np.zeros((0, 2), dtype=np.int64))
    assert sums.table().rows().tolist() == [[0, 2], [3, -1]]
    assert sums.table().weights.tolist() == [1, 2]
