"""Integer-weighted measures on b-adic grids.

A GridMeasure assigns positive integer weights to half-open b-adic cells
[k/b^n, (k+1)/b^n) in dimension 1 or 2.  Integer weights are the whole
point: superposition, restriction, coarsening, and b-adic affine images
are exact, so identity checks can demand weight-for-weight equality and
replays with different worker counts must produce identical tables.

Convolution adds cell centers.  The center sum of two level-n cells lands
exactly on a grid corner, and the half-open convention sends a corner to
the cell on its right, so the result index is a1 + a2 + 1 per axis with
no floating arithmetic at all.

Every binning in the package goes through one cell-key primitive.
_cell_rows floors coordinates to cell rows.  _bin_points does the same
and also counts the points with any coordinate closer than 1e-13 to a
cell boundary (one count per point, however many of its coordinates are
close); the tally is carried on the measure, and exact operations
propagate it without adding to it.

One cell table.  A _CellTable holds distinct cells as strictly
increasing int64 keys and their codec (lo, spans): lo is each column's
minimum and span its max - min + 1, and a row's key is (k1 - lo1) *
span2 + (k2 - lo2), so key order is row-lexicographic order.  The codec
is tight: every kept cell is a row of the input.  _reduce_cells makes a
table from rows.  It counts equal keys with bincount when the key range
has at most one slot per row, and otherwise sorts them in place, with
each weight packed into the low bits of its key: a sum over a run of
equal keys is an exact integer whatever the order inside the run.  Keys
and weights too wide to share 63 bits sort through an argsort instead.
Weights stay exact int64 on every path.  Only rows whose key range does
not fit in int64 lexsort, and such a wide table holds its rows instead
of keys.

One transcode.  Coarsening by a factor f and merging tables into the
codec of their union (f = 1) are both a change of codec: column j's
digit d_j becomes floor((d_j + lo_j) / f) - lo'_j.  _transcode makes the
new keys from the old ones, digit by digit, for _coarse_cells and
_merge_cells; _RowSums, which reduces rows that arrive in chunks or
tables reduced on other threads, and mix_measures merge through
_merge_cells.  A b-adic affine image only translates the codec.

A GridMeasure holds one table and checks it once, in its constructor,
on the keys: strictly increasing keys are cells sorted without repeats,
and the codec's bounds put every cell in the origin box in O(1).
Entropies and cell counts read only weights, so none of them builds
rows.  The rows, idx, are decoded from the keys on first read and then
kept; cells(), dumps, convolution, and conditional and component
entropies read them.  centers() decodes rows without keeping them, so
a measure that is only projected holds no rows.  Rows from outside come
in through measure_from_points, measure_from_cells and load_measure.
"""

from __future__ import annotations

import functools
import io
import math
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "GridMeasure",
    "measure_from_points",
    "measure_from_cells",
    "dump_measure",
    "load_measure",
    "convolve",
    "BOUNDARY_EPS",
]

BOUNDARY_EPS = 1e-13

# bincount only key ranges up to this many slots, and with at most this
# many slots per row; larger or sparser ranges sort their keys instead.
# Weighted keys sort in place as unit keys do, weight packed in their low
# bits, so one crossover serves both: from about one slot per row, the
# count table and the scan of its empty slots cost more than the sort.
_DENSE_CAP = 1 << 23
_DENSE_SLOTS_PER_ROW = 1
# a float64 bincount adds integer weights exactly below this total
_FLOAT_EXACT = 2.0**52
_INT64_MAX = np.iinfo(np.int64).max
# _RowSums merges its parts once they hold at least this many rows
_MERGE_ROWS = 1 << 20


def _scaled_rows(coords: np.ndarray, base: int, level: int) -> np.ndarray:
    """Points times base**level as float64 rows of shape (m, d).

    coords holds (m, d) rows, (m,) coordinates, or complex (re, im) values.
    """
    pts = np.asarray(coords)
    if np.iscomplexobj(pts):
        # (re, im) pairs are the complex array's own memory
        pts = np.ascontiguousarray(pts, dtype=np.complex128).view(np.float64)
    return pts.reshape(len(coords), -1) * float(base**level)


def _cell_rows(coords: np.ndarray, base: int, level: int) -> np.ndarray:
    """Level-n cell rows of points (int64, shape (m, d)), with no boundary tally."""
    scaled = _scaled_rows(coords, base, level)
    np.floor(scaled, out=scaled)
    return scaled.astype(np.int64)


def _bin_points(coords: np.ndarray, base: int, level: int) -> tuple[np.ndarray, int]:
    """_cell_rows, and the number of points within BOUNDARY_EPS of a cell edge."""
    scaled = _scaled_rows(coords, base, level)
    tol = BOUNDARY_EPS * float(base**level)
    dist = np.rint(scaled)
    dist -= scaled
    np.abs(dist, out=dist)
    # column by column: reductions along axis 1 of a narrow array are slow
    near = dist[:, 0] < tol
    for j in range(1, dist.shape[1]):
        near |= dist[:, j] < tol
    del dist
    np.floor(scaled, out=scaled)
    return scaled.astype(np.int64), int(np.count_nonzero(near))


def _key_range(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-column minimum and span (max - min + 1) of non-empty rows."""
    # column by column: min(axis=0) on a narrow (m, d) array is many times slower
    lo = [int(col.min()) for col in rows.T]
    return lo, [int(col.max()) - l + 1 for col, l in zip(rows.T, lo)]


def _row_keys(
    rows: np.ndarray, lo: list[int], spans: list[int], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One int64 key per row, ordered as the rows are lexicographically.

    The product of spans must fit in int64.  out, an int64 array of one
    entry per row, receives the keys if given.
    """
    keys = np.subtract(rows[:, 0], lo[0], out=out)
    for j in range(1, rows.shape[1]):
        keys *= spans[j]
        keys += rows[:, j]
        keys -= lo[j]
    return keys


def _key_rows(keys: np.ndarray, lo: list[int], spans: list[int]) -> np.ndarray:
    """Inverse of _row_keys."""
    rows = np.empty((len(keys), len(spans)), dtype=np.int64)
    rest = keys
    for j in range(len(spans) - 1, 0, -1):
        rest, rows[:, j] = np.divmod(rest, spans[j])
    rows[:, 0] = rest
    rows += lo
    return rows


class _CellTable(NamedTuple):
    """Distinct rows in lexicographic order and their exact int64 weight sums.

    keys are the rows' int64 keys in the codec (lo, spans) of _row_keys,
    strictly increasing.  The codec is tight: lo is each column's minimum
    over the table and lo + span - 1 its maximum.  A table whose key
    range does not fit in int64 has keys None and holds its rows in wide.
    """

    keys: Optional[np.ndarray]
    lo: list[int]
    spans: list[int]
    weights: np.ndarray
    wide: Optional[np.ndarray] = None

    def rows(self) -> np.ndarray:
        """The table's (m, d) rows, decoded from the keys."""
        return self.wide if self.keys is None else _key_rows(self.keys, self.lo, self.spans)


def _box_radius(lo: list[int], spans: list[int], base: int, level: int) -> int:
    """Smallest integer R >= 1 with the level-n cells of a codec's box inside [-R, R]^d.

    R = ceil((max |end| + 1) / b^n) over the box's ends, in exact integers.
    """
    reach = max(max(abs(l), abs(l + s - 1)) for l, s in zip(lo, spans)) + 1
    return max(1, -(-reach // base**level))


def _reduce_keys(
    keys: np.ndarray, size: int, w: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in increasing order and their exact int64 weight sums.

    keys lie in [0, size) and are overwritten.  w=None weights every key
    1.  Temporaries are dropped as soon as they are used, because callers
    reduce tables of millions of rows.
    """
    if size <= min(_DENSE_CAP, _DENSE_SLOTS_PER_ROW * len(keys)) and (
        w is None or w.sum(dtype=np.float64) < _FLOAT_EXACT
    ):
        counts = np.bincount(keys, weights=w, minlength=size)
        del keys
        occupied = np.flatnonzero(counts)
        return occupied, counts[occupied].astype(np.int64)
    # each weight in the low bits of its key, if both fit in 63 bits; a
    # negative weight would spill into the key bits
    bits = 0 if w is None else int(w.max()).bit_length()
    if (size - 1).bit_length() + bits <= 63 and (w is None or w.min() >= 0):
        if bits:
            keys <<= bits
            keys |= w
        keys.sort()
        if bits:
            w = keys & ((1 << bits) - 1)
            keys >>= bits
    else:
        order = np.argsort(keys)
        keys = keys[order]
        w = w[order]
        del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.diff(starts, append=len(keys)) if w is None else np.add.reduceat(w, starts)
    return keys[starts], sums


def _reduce_cells(rows: np.ndarray, w: Optional[np.ndarray] = None) -> _CellTable:
    """The _CellTable of int64 (m, d) rows: the distinct rows and their weight sums.

    w=None weights every row 1.  Weights must be positive, as the entry
    points check: bincount would drop a cell whose weights sum to 0 and
    leave the codec loose.
    """
    if len(rows) == 0:
        d = rows.shape[1]
        empty = np.zeros(0, dtype=np.int64)
        return _CellTable(empty, [0] * d, [1] * d, empty)
    lo, spans = _key_range(rows)
    size = math.prod(spans)
    if size > _INT64_MAX:
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        w = np.ones(len(rows), dtype=np.int64) if w is None else w[order]
        starts = np.flatnonzero(
            np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))
        )
        return _CellTable(None, lo, spans, np.add.reduceat(w, starts), rows[starts])
    keys, sums = _reduce_keys(_row_keys(rows, lo, spans), size, w)
    return _CellTable(keys, lo, spans, sums)


def _encode_rows(rows: np.ndarray, w: np.ndarray) -> _CellTable:
    """The _CellTable of int64 (m, d) rows as given, neither sorted nor reduced.

    Rows out of order or repeated make keys that are not strictly
    increasing, which GridMeasure refuses.
    """
    if rows.size == 0:  # no cells, or no columns: GridMeasure refuses either
        return _reduce_cells(rows[:0])
    lo, spans = _key_range(rows)
    if math.prod(spans) > _INT64_MAX:
        return _CellTable(None, lo, spans, w, rows)
    return _CellTable(_row_keys(rows, lo, spans), lo, spans, w)


def _positive(w: np.ndarray) -> np.ndarray:
    """w, refused unless every weight is positive."""
    if np.any(w <= 0):
        raise ValueError("weights must be positive integers")
    return w


def _reduce_rows(
    rows: np.ndarray, w: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """_reduce_cells with its rows decoded: (distinct rows, weight sums)."""
    cells = _reduce_cells(rows, w)
    return cells.rows(), cells.weights


def _transcode(
    cells: _CellTable,
    factor: int,
    lo: list[int],
    spans: list[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The keys, in the codec (lo, spans), of the rows floor(row / factor) of cells.

    Column j's row value is d_j + lo_j for its digit d_j in cells' codec,
    so its new digit is floor((d_j + lo_j) / factor) - lo'_j, that is
    (d_j + lo_j - factor * lo'_j) // factor; the new box must hold the
    floored rows, so the shift is never negative.  Digits are taken from
    the last column, whose digit array becomes the key array (out, if
    given).  No row is ever built.
    """
    keys, rest, place = None, cells.keys, 1
    for j in range(len(spans) - 1, -1, -1):
        shift = cells.lo[j] - factor * lo[j]
        if j:
            rest, digit = np.divmod(rest, cells.spans[j], out=(None, out if keys is None else None))
            digit += shift
        else:  # the first digit is the rest; a one-column table's own keys stay
            digit = np.add(rest, shift, out=out if rest is cells.keys else rest)
        if factor > 1:
            digit //= factor
        if keys is None:
            keys = digit
        else:
            digit *= place
            keys += digit
        place *= spans[j]
    return keys


def _coarse_cells(cells: _CellTable, factor: int) -> _CellTable:
    """The _CellTable of the rows floor(row / factor) of cells.

    floor is monotone, so the coarse codec's bounds are the floors of
    cells' bounds, and it is tight as well.
    """
    if cells.keys is None:
        return _reduce_cells(np.floor_divide(cells.wide, factor), cells.weights)
    lo = [l // factor for l in cells.lo]
    spans = [(l + s - 1) // factor - c + 1 for l, s, c in zip(cells.lo, cells.spans, lo)]
    keys, w = _reduce_keys(_transcode(cells, factor, lo, spans), math.prod(spans), cells.weights)
    return _CellTable(keys, lo, spans, w)


def _merge_cells(parts: Sequence[_CellTable]) -> _CellTable:
    """One _CellTable of the rows of all parts, the weights of equal rows added.

    Every part's keys are transcoded, with factor 1, to the codec of the
    parts' union, which is tight since theirs are.
    """
    full = [p for p in parts if len(p.weights)]
    if len(full) < 2:
        return (full or parts)[0]
    parts = full
    lo = [min(col) for col in zip(*(p.lo for p in parts))]
    ends = zip(*([l + s for l, s in zip(p.lo, p.spans)] for p in parts))
    spans = [max(col) - l for col, l in zip(ends, lo)]
    size = math.prod(spans)
    w = np.concatenate([p.weights for p in parts])
    if size > _INT64_MAX:
        return _reduce_cells(np.concatenate([p.rows() for p in parts]), w)
    keys = np.empty(len(w), dtype=np.int64)
    at = 0
    for p in parts:
        _transcode(p, 1, lo, spans, keys[at : at + len(p.weights)])
        at += len(p.weights)
    keys, w = _reduce_keys(keys, size, w)
    return _CellTable(keys, lo, spans, w)


class _RowSums:
    """_reduce_cells over rows that arrive in chunks.

    add reduces a chunk; add_part takes the _CellTable of a chunk, made
    on the thread that reduced it.  The parts are merged whenever the
    rows added since the last merge outnumber both the merged table and
    _MERGE_ROWS, so the unmerged rows stay below the larger of the two,
    and once more by table().  Weights are integers, so the merge order
    cannot change the result.
    """

    def __init__(self):
        self._parts: list[_CellTable] = []
        self._unmerged = 0

    def add(self, rows: np.ndarray, w: Optional[np.ndarray] = None) -> None:
        self.add_part(_reduce_cells(rows, w))

    def add_part(self, part: _CellTable) -> None:
        self._parts.append(part)
        self._unmerged += len(part.weights)
        if self._unmerged > max(len(self._parts[0].weights), _MERGE_ROWS):
            self.table()

    def table(self) -> _CellTable:
        """The _CellTable of all chunks so far."""
        if len(self._parts) > 1:
            self._parts = [_merge_cells(self._parts)]
        self._unmerged = 0
        return self._parts[0]


class GridMeasure:
    """dim-d measure with integer weights on level-n b-adic cells.

    cells is a _CellTable, normally sorted int64 keys and their codec,
    with positive int64 weights.  The constructor checks the grid and the
    table once: a non-empty table of width dim, positive weights, keys (or
    wide rows) strictly increasing, and every cell in the origin box
    [-R, R]^dim of box_radius R.  idx, the (m, dim) cell rows in
    lexicographic order, is decoded from the keys on first read and kept.
    provenance is the FiberMeasureSpec of a fiber build, and None for
    every other measure; it is not dumped, and derived measures do not
    inherit it.  Measures compare by identity; equals compares tables.
    """

    def __init__(
        self, base: int, dim: int, level: int, cells: _CellTable, box_radius: int,
        boundary_ambiguous: int = 0, provenance: Optional[object] = None,
    ):
        if dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        held = cells.wide if cells.keys is None else cells.keys
        if len(cells.weights) == 0:
            raise ValueError("empty measure")
        if len(cells.spans) != dim or len(held) != len(cells.weights):
            raise ValueError("index/weight shape mismatch")
        _positive(cells.weights)
        if cells.keys is not None:
            increasing = held[1:] > held[:-1]
        else:
            increasing = held[1:, 0] > held[:-1, 0]
            if dim == 2:
                increasing |= (held[1:, 0] == held[:-1, 0]) & (held[1:, 1] > held[:-1, 1])
        if not increasing.all():
            raise ValueError("cells must be sorted lexicographically without repeats")
        edge = box_radius * base**level
        top = max(l + s - 1 for l, s in zip(cells.lo, cells.spans))
        if min(cells.lo) < -edge or top > edge - 1:
            raise ValueError("cell outside origin box")
        self.base, self.dim, self.level = base, dim, level
        self.box_radius, self.boundary_ambiguous = box_radius, boundary_ambiguous
        self.provenance = provenance
        self.weights = cells.weights
        self._cells = cells

    @functools.cached_property
    def idx(self) -> np.ndarray:
        """The (m, dim) cell rows, decoded from the keys on first read."""
        return self._cells.rows()

    @property
    def total(self) -> int:
        return int(self.weights.sum())

    @property
    def ncells(self) -> int:
        return len(self.weights)

    def cells(self) -> dict:
        """Weight table as a dict; 1D keys are ints, 2D keys are (k1, k2)."""
        if self.dim == 1:
            return {int(k): int(w) for k, w in zip(self.idx[:, 0], self.weights)}
        return {
            (int(k1), int(k2)): int(w)
            for (k1, k2), w in zip(self.idx, self.weights)
        }

    def centers(self) -> np.ndarray:
        """Cell centers; shape (m,) for 1D, (m, 2) for 2D.

        Rows not yet decoded are decoded for this call and not kept: a
        measure read once through its centers holds no idx.
        """
        scale = 1.0 / self.base**self.level
        rows = self.__dict__.get("idx")
        c = ((self._cells.rows() if rows is None else rows) + 0.5) * scale
        return c[:, 0] if self.dim == 1 else c

    def coarsen(self, n: int) -> "GridMeasure":
        """Reduce to level n <= level by exact integer aggregation."""
        if n > self.level:
            raise ValueError(
                f"entropy below resolution: level {n} finer than stored level {self.level}"
            )
        if n == self.level:
            return self
        cells = _coarse_cells(self._cells, self.base ** (self.level - n))
        return GridMeasure(self.base, self.dim, n, cells, self.box_radius, self.boundary_ambiguous)

    def affine_badic(self, power: int, shift: Sequence[int]) -> "GridMeasure":
        """Image under z -> b^power * z + c with c a level-(level-power) corner.

        shift gives the corner index per axis at level (level - power).
        Cells permute, so this is exact and entropy-preserving: the keys
        stay as they are, and the codec's lo moves by shift.
        """
        if not 0 <= power <= self.level:
            raise ValueError(f"power must lie in [0, level], got {power}")
        shift = np.asarray(shift, dtype=np.int64).reshape(self.dim)
        new_level = self.level - power
        held = self._cells
        lo = [l + int(s) for l, s in zip(held.lo, shift)]
        cells = held._replace(lo=lo, wide=None if held.wide is None else held.wide + shift)
        radius = _box_radius(lo, held.spans, self.base, new_level)
        return GridMeasure(self.base, self.dim, new_level, cells, radius, self.boundary_ambiguous)

    def equals(self, other: "GridMeasure") -> bool:
        """Weight-for-weight equality of the cell tables.

        Codecs are tight, so equal cells have equal codecs and equal keys.
        """
        a, b = self._cells, other._cells
        return (
            (self.base, self.dim, self.level, a.lo, a.spans)
            == (other.base, other.dim, other.level, b.lo, b.spans)
            and np.array_equal(
                a.wide if a.keys is None else a.keys, b.wide if b.keys is None else b.keys
            )
            and np.array_equal(a.weights, b.weights)
        )


def _coarsen_each(
    mu: GridMeasure, levels: Sequence[int], fn: Callable[[GridMeasure], object]
) -> list:
    """fn(mu.coarsen(n)) for each distinct level n, in increasing n.

    Levels are made finest first, each from the finest table held:
    floor(floor(k / b^a) / b) = floor(k / b^(a+1)) and integer weights
    add, so a table coarsened from a finer level equals the one made from
    the stored level.  A table becomes the source of the next level only
    if it has at most half of mu's cells: a saturated measure keeps nearly
    all of its cells over several levels, and holding such a table beside
    the next one would double the memory of one coarsening.
    """
    results = {}
    source = mu
    for n in sorted(set(levels), reverse=True):
        table = source.coarsen(n)
        results[n] = fn(table)
        if 2 * table.ncells <= mu.ncells:
            source = table
        del table  # an unkept table is gone before the next level is made
    return [results[n] for n in sorted(results)]


def measure_from_points(
    points: np.ndarray,
    base: int,
    level: int,
    weights: Optional[np.ndarray] = None,
    box_radius: Optional[int] = None,
) -> GridMeasure:
    """Bin points into a GridMeasure.

    points: 1D real array, 2D real array of shape (m, 2), or complex array
    (treated as the plane with coordinates (re, im)).
    """
    if len(points) == 0:
        raise ValueError("empty measure: no points to bin")
    rows, flagged = _bin_points(points, base, level)
    if weights is not None:
        weights = _positive(np.asarray(weights, dtype=np.int64))
    cells = _reduce_cells(rows, weights)
    if box_radius is None:
        box_radius = _box_radius(cells.lo, cells.spans, base, level)
    return GridMeasure(base, rows.shape[1], level, cells, box_radius, flagged)


def measure_from_cells(
    base: int, dim: int, level: int, cells: Mapping, box_radius: Optional[int] = None
) -> GridMeasure:
    """Build from an explicit {index: weight} table."""
    if not cells:
        raise ValueError("empty measure")
    if dim == 1:
        idx = np.array([[int(k)] for k in cells], dtype=np.int64)
    else:
        idx = np.array([[int(k[0]), int(k[1])] for k in cells], dtype=np.int64)
    w = np.array([int(v) for v in cells.values()], dtype=np.int64)
    table = _reduce_cells(idx, _positive(w))
    if box_radius is None:
        box_radius = _box_radius(table.lo, table.spans, base, level)
    return GridMeasure(base, dim, level, table, box_radius)


# === serialization ===


def dump_measure(mu: GridMeasure) -> str:
    """Text dump: header line then one 'k1 [k2] weight' line per cell, sorted."""
    out = io.StringIO()
    out.write(
        f"GRIDMEASURE v2 base={mu.base} dim={mu.dim} level={mu.level} total={mu.total}\n"
    )
    if mu.dim == 1:
        for k, w in zip(mu.idx[:, 0], mu.weights):
            out.write(f"{k} {w}\n")
    else:
        for (k1, k2), w in zip(mu.idx, mu.weights):
            out.write(f"{k1} {k2} {w}\n")
    return out.getvalue()


def load_measure(text: str, base: Optional[int] = None) -> GridMeasure:
    """Parse a dump.  Leading '#' comment lines are permitted and skipped.

    A v2 dump carries its grid base, and a base passed here must agree
    with it.  A v1 dump has none, so the caller must supply it.  Header
    fields are name=value, each at most once; a missing, malformed or
    repeated field raises ValueError naming it.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty measure dump")
    header = lines[0].split()
    if header[:2] not in (["GRIDMEASURE", "v1"], ["GRIDMEASURE", "v2"]):
        raise ValueError(f"bad measure header: {lines[0]!r}")
    fields = {}
    for part in header[2:]:
        name, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"measure header field {part!r} is not name=value")
        if name in fields:
            raise ValueError(f"measure header repeats the {name} field")
        fields[name] = value

    def header_int(name: str) -> int:
        if name not in fields:
            raise ValueError(f"measure header lacks the {name} field")
        return int(fields[name])

    if header[1] == "v2":
        stored = header_int("base")
        if base is not None and base != stored:
            raise ValueError(f"base {base} given for a dump of base {stored}")
        base = stored
    elif base is None:
        raise ValueError("a GRIDMEASURE v1 dump has no base; pass it")
    dim, level, total = header_int("dim"), header_int("level"), header_int("total")
    rows = []
    weights = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != dim + 1:
            raise ValueError(f"bad cell line: {ln!r}")
        rows.append([int(p) for p in parts[:dim]])
        weights.append(int(parts[dim]))
    idx = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    cells = _encode_rows(idx, np.array(weights, dtype=np.int64))
    mu = GridMeasure(base, dim, level, cells, _box_radius(cells.lo, cells.spans, base, level))
    if mu.total != total:
        raise ValueError(f"dump total {total} does not match cell sum {mu.total}")
    return mu


# === measure algebra ===


def convolve(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """Convolution by cell-center addition at the common level.

    Exact in index arithmetic: the center sum is a grid corner and the
    half-open convention assigns it to index a1 + a2 + 1 per axis.
    """
    if (mu.base, mu.dim, mu.level) != (nu.base, nu.dim, nu.level):
        raise ValueError("convolution requires matching base, dimension, and level")
    if mu.total * nu.total > 2**62:
        raise ValueError("convolution weight overflow")
    chunk = max(1, 4_000_000 // max(1, nu.ncells))
    sums = _RowSums()
    for lo in range(0, mu.ncells, chunk):
        block_idx = mu.idx[lo : lo + chunk, None, :] + nu.idx[None, :, :] + 1
        block_w = mu.weights[lo : lo + chunk, None] * nu.weights[None, :]
        sums.add(block_idx.reshape(-1, mu.dim), block_w.reshape(-1))
    cells = sums.table()
    return GridMeasure(
        mu.base,
        mu.dim,
        mu.level,
        cells,
        _box_radius(cells.lo, cells.spans, mu.base, mu.level),
        mu.boundary_ambiguous + nu.boundary_ambiguous,
    )

