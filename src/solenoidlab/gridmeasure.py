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

Every binning and merge in the package goes through one cell-key
primitive.  _cell_rows floors coordinates to cell rows.  _bin_points
does the same and also counts the points with any coordinate closer
than 1e-13 to a cell boundary (one count per point, however many of its
coordinates are close); the tally is carried on the measure, and exact
operations propagate it without adding to it.  _reduce_rows encodes
each row as one int64 key, (k1 - min k1) * span2 + (k2 - min k2) over
the observed ranges, so key order is row-lexicographic order.  It counts
equal keys with bincount when the key range has at most one slot per
row, and otherwise sorts them in place, with each weight packed into the
low bits of its key: a sum over a run of equal keys is an exact integer
whatever the order inside the run.  Keys and weights too wide to share
63 bits sort through an argsort instead.  Weights stay exact int64 on
every path.  Only rows whose key range does not fit in int64 fall back
to a lexsort.
_RowSums applies _reduce_rows to rows that arrive in chunks, or takes
chunks already reduced on other threads, and merges them by addition.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

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


def _box_radius(idx: np.ndarray, base: int, level: int) -> int:
    """Smallest integer R >= 1 with every level-n cell of idx inside [-R, R]^d."""
    return max(1, int(np.ceil((np.abs(idx).max() + 1) / base**level)))


def _reduce_rows(
    rows: np.ndarray, w: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and their exact int64 weight sums.

    w=None weights every row 1.  Weights must be positive.  Temporaries
    are dropped as soon as they are used, because callers reduce tables
    of millions of rows.
    """
    if len(rows) == 0:
        return rows, np.zeros(0, dtype=np.int64)
    lo, spans = _key_range(rows)
    size = math.prod(spans)
    if size > _INT64_MAX:
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        w = np.ones(len(rows), dtype=np.int64) if w is None else w[order]
        starts = np.flatnonzero(
            np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))
        )
        return rows[starts], np.add.reduceat(w, starts)
    keys = _row_keys(rows, lo, spans)
    if size <= min(_DENSE_CAP, _DENSE_SLOTS_PER_ROW * len(keys)) and (
        w is None or w.sum(dtype=np.float64) < _FLOAT_EXACT
    ):
        counts = np.bincount(keys, weights=w, minlength=size)
        del keys
        occupied = np.flatnonzero(counts)
        sums = counts[occupied].astype(np.int64)
        del counts
        return _key_rows(occupied, lo, spans), sums
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
    keys = keys[starts]
    del starts, w
    return _key_rows(keys, lo, spans), sums


class _RowSums:
    """_reduce_rows over rows that arrive in chunks.

    add reduces a chunk; add_part takes a chunk that was already reduced,
    on the thread that made it.  The parts are merged whenever the rows
    added since the last merge outnumber both the merged table and
    _MERGE_ROWS, so the unmerged rows stay below the larger of the two,
    and once more by table().  Weights are integers, so the merge order
    cannot change the result.
    """

    def __init__(self):
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._unmerged = 0

    def add(self, rows: np.ndarray, w: Optional[np.ndarray] = None) -> None:
        self.add_part(*_reduce_rows(rows, w))

    def add_part(self, rows: np.ndarray, w: np.ndarray) -> None:
        """Add distinct sorted rows and their weight sums, as _reduce_rows gives them."""
        self._parts.append((rows, w))
        self._unmerged += len(w)
        if self._unmerged > max(len(self._parts[0][1]), _MERGE_ROWS):
            self.table()

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows of all chunks so far, sorted, with their weight sums."""
        if len(self._parts) > 1:
            rows, w = zip(*self._parts)
            self._parts = [_reduce_rows(np.concatenate(rows), np.concatenate(w))]
        self._unmerged = 0
        return self._parts[0]


@dataclass
class GridMeasure:
    """dim-d measure with integer weights on level-n b-adic cells.

    idx has shape (m, dim) and its rows strictly increase in lexicographic
    order (sorted, no repeats); weights are positive int64.  box_radius R
    certifies all cells lie in [-R, R]^dim.  provenance is the
    FiberMeasureSpec of a fiber build, and None for every other measure;
    it is not dumped, and derived measures do not inherit it.
    """

    base: int
    dim: int
    level: int
    idx: np.ndarray
    weights: np.ndarray
    box_radius: int
    boundary_ambiguous: int = 0
    provenance: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if len(self.idx) == 0:
            raise ValueError("empty measure")
        if self.idx.shape != (len(self.weights), self.dim):
            raise ValueError("index/weight shape mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive integers")
        first = self.idx[1:, 0] > self.idx[:-1, 0]
        if self.dim == 2:
            first |= (self.idx[1:, 0] == self.idx[:-1, 0]) & (
                self.idx[1:, 1] > self.idx[:-1, 1]
            )
        if not first.all():
            raise ValueError("cells must be sorted lexicographically without repeats")
        edge = self.box_radius * self.base**self.level
        if np.any(self.idx < -edge) or np.any(self.idx > edge - 1):
            raise ValueError("cell outside origin box")

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
        """Cell centers; shape (m,) for 1D, (m, 2) for 2D."""
        scale = 1.0 / self.base**self.level
        c = (self.idx + 0.5) * scale
        return c[:, 0] if self.dim == 1 else c

    def max_cell_mass(self) -> float:
        return int(self.weights.max()) / self.total

    def coarsen(self, n: int) -> "GridMeasure":
        """Reduce to level n <= level by exact integer aggregation."""
        if n > self.level:
            raise ValueError(
                f"entropy below resolution: level {n} finer than stored level {self.level}"
            )
        if n == self.level:
            return self
        factor = self.base ** (self.level - n)
        coarse = np.floor_divide(self.idx, factor)
        idx, w = _reduce_rows(coarse, self.weights)
        return GridMeasure(
            self.base, self.dim, n, idx, w, self.box_radius, self.boundary_ambiguous
        )

    def affine_badic(self, power: int, shift: Sequence[int]) -> "GridMeasure":
        """Image under z -> b^power * z + c with c a level-(level-power) corner.

        shift gives the corner index per axis at level (level - power).
        Cells permute, so this is exact and entropy-preserving.
        """
        if not 0 <= power <= self.level:
            raise ValueError(f"power must lie in [0, level], got {power}")
        shift = np.asarray(shift, dtype=np.int64).reshape(1, self.dim)
        new_idx = self.idx + shift
        new_level = self.level - power
        idx, w = _reduce_rows(new_idx, self.weights)
        return GridMeasure(
            self.base,
            self.dim,
            new_level,
            idx,
            w,
            _box_radius(idx, self.base, new_level),
            self.boundary_ambiguous,
        )

    def equals(self, other: "GridMeasure") -> bool:
        """Weight-for-weight equality of the cell tables."""
        return (
            self.base == other.base
            and self.dim == other.dim
            and self.level == other.level
            and self.idx.shape == other.idx.shape
            and bool(np.all(self.idx == other.idx))
            and bool(np.all(self.weights == other.weights))
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
    idx, flagged = _bin_points(points, base, level)
    dim = idx.shape[1]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
    idx, w = _reduce_rows(idx, weights)
    if box_radius is None:
        box_radius = _box_radius(idx, base, level)
    return GridMeasure(base, dim, level, idx, w, box_radius, flagged)


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
    idx, w = _reduce_rows(idx, w)
    if box_radius is None:
        box_radius = _box_radius(idx, base, level)
    return GridMeasure(base, dim, level, idx, w, box_radius)


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
    w = np.array(weights, dtype=np.int64)
    mu = GridMeasure(base, dim, level, idx, w, _box_radius(idx, base, level))
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
    idx, w = sums.table()
    return GridMeasure(
        mu.base,
        mu.dim,
        mu.level,
        idx,
        w,
        _box_radius(idx, mu.base, mu.level),
        mu.boundary_ambiguous + nu.boundary_ambiguous,
    )

