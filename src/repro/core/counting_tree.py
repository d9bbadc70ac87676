"""The Counting-tree (Section III-A, Algorithm 1, Figure 3).

The Counting-tree represents a dataset embedded in ``[0, 1)^d`` as a
stack of hyper-grids in ``H`` resolutions.  Level ``h`` partitions each
axis into ``2^h`` intervals of side ``1 / 2^h``; a cell stores

* ``n`` — the number of points it covers,
* ``P[j]`` — the *half-space count*: how many of those points fall in
  the lower half of the cell along axis ``e_j``,
* ``usedCell`` — consumed by the β-cluster search (phase two).

Only non-empty cells are materialised, so each level holds at most
``η`` cells regardless of the ``O(2^{dh})`` nominal grid size — the
paper's "linked list of cells per node" economy.  Levels are stored
column-wise in numpy arrays, rows in ascending cell-key order, so a
cell or face-neighbour lookup — which phase two depends on — is a
binary search of the sorted keys, O(log m) per query.

Construction is a single scan in the paper; here the points are binned
once at half-resolution ``2^H``, grouped once into the cells of level
``H-1``, and every coarser level is derived by *aggregating cells* —
right-shifting coordinates and summing counts over equal parents — so
the per-point work is O(η) total instead of O(η·H).  The result is
bit-identical to re-scanning the points per level (the seed behaviour,
kept as :func:`_reference_build` for the equivalence tests and the perf
baseline): each point still contributes one count to every level and
one half-space count per axis, exactly as Algorithm 1 lines 4-10.

One cell-key format: each level's coordinates are packed into int64
words (:func:`_cell_keys`) of whole ``h``-bit fields with the sign bit
clear, so comparing the words in order compares the coordinates
lexicographically.  Grouping sorts the words; ``Level`` keeps them, as
one big-endian void row per cell, as its sorted lookup index.  That
order is the one every ``Level``'s rows are in (checked at
construction), and the one the compiled kernels' merge-joins and the
β-search's lowest-row tie-break rely on.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
from scipy import sparse

from repro import env, obs
from repro.core.contracts import ContractError, check_array
from repro.types import AnyArray, BoolArray, FloatArray, IntArray

MIN_RESOLUTIONS = 3
"""Algorithm 1 requires ``H >= 3``."""

MAX_RESOLUTIONS = 32
"""Largest supported ``H``: binning scales float64 points by ``2**H``,
and every ``h``-bit key field must fit one packed int64 word; 32 keeps
both far inside their limits."""

SHARD_MIN_POINTS = 200_000
"""Below this many points the env-driven sharded build stays serial:
the process fan-out costs more than the binning it parallelises.  An
explicit ``n_jobs`` argument overrides the floor."""


def check_resolutions(n_resolutions: int) -> None:
    """Reject an ``H`` outside ``[MIN_RESOLUTIONS, MAX_RESOLUTIONS]``."""
    if n_resolutions < MIN_RESOLUTIONS:
        raise ValueError(f"n_resolutions must be >= {MIN_RESOLUTIONS}")
    if n_resolutions > MAX_RESOLUTIONS:
        raise ContractError(f"n_resolutions must be <= {MAX_RESOLUTIONS}")


class Level:
    """One resolution level of the Counting-tree, rows in key order.

    Attributes
    ----------
    h:
        Level number; cells have side ``1 / 2**h``.
    coords:
        ``(m, d)`` integer cell coordinates (``floor(x * 2**h)``), rows
        in strictly ascending lexicographic order.
    n:
        ``(m,)`` point count per cell.
    half_counts:
        ``(m, d)`` half-space counts (the paper's ``P[]``).
    keys:
        ``(m,)`` the rows' packed :func:`_cell_keys`, one big-endian
        ``|V{8w}`` row per cell for ``w`` words, the sorted lookup index.
    used:
        ``(m,)`` the ``usedCell`` flags.

    Row order is the invariant everything else leans on: the lookup
    index is the rows' own keys (row ``i`` is sorted position ``i``),
    the compiled kernels merge-join the ``coords`` rows directly, and
    the β-search breaks ties on the lowest row.  Every tree builder
    emits rows in this order; the constructor packs the keys once,
    checks the order on them, always on, and raises
    :class:`ContractError` for a coordinate outside ``[0, 2^h)`` or a
    row not strictly above its predecessor (out of order or
    duplicated).  ``used`` defaults to a fresh all-false array.
    """

    def __init__(
        self,
        h: int,
        coords: IntArray,
        n: IntArray,
        half_counts: IntArray,
        used: BoolArray | None = None,
    ):
        _check_cell_coords(coords, h)
        words = _cell_keys(coords, h)
        row = _first_unordered_row(words, coords.shape[0])
        if row >= 0:
            raise ContractError(
                f"level-{h} rows must be in strictly ascending key order; "
                f"row {row} {coords[row].tolist()} does not follow row "
                f"{row - 1} {coords[row - 1].tolist()}"
            )
        self.h = h
        self.coords = coords
        self.n = n
        self.half_counts = half_counts
        self.keys = _key_rows(words)
        self.used = (
            used if used is not None else np.zeros(coords.shape[0], dtype=bool)
        )
        self._axis0: IntArray | None = None

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells stored at this level."""
        return int(self.coords.shape[0])

    @property
    def side(self) -> float:
        """Cell side length ``ξ_h = 1 / 2**h``."""
        return 1.0 / (1 << self.h)

    @property
    def limit(self) -> int:
        """Largest admissible coordinate at this level (``2**h - 1``)."""
        return (1 << self.h) - 1

    def row_of(self, coords: IntArray) -> int:
        """Row index of the cell at ``coords``, or ``-1`` if empty."""
        rows = self.rows_of(np.asarray(coords).reshape(1, -1))
        return int(rows[0])

    def rows_of(self, coords: IntArray) -> IntArray:
        """Vectorised cell lookup: one row index (or -1) per query row.

        A binary search of the queries' packed keys in the sorted
        ``keys``.  A query with a coordinate outside ``[0, 2^h)`` is a
        miss (its packed key could alias another cell's); one with the
        wrong number of axes raises ``ValueError``.
        """
        coords = np.asarray(coords)
        d = self.coords.shape[1]
        if coords.ndim != 2 or coords.shape[1] != d:
            raise ValueError(
                f"level-{self.h} lookups need (k, {d}) coordinate rows, "
                f"got shape {coords.shape}"
            )
        if coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        queries = _key_rows(_cell_keys(coords, self.h))
        positions = np.searchsorted(self.keys, queries)
        positions = np.minimum(positions, self.keys.shape[0] - 1)
        found = self.keys[positions] == queries
        found &= np.all((coords >= 0) & (coords <= self.limit), axis=1)
        return np.where(found, positions, -1).astype(np.int64)

    def axis0_in_key_order(self) -> IntArray:
        """The axis-0 coordinate column, contiguous (cached).

        The key order is lexicographic, so this column is
        non-decreasing; ``np.searchsorted`` on it bounds the rows whose
        axis-0 coordinate falls in a range — the index the incremental
        β-cluster exclusion uses to avoid full-level scans.  Cached
        because ``searchsorted`` would copy the strided column of
        ``coords`` on every call.
        """
        if self._axis0 is None:
            self._axis0 = np.ascontiguousarray(self.coords[:, 0])
        return self._axis0

    def neighbor_rows(self, row: int, axis: int) -> tuple[int, int]:
        """Rows of the lower/upper face neighbours along ``axis`` (-1 if empty).

        Covers both the paper's *internal* and *external* neighbours:
        the sorted-key binary search does not care whether the
        neighbour lives in the same tree node or a sibling node.
        """
        coords = self.coords[row].copy()
        original = coords[axis]
        lower = -1
        if original > 0:
            coords[axis] = original - 1
            lower = self.row_of(coords)
        upper = -1
        if original < self.limit:
            coords[axis] = original + 1
            upper = self.row_of(coords)
        return lower, upper

    def bounds(self, row: int) -> tuple[FloatArray, FloatArray]:
        """Lower/upper bounds ``(l_j, u_j)`` of the cell in data space."""
        lower = self.coords[row] * self.side
        return lower, lower + self.side


class CountingTree:
    """Multi-resolution grid counts over a dataset in ``[0, 1)^d``.

    Parameters
    ----------
    points:
        Array of shape ``(η, d)`` with values in ``[0, 1)``.
    n_resolutions:
        The paper's ``H``; levels ``1 .. H-1`` are materialised (level 0
        is the root hyper-cube, kept implicitly).  Must be ≥ 3.
    n_jobs:
        Worker count for the sharded build.  ``None`` (default) reads
        ``REPRO_JOBS`` and shards only when the dataset is large enough
        to amortise the process fan-out (``SHARD_MIN_POINTS``); an
        explicit value ≥ 2 always shards.  The sharded build reduces
        per-shard cell aggregates in deterministic shard order and is
        bit-identical to the serial build.

    Notes
    -----
    Time ``O(η d + cells·H·d)`` — the η points are touched exactly once
    (binning plus one sort of their packed level-``H-1`` keys); every
    coarser level aggregates the previous level's at-most-η cells.  Space
    ``O(H η d)``, matching Algorithm 1's stated complexity.
    """

    def __init__(
        self,
        points: FloatArray,
        n_resolutions: int = 4,
        n_jobs: int | None = None,
    ):
        points = np.asarray(points, dtype=np.float64)
        check_array("points", points, dtype=np.float64, ndim=2, unit_box=True)
        if points.shape[0] == 0:
            raise ValueError("cannot build a Counting-tree over zero points")
        check_resolutions(n_resolutions)
        if n_jobs is not None and n_jobs < 1:
            raise ValueError("n_jobs must be a positive worker count")

        self._n_points, self._d = points.shape
        self._H = int(n_resolutions)

        with obs.span("tree.build"):
            if n_jobs is not None:
                jobs = n_jobs
            elif multiprocessing.parent_process() is None:
                jobs = env.jobs_from_env()
            else:
                # Already inside a worker process (e.g. an experiment
                # cell): never nest a process pool implicitly.
                jobs = 1
            shard = jobs > 1 and (
                n_jobs is not None or self._n_points >= SHARD_MIN_POINTS
            )
            if shard:
                from repro.core.streaming import sharded_levels

                self._levels = sharded_levels(points, self._H, jobs)
            else:
                base = bin_points(points, self._H)
                self._levels = aggregate_levels(base, self._H)

    @property
    def n_resolutions(self) -> int:
        """The paper's ``H``."""
        return self._H

    @property
    def dimensionality(self) -> int:
        """Embedding dimensionality ``d``."""
        return self._d

    @property
    def n_points(self) -> int:
        """Number of points counted (``η``)."""
        return self._n_points

    @property
    def levels(self) -> range:
        """Materialised level numbers (``1 .. H-1``)."""
        return range(1, self._H)

    def level(self, h: int) -> Level:
        """Return level ``h`` (raises ``KeyError`` for level 0 or ≥ H)."""
        return self._levels[h]

    def parent_row(self, h: int, row: int) -> int:
        """Row index (at level ``h-1``) of the parent of cell ``row`` at level ``h``."""
        if h <= 1:
            raise ValueError("level-1 cells have the implicit root as parent")
        parent_coords = self.level(h).coords[row] >> 1
        parent = self.level(h - 1).row_of(parent_coords)
        if parent < 0:
            raise RuntimeError("corrupt tree: populated cell with empty parent")
        return parent

    def loc_bits(self, h: int, row: int) -> np.ndarray:
        """The cell's relative position ``loc`` inside its parent (d bits)."""
        return (self.level(h).coords[row] & 1).astype(np.int64)

    def total_cells(self) -> int:
        """Total number of stored cells, for memory accounting."""
        return sum(level.n_cells for level in self._levels.values())


def bin_points(points: FloatArray, n_resolutions: int) -> IntArray:
    """Integer coordinates at the finest half-resolution ``2^H``.

    Every coarser level (and every half-space bit) is a right shift of
    these coordinates.
    """
    base = np.floor(points * (1 << n_resolutions)).astype(np.int64)
    np.clip(base, 0, (1 << n_resolutions) - 1, out=base)
    return base


LevelArrays = tuple[IntArray, IntArray, IntArray]
"""One level's structure-of-arrays cell aggregate: key-sorted
``(coords, counts, half_counts)``.  The canonical exchange format
between the builders — the streaming store, the shard workers and the
merge all speak it."""


def level_arrays(base: IntArray, n_resolutions: int) -> dict[int, LevelArrays]:
    """Per-level SoA cell aggregates from binned coordinates (pure).

    ``base`` holds the points' coordinates at half-resolution ``2^H``,
    which is never grouped itself: level ``H-1`` groups the points by
    ``base >> 1``, and a point is in the lower half of its level-``H-1``
    cell along ``e_j`` exactly when its ``base`` parity along ``e_j``
    is even.  Levels ``H-2`` down to ``1`` are derived the same way
    from the next-finer *cells* — right-shift the coordinates, sum
    counts over equal parents, and credit a finer cell's count to
    ``half_counts[j]`` where its coordinate is even along ``e_j``.  Only
    the first grouping sorts η rows; every later one sorts at most one
    row per finer cell.

    Each grouping sorts the packed int64 keys of :func:`_cell_keys`, and
    the resulting numeric-lexicographic cell order is canonical: any
    split of the points into chunks yields, after
    :func:`merge_level_arrays`, element-identical arrays.  Coordinates
    outside ``[0, 2^H)`` raise :class:`ContractError`.  This function is
    deliberately free of observability and environment access — it is
    the body shard workers run, and workers must be pure.
    """
    _check_cell_coords(base, n_resolutions)
    fine_coords = base
    fine_counts = np.ones(base.shape[0], dtype=np.int64)
    arrays: dict[int, LevelArrays] = {}
    for h in range(n_resolutions - 1, 0, -1):
        in_lower_half = (fine_coords & 1) ^ 1
        arrays[h] = _sum_by_cell(
            fine_coords >> 1, h, fine_counts, in_lower_half, fine_counts
        )
        fine_coords, fine_counts, _ = arrays[h]
    return {h: arrays[h] for h in range(1, n_resolutions)}


def merge_level_arrays(
    left: LevelArrays, right: LevelArrays, h: int
) -> LevelArrays:
    """Key-grouped sum of two SoA aggregates of level ``h`` (pure).

    Cell counts and half-space counts are sums over points, so merging
    two disjoint point sets' aggregates is an integer sum grouped by
    cell key; the output is again in canonical key order.  The merge is
    associative and commutative, which is what lets the sharded build
    reduce partial trees in deterministic shard order regardless of
    worker completion order.  Both operands are packed with the level's
    ``h``-bit key fields, and a coordinate outside ``[0, 2^h)`` raises
    :class:`ContractError`.
    """
    coords = np.concatenate([left[0], right[0]])
    _check_cell_coords(coords, h)
    counts = np.concatenate([left[1], right[1]])
    halves = np.concatenate([left[2], right[2]])
    ones = np.ones(counts.shape[0], dtype=np.int64)
    return _sum_by_cell(coords, h, counts, halves, ones)


def level_from_arrays(h: int, arrays: LevelArrays) -> Level:
    """Wrap one key-sorted SoA aggregate as a ``Level``."""
    cells, counts, halves = arrays
    return Level(
        h,
        np.ascontiguousarray(cells),
        np.ascontiguousarray(counts),
        np.ascontiguousarray(halves),
    )


def aggregate_levels(base: IntArray, n_resolutions: int) -> dict[int, Level]:
    """Build all levels from one binning pass, coarse levels by aggregation.

    Thin observability wrapper over :func:`level_arrays` — cell order,
    counts and half-space counts are element-identical to
    :func:`_reference_build`; the property tests assert it.
    """
    arrays = level_arrays(base, n_resolutions)
    levels: dict[int, Level] = {}
    for h in range(1, n_resolutions):
        levels[h] = level_from_arrays(h, arrays[h])
        obs.incr(f"tree.level{h}.cells", levels[h].n_cells)
    return levels


def _check_cell_coords(coords: IntArray, h: int) -> None:
    """Reject coordinates that do not fit level ``h``'s ``h``-bit fields.

    An out-of-range coordinate would spill into its neighbour's field of
    the packed key and silently alias distinct cells, so this guard is
    always on, contracts enabled or not — a wrong key is a wrong
    clustering, not a slow one.
    """
    if coords.size and (int(coords.min()) < 0 or int(coords.max()) >= 1 << h):
        raise ContractError(
            f"level-{h} cell coordinates must lie in [0, 2**{h}) to fit "
            f"the {h}-bit key fields (observed range "
            f"[{int(coords.min())}, {int(coords.max())}])"
        )


def _cell_keys(coords: IntArray, h: int) -> list[IntArray]:
    """Pack level-``h`` coordinate rows into lexicographic int64 words.

    Each word holds ``63 // h`` whole ``h``-bit axis fields, the lower
    axis in the higher bits, and the sign bit stays clear; comparing
    the words in order is comparing the rows lexicographically.  One
    word covers every level with ``h·d <= 63``.
    """
    per_word = 63 // h
    words = []
    for start in range(0, coords.shape[1], per_word):
        fields = coords[:, start : start + per_word]
        shifts = h * np.arange(fields.shape[1] - 1, -1, -1, dtype=np.int64)
        words.append(fields @ (np.int64(1) << shifts))
    return words


def _key_rows(words: list[IntArray]) -> AnyArray:
    """The :func:`_cell_keys` words as one big-endian ``|V{8w}`` row per cell.

    The words' sign bits are clear, so comparing these bytes compares
    the words in order — the lexicographic coordinate order
    ``np.searchsorted`` needs.
    """
    rows = np.empty((words[0].shape[0], len(words)), dtype=">i8")
    for column, word in enumerate(words):
        rows[:, column] = word
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()


def _first_unordered_row(words: list[IntArray], rows: int) -> int:
    """First row whose packed key is not above its predecessor's, or -1.

    ``words`` are the :func:`_cell_keys` of ``rows`` rows; rows compare
    word by word, so a row is out of order where it falls below its
    predecessor at the first differing word, and a duplicate where no
    word differs.
    """
    bad = np.zeros(max(rows - 1, 0), dtype=bool)
    tied = np.ones_like(bad)
    for word in words:
        before, after = word[:-1], word[1:]
        bad |= tied & (before > after)
        tied &= before == after
    bad |= tied
    return int(np.argmax(bad)) + 1 if bad.any() else -1


def _sum_by_cell(
    coords: IntArray,
    h: int,
    counts: IntArray,
    halves: IntArray,
    half_weights: IntArray,
) -> LevelArrays:
    """Group level-``h`` rows into cells in key order and sum them.

    Returns ``(cells, Σ counts, Σ half_weights·halves)`` per cell.  The
    half-count sum is one sparse product with the group-membership
    matrix — an exact int64 sum without a per-group fixed cost, which
    matters because most groups hold one or two rows.
    """
    words = _cell_keys(coords, h)
    if len(words) == 1:
        order = np.argsort(words[0])
    else:
        order = np.lexsort(words[::-1])
    rows = order.shape[0]
    boundary = np.zeros(rows, dtype=bool)
    boundary[:1] = True
    for word in words:
        ranked = word[order]
        boundary[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(boundary)
    membership = sparse.csr_matrix(
        (half_weights[order], order, np.append(starts, rows)),
        shape=(starts.shape[0], rows),
    )
    return (
        np.ascontiguousarray(coords[order[starts]]),
        np.add.reduceat(counts[order], starts),
        membership @ halves,
    )


def _reference_build(base: IntArray, h: int, n_resolutions: int, d: int) -> Level:
    """The seed per-level rescan build of one level (kept as reference).

    Re-derives level ``h`` straight from the η per-point coordinates —
    one ``np.unique`` sort of all points per level.  No longer used by
    :class:`CountingTree` itself; the equivalence tests and the perf
    baseline compare :func:`aggregate_levels` against it.
    """
    shift = n_resolutions - h
    coords_h = base >> shift
    cells, inverse = np.unique(coords_h, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    counts = np.bincount(inverse, minlength=cells.shape[0]).astype(np.int64)

    # Half-space bit: the next-finer coordinate's parity along each
    # axis; bit 0 means the point is in the lower half of this cell.
    half_bits = (base >> (shift - 1)) & 1
    half_counts = np.zeros((cells.shape[0], d), dtype=np.int64)
    np.add.at(half_counts, inverse, (half_bits == 0).astype(np.int64))

    return Level(h, np.ascontiguousarray(cells), counts, half_counts)


def reference_levels(
    base: IntArray, n_resolutions: int, d: int
) -> dict[int, Level]:
    """All levels via the seed per-level rescan (reference path)."""
    return {
        h: _reference_build(base, h, n_resolutions, d)
        for h in range(1, n_resolutions)
    }


def tree_from_levels(
    levels: dict[int, Level], d: int, n_points: int, n_resolutions: int
) -> CountingTree:
    """Assemble a CountingTree around pre-built levels.

    Used by the streaming builder and by the perf baseline's reference
    path; callers guarantee the levels are mutually consistent.
    """
    tree = CountingTree.__new__(CountingTree)
    tree._n_points = n_points
    tree._d = d
    tree._H = n_resolutions
    tree._levels = levels
    return tree
