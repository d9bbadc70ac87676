"""Tests for the Counting-tree (Algorithm 1, Figure 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.contracts import ContractError
from repro.core.counting_tree import (
    CountingTree,
    Level,
    bin_points,
    level_arrays,
    merge_level_arrays,
    reference_levels,
)
from repro.core.streaming import TreeStreamBuilder, shard_level_arrays


def _tree(points, H=4):
    return CountingTree(np.asarray(points, dtype=np.float64), n_resolutions=H)


class TestConstruction:
    def test_rejects_points_outside_unit_cube(self):
        with pytest.raises(ValueError, match="normalise"):
            _tree([[0.5, 1.5]])

    def test_rejects_too_few_resolutions(self):
        with pytest.raises(ValueError, match=">= 3"):
            _tree([[0.5, 0.5]], H=2)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="zero points"):
            _tree(np.zeros((0, 3)))

    def test_levels_one_to_h_minus_one(self):
        tree = _tree([[0.1, 0.9]], H=5)
        assert list(tree.levels) == [1, 2, 3, 4]
        with pytest.raises(KeyError):
            tree.level(5)


class TestCounts:
    def test_every_level_counts_every_point(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(500, 4))
        tree = _tree(points)
        for h in tree.levels:
            assert int(tree.level(h).n.sum()) == 500

    def test_single_point_path(self):
        tree = _tree([[0.3, 0.8]])
        for h in tree.levels:
            level = tree.level(h)
            assert level.n_cells == 1
            expected = np.floor(np.array([0.3, 0.8]) * (1 << h)).astype(int)
            assert np.array_equal(level.coords[0], expected)

    def test_known_grid_placement(self):
        # Four points in distinct level-1 quadrants of the unit square.
        points = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]]
        level1 = _tree(points).level(1)
        assert level1.n_cells == 4
        assert np.all(level1.n == 1)

    def test_parent_child_count_consistency(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(400, 3))
        tree = _tree(points)
        for h in range(2, tree.n_resolutions - 1 + 1):
            if h not in tree.levels:
                continue
            child = tree.level(h)
            parent = tree.level(h - 1)
            per_parent = {}
            for row in range(child.n_cells):
                key = tuple((child.coords[row] >> 1).tolist())
                per_parent[key] = per_parent.get(key, 0) + int(child.n[row])
            for key, total in per_parent.items():
                parent_row = parent.row_of(np.asarray(key))
                assert parent_row >= 0
                assert int(parent.n[parent_row]) == total


class TestHalfSpaceCounts:
    def test_half_counts_sum_to_cell_count_in_each_axis(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(300, 3))
        tree = _tree(points)
        for h in tree.levels:
            level = tree.level(h)
            assert np.all(level.half_counts >= 0)
            assert np.all(level.half_counts <= level.n[:, None])

    def test_half_count_matches_direct_computation(self):
        points = np.array(
            [[0.10, 0.6], [0.20, 0.6], [0.30, 0.6], [0.45, 0.6]]
        )
        tree = _tree(points, H=3)
        level1 = tree.level(1)
        # All four points are in level-1 cell (0, 1).
        row = level1.row_of(np.array([0, 1]))
        # Along axis 0, the cell [0, 0.5) splits at 0.25: two points
        # (0.10, 0.20) in the lower half.
        assert level1.half_counts[row, 0] == 2
        # Along axis 1, the cell [0.5, 1.0) splits at 0.75: all four
        # points in the lower half.
        assert level1.half_counts[row, 1] == 4


class TestNeighborsAndBounds:
    def test_face_neighbors_found_and_missing(self):
        points = np.array([[0.1, 0.1], [0.4, 0.1]])  # adjacent level-2 cells? no:
        # level-2 cells: floor(x*4): (0,0) and (1,0) — adjacent along axis 0.
        tree = _tree(points, H=3)
        level2 = tree.level(2)
        row = level2.row_of(np.array([0, 0]))
        lower, upper = level2.neighbor_rows(row, 0)
        assert lower == -1  # grid border
        assert upper == level2.row_of(np.array([1, 0]))
        lower, upper = level2.neighbor_rows(row, 1)
        assert lower == -1
        assert upper == -1  # empty space

    def test_bounds(self):
        tree = _tree([[0.3, 0.8]])
        level2 = tree.level(2)
        lower, upper = level2.bounds(0)
        assert lower == pytest.approx([0.25, 0.75])
        assert upper == pytest.approx([0.5, 1.0])

    def test_loc_bits_match_relative_position(self):
        tree = _tree([[0.3, 0.8]])
        # Level-2 cell (1, 3): inside its level-1 parent (0, 1) it sits
        # in the upper half of both axes.
        bits = tree.loc_bits(2, 0)
        assert bits.tolist() == [1, 1]

    def test_parent_row_round_trip(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 1, size=(100, 2))
        tree = _tree(points)
        level2 = tree.level(2)
        for row in range(level2.n_cells):
            parent = tree.parent_row(2, row)
            assert np.array_equal(
                tree.level(1).coords[parent], level2.coords[row] >> 1
            )


def _level(h, coords):
    coords = np.asarray(coords, dtype=np.int64)
    m, d = coords.shape
    return Level(
        h,
        coords,
        np.ones(m, dtype=np.int64),
        np.zeros((m, d), dtype=np.int64),
    )


class TestLevelLookup:
    """``rows_of`` binary-searches the rows' packed keys."""

    def test_rows_of_vectorised_lookup(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 1, size=(200, 3))
        tree = _tree(points)
        level = tree.level(2)
        rows = level.rows_of(level.coords)
        assert np.array_equal(rows, np.arange(level.n_cells))
        # One step down on axis 1 and 2**h = 4 up on axis 2, off the
        # grid, packs to the same key as ``row``: a miss, not ``row``.
        row = int(np.flatnonzero(level.coords[:, 1] >= 1)[0])
        alias = level.coords[row] + np.array([0, -1, 4])
        missing = level.rows_of(np.stack([np.full(3, 13), alias]))
        assert missing.tolist() == [-1, -1]

    def test_wrong_axis_count_raises_value_error(self):
        level = _level(2, [[0, 3], [1, 0]])
        with pytest.raises(ValueError, match=r"\(k, 2\) coordinate rows"):
            level.rows_of(np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(k, 2\) coordinate rows"):
            level.row_of(np.array([1]))

    @pytest.mark.parametrize("d, words", [(15, 1), (30, 2)])
    def test_rows_of_matches_brute_force_lookup(self, d, words):
        # Level 4 packs 15 four-bit fields per word, so d=30 needs two.
        # Twins one cell up on the last axis make the last-axis probes
        # hit cells that differ from a stored one in the last word only.
        rng = np.random.default_rng(d)
        points = rng.uniform(0.1, 0.8, size=(1000, d))
        twins = points[:500].copy()
        twins[:, -1] += 1 / 16
        level = _tree(np.concatenate([points, twins]), H=5).level(4)
        assert level.keys.dtype.itemsize == 8 * words
        index = {tuple(row): i for i, row in enumerate(level.coords.tolist())}
        neighbours = level.coords.copy()
        neighbours[:, -1] += 1
        probes = np.concatenate(
            [
                level.coords,
                neighbours,
                rng.integers(0, 16, size=(200, d)),
                np.zeros((1, d), dtype=np.int64),  # below the first key
                np.full((1, d), 15, dtype=np.int64),  # past the last key
            ]
        )
        want = [index.get(tuple(row), -1) for row in probes.tolist()]
        assert level.rows_of(probes).tolist() == want
        assert want[-2:] == [-1, -1]
        assert 0 < sum(w >= 0 for w in want[level.n_cells :])


class TestLevelKeyOrder:
    """A ``Level``'s rows must be in strictly ascending key order."""

    def test_key_ordered_rows_are_accepted(self):
        level = _level(2, [[0, 3], [1, 0], [1, 2], [3, 3]])
        assert level.n_cells == 4
        assert level.limit == 3
        assert not level.used.any()
        rows = level.rows_of(level.coords)
        assert rows.tolist() == [0, 1, 2, 3]

    def test_out_of_order_rows_are_rejected(self):
        # The rows of a valid level permuted [2, 0, 3, 1]: lookups
        # through the sorted keys would miss 3 of the 4 cells.
        coords = np.array([[0, 3], [1, 0], [1, 2], [3, 3]])[[2, 0, 3, 1]]
        with pytest.raises(ContractError, match="ascending key order"):
            _level(2, coords)

    def test_duplicate_rows_are_rejected(self):
        with pytest.raises(ContractError, match=r"row 2 \[1, 2\]"):
            _level(2, [[0, 3], [1, 2], [1, 2], [3, 3]])

    def test_order_decided_by_a_trailing_key_word(self):
        # h=32 packs one axis per int64 word, so these rows tie on the
        # first word and differ only in the later ones.
        top = (1 << 32) - 1
        _level(32, [[top, 4, top], [top, 5, 0]])
        with pytest.raises(ContractError, match="ascending key order"):
            _level(32, [[top, 5, 0], [top, 4, top]])
        with pytest.raises(ContractError, match="ascending key order"):
            _level(32, [[top, 5, 0], [top, 5, 0]])

    def test_coordinates_outside_the_level_grid_are_rejected(self):
        with pytest.raises(ContractError, match=r"\[0, 2\*\*2\)"):
            _level(2, [[0, 4]])
        with pytest.raises(ContractError, match=r"\[0, 2\*\*2\)"):
            _level(2, [[-1, 0]])

    def test_check_stays_on_with_contracts_disabled(self):
        from repro.core import contracts

        with contracts.disabled():
            with pytest.raises(ContractError, match="ascending key order"):
                _level(2, [[1, 0], [0, 3]])
            with pytest.raises(ContractError, match=r"\[0, 2\*\*2\)"):
                _level(2, [[0, 4]])


class TestResolutionRange:
    """Every builder shares one ``H`` range check."""

    def test_tree_rejects_high_resolutions(self):
        with pytest.raises(ContractError, match="n_resolutions"):
            _tree([[0.5, 0.5]], H=33)

    def test_streaming_build_rejects_high_resolutions(self):
        from repro.core.streaming import build_tree_from_chunks

        chunks = [np.array([[0.25, 0.75]], dtype=np.float64)]
        with pytest.raises(ContractError, match="n_resolutions"):
            build_tree_from_chunks(chunks, n_resolutions=33)

    def test_estimator_rejects_high_resolutions_up_front(self):
        from repro.core.mrcc import MrCC

        with pytest.raises(ContractError, match="n_resolutions"):
            MrCC(n_resolutions=33)


def _soa(level):
    return level.coords, level.n, level.half_counts


def _assert_level_equal(arrays, reference):
    """Element- and dtype-identical ``(coords, n, half_counts)``."""
    for got, want in zip(arrays, _soa(reference)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _width_points(n_points, d, seed):
    """Uniform rows plus repeated rows, rows that differ only in the
    last axis (cells told apart by a trailing key word alone) and both
    grid corners, so every level aggregates and reaches its extreme
    coordinates."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0, 1, size=(n_points, d))
    repeats = uniform[rng.integers(0, n_points, size=n_points // 2)]
    twins = uniform[: n_points // 4].copy()
    twins[:, -1] = rng.uniform(0, 1, size=twins.shape[0])
    corners = np.stack([np.zeros(d), np.full(d, np.nextafter(1.0, 0.0))])
    return rng.permutation(np.concatenate([uniform, repeats, twins, corners]))


class TestPackedKeyGuard:
    """Grouping packs h-bit fields; a coordinate outside [0, 2**h) must
    raise, since it would spill into the next field and alias cells."""

    def _merge_operand(self, coords):
        coords = np.array(coords, dtype=np.int64)
        m = coords.shape[0]
        return coords, np.ones(m, dtype=np.int64), np.ones_like(coords)

    def test_level_arrays_accepts_boundary_coordinates(self):
        base = np.array([[15, 0], [0, 15]], dtype=np.int64)
        arrays = level_arrays(base, 4)
        assert arrays[3][0].tolist() == [[0, 7], [7, 0]]

    def test_level_arrays_rejects_coordinate_at_two_to_the_h(self):
        with pytest.raises(ContractError, match=r"\[0, 2\*\*4\)"):
            level_arrays(np.array([[0, 16]], dtype=np.int64), 4)

    def test_level_arrays_rejects_negative_coordinate(self):
        with pytest.raises(ContractError, match="key fields"):
            level_arrays(np.array([[-1, 0]], dtype=np.int64), 4)

    def test_merge_rejects_coordinate_past_level_width(self):
        left = self._merge_operand([[3, 5]])
        with pytest.raises(ContractError, match=r"\[0, 2\*\*3\)"):
            merge_level_arrays(left, self._merge_operand([[8, 0]]), 3)

    def test_merge_rejects_negative_coordinate(self):
        left = self._merge_operand([[3, 5]])
        with pytest.raises(ContractError, match="key fields"):
            merge_level_arrays(left, self._merge_operand([[0, -1]]), 3)

    def test_disabled_contracts_still_guard_packed_keys(self):
        # The guard is a correctness invariant, not a data-scan option.
        from repro.core import contracts

        left = self._merge_operand([[3, 5]])
        with contracts.disabled():
            with pytest.raises(ContractError):
                level_arrays(np.array([[0, 16]], dtype=np.int64), 4)
            with pytest.raises(ContractError):
                merge_level_arrays(left, self._merge_operand([[0, 8]]), 3)

    def test_rejected_merge_leaves_stream_builder_unchanged(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 1, size=(200, 3))
        builder = TreeStreamBuilder(n_resolutions=4)
        builder.absorb(points)
        partial = shard_level_arrays(points[:10], 4)
        coords, counts, halves = partial[3]
        corrupt = coords.copy()
        corrupt[0, 1] = 8
        partial[3] = (corrupt, counts, halves)
        with pytest.raises(ContractError):
            builder.absorb_arrays(partial, n_points=10)
        assert builder.n_points == 200
        expected = reference_levels(bin_points(points, 4), 4, 3)
        for h, level in builder.build_levels().items():
            _assert_level_equal(_soa(level), expected[h])


class TestPackedKeyWidths:
    """Every key width — one word, a word boundary, several words —
    groups element-identically to the per-level rescan oracle, one-shot,
    chunked and sharded alike."""

    WIDTHS = [
        # (H, d): level H-1 packs (H-1)·d bits into 63 // (H-1) fields
        # per word.
        pytest.param(4, 21, id="h3-d21-63bits-one-full-word"),
        pytest.param(4, 22, id="h3-d22-66bits-two-words"),
        pytest.param(5, 16, id="h4-d16-64bits-two-words"),
        pytest.param(32, 3, id="h31-two-fields-per-word"),
        pytest.param(32, 5, id="h31-three-words"),
        pytest.param(5, 1, id="d1"),
        pytest.param(5, 40, id="d40"),
    ]

    @pytest.mark.parametrize("H, d", WIDTHS)
    def test_one_shot_matches_reference(self, H, d):
        points = _width_points(300, d, seed=H * 100 + d)
        base = bin_points(points, H)
        arrays = level_arrays(base, H)
        expected = reference_levels(base, H, d)
        assert arrays[H - 1][0].shape[0] < points.shape[0]
        for h in range(1, H):
            _assert_level_equal(arrays[h], expected[h])

    @pytest.mark.parametrize("H, d", WIDTHS)
    def test_chunked_and_sharded_match_one_shot(self, H, d):
        points = _width_points(300, d, seed=H * 100 + d)
        expected = reference_levels(bin_points(points, H), H, d)
        # Uneven chunks, one of them a single point.
        chunked = TreeStreamBuilder(n_resolutions=H)
        for chunk in np.split(points, [1, 40, 41, 250]):
            chunked.absorb(chunk)
        # The sharded reduce: per-shard partial trees in shard order.
        sharded = TreeStreamBuilder(n_resolutions=H)
        for shard in np.array_split(points, 3):
            sharded.absorb_arrays(
                shard_level_arrays(shard, H), n_points=shard.shape[0]
            )
        for builder in (chunked, sharded):
            for h, level in builder.build_levels().items():
                _assert_level_equal(_soa(level), expected[h])

    def test_multi_word_sharded_tree_matches_reference(self):
        points = _width_points(300, 22, seed=7)
        tree = CountingTree(points, n_resolutions=4, n_jobs=2)
        expected = reference_levels(bin_points(points, 4), 4, 22)
        for h in tree.levels:
            level = tree.level(h)
            _assert_level_equal(_soa(level), expected[h])

    @pytest.mark.parametrize("d", [1, 3, 22])
    def test_single_point_matches_reference(self, d):
        points = np.random.default_rng(d).uniform(0, 1, size=(1, d))
        base = bin_points(points, 5)
        arrays = level_arrays(base, 5)
        expected = reference_levels(base, 5, d)
        for h in range(1, 5):
            assert arrays[h][0].shape[0] == 1
            _assert_level_equal(arrays[h], expected[h])

    @pytest.mark.parametrize("d", [2, 22])
    @pytest.mark.parametrize("one_cell_side", ["left", "right"])
    def test_merge_with_a_one_cell_side(self, d, one_cell_side):
        points = _width_points(200, d, seed=d + 1)
        # Two copies of one point: one cell, with a count of two.
        single = np.repeat(points[:1], 2, axis=0)
        many = level_arrays(bin_points(points[1:], 4), 4)
        one = level_arrays(bin_points(single, 4), 4)
        expected = reference_levels(
            bin_points(np.concatenate([single, points[1:]]), 4), 4, d
        )
        for h in range(1, 4):
            assert one[h][0].shape[0] == 1
            pair = (one[h], many[h])
            if one_cell_side == "right":
                pair = pair[::-1]
            _assert_level_equal(merge_level_arrays(*pair, h), expected[h])


class TestComplexityProxies:
    def test_cells_bounded_by_points_per_level(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 1, size=(250, 8))
        tree = _tree(points, H=5)
        for h in tree.levels:
            assert tree.level(h).n_cells <= 250

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 120), st.integers(1, 5)),
            elements=st.floats(0.0, 0.999, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_random_data(self, points):
        tree = _tree(points)
        n = points.shape[0]
        for h in tree.levels:
            level = tree.level(h)
            assert int(level.n.sum()) == n
            assert np.all(level.half_counts <= level.n[:, None])
            assert np.all(level.coords >= 0)
            assert np.all(level.coords < (1 << h))
