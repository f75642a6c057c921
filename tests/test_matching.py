"""Tests for Hamming distance and the brute-force matcher."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MatcherConfig
from repro.errors import DescriptorError
from repro.matching import hamming as hamming_module
from repro.matching import (
    BruteForceMatcher,
    Match,
    hamming_distance,
    match_minimum_distance,
)


def _random_descriptors(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 32), dtype=np.uint8)


#: Popcount of every byte value: the byte-table oracle the uint64 kernel
#: is checked against.
_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def _byte_table_distances(query: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Full ``(N, M)`` distance matrix by XOR tensor and byte-table lookup."""
    xor = np.bitwise_xor(query[:, np.newaxis, :], train[np.newaxis, :, :])
    return _POPCOUNT_TABLE[xor].sum(axis=2, dtype=np.int32)


def hamming_distance_matrix(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """Every tile of ``distance_tiles`` copied into one ``(N, M)`` int32 matrix."""
    a = hamming_module.as_descriptor_matrix(descriptors_a, "descriptors_a")
    b = hamming_module.as_descriptor_matrix(descriptors_b, "descriptors_b")
    distances = np.empty((a.shape[0], b.shape[0]), dtype=np.int32)
    for start, block in hamming_module.distance_tiles(a, b):
        distances[start : start + block.shape[0]] = block
    return distances


class TestHammingDistance:
    def test_identical_descriptors_distance_zero(self):
        descriptor = _random_descriptors(1)[0]
        assert hamming_distance(descriptor, descriptor) == 0

    def test_complement_distance_is_all_bits(self):
        descriptor = _random_descriptors(1)[0]
        assert hamming_distance(descriptor, np.bitwise_not(descriptor)) == 256

    def test_single_bit_flip(self):
        a = np.zeros(32, dtype=np.uint8)
        b = a.copy()
        b[5] = 0b00010000
        assert hamming_distance(a, b) == 1

    def test_symmetry(self):
        a, b = _random_descriptors(2, seed=1)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_triangle_inequality(self):
        a, b, c = _random_descriptors(3, seed=2)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DescriptorError):
            hamming_distance(np.zeros(32, dtype=np.uint8), np.zeros(16, dtype=np.uint8))

    def test_popcount_table(self):
        zero = np.zeros(1, dtype=np.uint8)
        counts = [hamming_distance(np.array([v], dtype=np.uint8), zero) for v in (0, 1, 3, 255)]
        assert counts == [0, 1, 2, 8]

    def test_normalized_distance(self):
        a = np.zeros(32, dtype=np.uint8)
        b = np.full(32, 255, dtype=np.uint8)
        assert hamming_distance(a, b) / (a.size * 8) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_distance_matches_bit_count(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, 32, dtype=np.uint8)
        b = rng.integers(0, 256, 32, dtype=np.uint8)
        expected = int(np.unpackbits(np.bitwise_xor(a, b)).sum())
        assert hamming_distance(a, b) == expected


class TestDistanceMatrix:
    def test_shape(self):
        a = _random_descriptors(5, seed=3)
        b = _random_descriptors(7, seed=4)
        assert hamming_distance_matrix(a, b).shape == (5, 7)

    def test_entries_match_pairwise(self):
        a = _random_descriptors(4, seed=5)
        b = _random_descriptors(3, seed=6)
        matrix = hamming_distance_matrix(a, b)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == hamming_distance(a[i], b[j])

    def test_diagonal_zero_for_same_set(self):
        a = _random_descriptors(6, seed=7)
        matrix = hamming_distance_matrix(a, a)
        assert np.all(np.diag(matrix) == 0)

    def test_byte_length_mismatch(self):
        with pytest.raises(DescriptorError):
            hamming_distance_matrix(
                np.zeros((2, 32), dtype=np.uint8), np.zeros((2, 16), dtype=np.uint8)
            )

    def test_accumulator_bound_rejects_longer_descriptors(self):
        limit = hamming_module.MAX_DESCRIPTOR_BYTES
        widest = np.full((1, limit), 255, dtype=np.uint8)
        assert hamming_distance_matrix(widest, np.zeros_like(widest))[0, 0] == limit * 8
        too_wide = np.zeros((1, limit + 1), dtype=np.uint8)
        with pytest.raises(DescriptorError):
            hamming_distance_matrix(too_wide, too_wide)

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 20, 33])
    def test_any_byte_width_matches_byte_table(self, width):
        rng = np.random.default_rng(width)
        a = rng.integers(0, 256, (5, width), dtype=np.uint8)
        b = rng.integers(0, 256, (9, width), dtype=np.uint8)
        expected = _byte_table_distances(a, b)
        got = hamming_distance_matrix(a, b)
        assert got.dtype == np.int32
        assert np.array_equal(got, expected)
        assert hamming_distance(a[0], b[0]) == expected[0, 0]


class TestTileKernelEdges:
    """``distance_tiles`` against the byte-table oracle at the kernel's edges."""

    @staticmethod
    def _tiled(query: np.ndarray, train: np.ndarray) -> np.ndarray:
        distances = np.full((query.shape[0], train.shape[0]), -1, dtype=np.int32)
        for start, block in hamming_module.distance_tiles(query, train):
            assert block.dtype == np.int16
            distances[start : start + block.shape[0]] = block
        return distances

    # 8,192 // 3 = 2,730: numpy's default ufunc buffer changes loop there
    @pytest.mark.parametrize("num_train", [1, 2729, 2731, 2733, 5400])
    def test_map_sizes_around_the_buffer_threshold(self, num_train):
        rng = np.random.default_rng(num_train)
        query = rng.integers(0, 256, (37, 32), dtype=np.uint8)
        train = rng.integers(0, 256, (num_train, 32), dtype=np.uint8)
        train[:5] = query[: min(5, num_train)]
        assert np.array_equal(self._tiled(query, train), _byte_table_distances(query, train))

    @pytest.mark.parametrize("width", range(1, 34))
    def test_every_width_up_to_five_words(self, width):
        rng = np.random.default_rng(100 + width)
        query = rng.integers(0, 256, (11, width), dtype=np.uint8)
        train = rng.integers(0, 256, (23, width), dtype=np.uint8)
        train[:11] = ~query  # exact complements: distance 8 * width
        got = self._tiled(query, train)
        assert np.array_equal(got, _byte_table_distances(query, train))
        assert np.all(np.diag(got[:, :11]) == 8 * width)

    @pytest.mark.parametrize("width", [24, 25, 32, 33, 64])
    def test_complement_pairs_past_the_uint8_partial(self, width):
        # 256 differing bits is one past what a uint8 partial sum holds
        ones = np.full((3, width), 255, dtype=np.uint8)
        zeros = np.zeros((4, width), dtype=np.uint8)
        rng = np.random.default_rng(width)
        query = np.vstack([ones, zeros, rng.integers(0, 256, (2, width), dtype=np.uint8)])
        train = np.vstack([zeros, ones, ~query[-2:]])
        got = self._tiled(query, train)
        assert np.array_equal(got, _byte_table_distances(query, train))
        assert got[0, 0] == got[3, 4] == got[7, 7] == 8 * width

    def test_bufsize_restored_after_match(self):
        query = _random_descriptors(300, seed=1)
        train = _random_descriptors(2000, seed=2)
        with np.errstate():
            np.setbufsize(4096)
            BruteForceMatcher().match_arrays(query, train)
            assert np.getbufsize() == 4096
            # the consumer of each tile runs under the caller's buffer size
            for _, _ in hamming_module.distance_tiles(query, train):
                assert np.getbufsize() == 4096
            with pytest.raises(DescriptorError):
                BruteForceMatcher().match_arrays(query, train[:, :16])
            assert np.getbufsize() == 4096

    def test_bufsize_restored_after_error_inside_a_tile(self):
        fill_tile = hamming_module._fill_tile
        calls = []

        def failing_fill_tile(*args):
            calls.append(np.getbufsize())
            if len(calls) == 2:
                raise DescriptorError("injected failure in the second tile")
            fill_tile(*args)

        query = _random_descriptors(300, seed=3)
        train = _random_descriptors(2000, seed=4)
        before = np.getbufsize()
        with mock.patch.object(hamming_module, "_fill_tile", failing_fill_tile):
            with pytest.raises(DescriptorError, match="second tile"):
                BruteForceMatcher().match_arrays(query, train)
        assert calls == [hamming_module._TILE_BUFSIZE] * 2
        assert np.getbufsize() == before


class TestMinimumDistanceMatching:
    def test_finds_exact_copies(self):
        train = _random_descriptors(20, seed=8)
        query = train[[3, 7, 11]]
        matches = match_minimum_distance(query, train)
        assert [m.train_index for m in matches] == [3, 7, 11]
        assert all(m.distance == 0 for m in matches)

    def test_one_match_per_query(self):
        query = _random_descriptors(5, seed=9)
        train = _random_descriptors(30, seed=10)
        matches = match_minimum_distance(query, train)
        assert len(matches) == 5
        assert [m.query_index for m in matches] == list(range(5))

    def test_empty_inputs(self):
        assert match_minimum_distance(np.zeros((0, 32), dtype=np.uint8), _random_descriptors(3)) == []
        assert match_minimum_distance(_random_descriptors(3), np.zeros((0, 32), dtype=np.uint8)) == []


class TestBruteForceMatcher:
    def test_rejects_large_distances(self):
        query = _random_descriptors(10, seed=11)
        train = _random_descriptors(10, seed=12)  # unrelated: distances ~128
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=30, ratio_threshold=1.0))
        assert matcher.match(query, train) == []
        assert matcher.last_stats.rejected_distance == 10

    def test_accepts_exact_matches(self):
        train = _random_descriptors(50, seed=13)
        query = train[:10]
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=30))
        matches = matcher.match(query, train)
        assert len(matches) == 10
        assert all(m.distance == 0 for m in matches)

    def test_ratio_test_rejects_ambiguous(self):
        base = _random_descriptors(1, seed=14)[0]
        near_a = base.copy()
        near_a[0] ^= 0x01
        near_b = base.copy()
        near_b[1] ^= 0x01
        train = np.stack([near_a, near_b])  # two nearly identical candidates
        matcher = BruteForceMatcher(
            MatcherConfig(max_hamming_distance=64, ratio_threshold=0.5)
        )
        assert matcher.match(base[np.newaxis, :], train) == []
        assert matcher.last_stats.rejected_ratio == 1

    def test_statistics_populated(self):
        query = _random_descriptors(4, seed=16)
        train = _random_descriptors(6, seed=17)
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=256, ratio_threshold=1.0))
        matcher.match(query, train)
        stats = matcher.last_stats
        assert stats.num_queries == 4
        assert stats.num_candidates == 6
        assert stats.distance_evaluations == 24

    def test_empty_returns_empty(self):
        matcher = BruteForceMatcher()
        assert matcher.match(np.zeros((0, 32), dtype=np.uint8), _random_descriptors(3)) == []


class TestVectorizedSelectionEquivalence:
    """The array-based match selection must mirror the per-query loop exactly."""

    @staticmethod
    def _loop_oracle(query, train, config):
        """Literal transcription of the old per-query selection loop."""
        distances = _byte_table_distances(query, train)
        best_train = np.argmin(distances, axis=1)
        best_distance = distances[np.arange(distances.shape[0]), best_train]
        matches, rejected = [], {"distance": 0, "ratio": 0}
        for qi in range(distances.shape[0]):
            ti, dist = int(best_train[qi]), int(best_distance[qi])
            if dist > config.max_hamming_distance:
                rejected["distance"] += 1
                continue
            row = distances[qi]
            passes = True
            if config.ratio_threshold < 1.0 and row.size >= 2:
                second = np.partition(np.delete(row, ti), 0)[0]
                passes = second != 0 and dist <= config.ratio_threshold * float(second)
            if not passes:
                rejected["ratio"] += 1
                continue
            matches.append(Match(qi, ti, dist))
        return matches, rejected

    @pytest.mark.parametrize("ratio", [0.5, 0.85, 1.0])
    def test_matches_and_counters_equal_loop(self, ratio):
        rng = np.random.default_rng(42)
        config = MatcherConfig(max_hamming_distance=40, ratio_threshold=ratio)
        for trial in range(25):
            query = rng.integers(0, 256, (8, 8), dtype=np.uint8)
            train = rng.integers(0, 256, (10, 8), dtype=np.uint8)
            train[:4] = query[:4]  # guarantee accepts and ties
            matcher = BruteForceMatcher(config)
            got = matcher.match(query, train)
            expected, rejected = self._loop_oracle(query, train, config)
            assert got == expected
            assert matcher.last_stats.rejected_distance == rejected["distance"]
            assert matcher.last_stats.rejected_ratio == rejected["ratio"]
            assert matcher.last_stats.accepted == len(expected)

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([8, 16, 20, 32]),
        num_query=st.integers(min_value=1, max_value=40),
        num_train=st.integers(min_value=1, max_value=24),
        tile_height=st.integers(min_value=1, max_value=9),
        bits=st.sampled_from([1, 8]),
        ratio=st.sampled_from([1.0, 0.85, 0.5]),
        max_distance=st.sampled_from([0, 256]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(width=32, num_query=1, num_train=1, tile_height=1, bits=8,
             ratio=0.5, max_distance=256, seed=0)
    @example(width=20, num_query=23, num_train=1, tile_height=4, bits=1,
             ratio=0.85, max_distance=256, seed=1)
    @example(width=16, num_query=1, num_train=24, tile_height=9, bits=1,
             ratio=0.5, max_distance=0, seed=2)
    def test_tiled_kernel_equals_byte_table_oracle(
        self, width, num_query, num_train, tile_height, bits, ratio, max_distance, seed
    ):
        """The fused tiles are bit-identical to a full-matrix search.

        ``bits=1`` draws bytes from {0, 1} and rows are duplicated across
        and within both sets, so equal best distances and duplicated
        second-bests both occur; the tile height is
        forced small so queries span several (partial) tiles.
        """
        rng = np.random.default_rng(seed)
        query = rng.integers(0, 2**bits, (num_query, width), dtype=np.uint8)
        train = rng.integers(0, 2**bits, (num_train, width), dtype=np.uint8)
        train[rng.integers(0, num_train, num_train // 2)] = query[
            rng.integers(0, num_query, num_train // 2)
        ]
        query[rng.integers(0, num_query, num_query // 3)] = query[
            rng.integers(0, num_query, num_query // 3)
        ]
        train[rng.integers(0, num_train, num_train // 3)] = train[
            rng.integers(0, num_train, num_train // 3)
        ]
        config = MatcherConfig(max_hamming_distance=max_distance, ratio_threshold=ratio)
        matcher = BruteForceMatcher(config)
        with mock.patch.object(hamming_module, "tile_rows", lambda num_train: tile_height):
            got = matcher.match_arrays(query, train)
            minimum = match_minimum_distance(query, train)
        expected, rejected = self._loop_oracle(query, train, config)
        assert got.query_indices.tolist() == [m.query_index for m in expected]
        assert got.train_indices.tolist() == [m.train_index for m in expected]
        assert got.distances.tolist() == [m.distance for m in expected]
        stats = matcher.last_stats
        assert stats.rejected_distance == rejected["distance"]
        assert stats.rejected_ratio == rejected["ratio"]
        assert stats.accepted == len(expected)
        assert stats.distance_evaluations == num_query * num_train
        distances = _byte_table_distances(query, train)
        best = np.argmin(distances, axis=1)
        assert [(m.train_index, m.distance) for m in minimum] == [
            (int(ti), int(distances[qi, ti])) for qi, ti in enumerate(best)
        ]


class TestMatcherMemory:
    """The matcher reduces tiles; it never holds an ``N x M`` array."""

    def test_peak_allocation_at_qvga_operating_point(self):
        rng = np.random.default_rng(7)
        query = rng.integers(0, 256, (1024, 32), dtype=np.uint8)
        train = rng.integers(0, 256, (5400, 32), dtype=np.uint8)
        matcher = BruteForceMatcher()
        tracemalloc.start()
        try:
            matcher.match_arrays(query, train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the int32 distance matrix alone would be 22 MB, the XOR tensor 177 MB
        assert peak < 32 * 2**20


class TestMatchArrays:
    """The array fast path must mirror the Match-object API exactly."""

    def test_arrays_equal_objects_and_stats(self):
        rng = np.random.default_rng(9)
        config = MatcherConfig(max_hamming_distance=48, ratio_threshold=0.9)
        for trial in range(10):
            query = rng.integers(0, 256, (12, 8), dtype=np.uint8)
            train = rng.integers(0, 256, (15, 8), dtype=np.uint8)
            train[:5] = query[:5]
            object_matcher = BruteForceMatcher(config)
            array_matcher = BruteForceMatcher(config)
            matches = object_matcher.match(query, train)
            arrays = array_matcher.match_arrays(query, train)
            assert arrays.to_matches() == matches
            assert arrays.size == len(matches)
            assert arrays.query_indices.tolist() == [m.query_index for m in matches]
            assert arrays.train_indices.tolist() == [m.train_index for m in matches]
            assert arrays.distances.tolist() == [m.distance for m in matches]
            assert vars(array_matcher.last_stats) == vars(object_matcher.last_stats)

    def test_empty_inputs_yield_empty_arrays(self):
        from repro.matching import MatchArrays

        arrays = BruteForceMatcher().match_arrays(
            np.zeros((0, 32), dtype=np.uint8), _random_descriptors(4)
        )
        assert isinstance(arrays, MatchArrays)
        assert arrays.size == 0
        assert arrays.to_matches() == []

    def test_no_match_objects_materialised_on_array_path(self):
        query = _random_descriptors(6, seed=3)
        arrays = BruteForceMatcher().match_arrays(query, query)
        # the fast path returns plain int64 arrays, one row per query (every
        # query matches itself at distance 0 here)
        assert arrays.query_indices.dtype == np.int64
        assert arrays.distances.tolist() == [0] * 6
        assert arrays.train_indices.tolist() == list(range(6))


class TestWindowedMatching:
    """``match_arrays`` with pixels: each image cell meets only its window."""

    @staticmethod
    def _perfbench_sized_inputs(seed: int):
        """1,024 queries and 3,000 map rows; 1,200 rows are noisy query copies.

        200 queries have two copies, so the ratio test has work to do.
        """
        rng = np.random.default_rng(seed)
        query = rng.integers(0, 256, (1024, 32), dtype=np.uint8)
        train = rng.integers(0, 256, (3000, 32), dtype=np.uint8)
        copies = rng.choice(3000, 1200, replace=False)
        sources = rng.choice(1024, 1000, replace=False)
        flips = rng.integers(0, 256, (1200, 32), dtype=np.uint8)
        flips &= rng.integers(0, 256, (1200, 32), dtype=np.uint8)
        flips &= rng.integers(0, 256, (1200, 32), dtype=np.uint8)  # ~1 bit in 8
        train[copies] = query[np.concatenate([sources, sources[:200]])] ^ flips
        return rng, query, train

    def test_window_covering_every_row_equals_brute_force(self):
        rng, query, train = self._perfbench_sized_inputs(seed=11)
        # every pixel inside one 12 px square: each cell's box, grown by
        # the window radius, holds every train pixel
        query_pixels = 200.0 + 12.0 * rng.random((1024, 2))
        train_pixels = 200.0 + 12.0 * rng.random((3000, 2))
        windowed_matcher, brute_matcher = BruteForceMatcher(), BruteForceMatcher()
        windowed = windowed_matcher.match_arrays(
            query, train, query_pixels=query_pixels, train_pixels=train_pixels
        )
        brute = brute_matcher.match_arrays(query, train)
        assert brute.size > 300
        assert brute_matcher.last_stats.rejected_ratio > 50
        assert np.array_equal(windowed.query_indices, brute.query_indices)
        assert np.array_equal(windowed.train_indices, brute.train_indices)
        assert np.array_equal(windowed.distances, brute.distances)
        assert windowed_matcher.last_stats == brute_matcher.last_stats

    def test_match_outside_the_cell_box_is_not_found(self):
        rng, query, train = self._perfbench_sized_inputs(seed=12)
        query_pixels = rng.random((1024, 2)) * (320.0, 240.0)
        train_pixels = rng.random((3000, 2)) * (320.0, 240.0)
        # query 0 sits in the top-left cell; its exact copy projects to the
        # far corner, well outside that cell's box
        query_pixels[0] = (2.0, 2.0)
        train[7] = query[0]
        train_pixels[7] = (318.0, 238.0)
        brute = BruteForceMatcher().match_arrays(query, train)
        assert 0 in brute.query_indices and brute.train_indices[0] == 7
        windowed = BruteForceMatcher().match_arrays(
            query, train, query_pixels=query_pixels, train_pixels=train_pixels
        )
        assert 7 not in windowed.train_indices[windowed.query_indices == 0]
        # moved into the box, the copy is found again
        train_pixels[7] = (10.0, 10.0)
        windowed = BruteForceMatcher().match_arrays(
            query, train, query_pixels=query_pixels, train_pixels=train_pixels
        )
        assert windowed.train_indices[windowed.query_indices == 0].tolist() == [7]

    def test_point_without_pixel_is_never_matched(self):
        query = _random_descriptors(40, seed=5)
        train = np.vstack([query, _random_descriptors(40, seed=6)])
        query_pixels = np.random.default_rng(5).random((40, 2)) * 100.0
        train_pixels = np.vstack([query_pixels, query_pixels])
        train_pixels[:40:2] = np.nan  # behind the camera
        matcher = BruteForceMatcher()
        windowed = matcher.match_arrays(
            query, train, query_pixels=query_pixels, train_pixels=train_pixels
        )
        assert not np.any(np.isin(windowed.train_indices, np.arange(0, 40, 2)))
        assert set(range(1, 40, 2)) <= set(windowed.query_indices.tolist())
        # the counters charge the brute-force pairs, not the window's
        assert matcher.last_stats.distance_evaluations == 40 * 80

    def test_query_with_an_empty_window_is_never_matched(self):
        query = _random_descriptors(10, seed=7)
        config = MatcherConfig(max_hamming_distance=10**6, ratio_threshold=1.0)
        windowed = BruteForceMatcher(config).match_arrays(
            query,
            query,
            query_pixels=np.zeros((10, 2)),
            train_pixels=np.full((10, 2), 500.0),
        )
        assert windowed.size == 0

    def test_pixels_come_in_pairs(self):
        query = _random_descriptors(4)
        with pytest.raises(DescriptorError):
            BruteForceMatcher().match_arrays(query, query, query_pixels=np.zeros((4, 2)))
