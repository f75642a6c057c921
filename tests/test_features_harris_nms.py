"""Tests for the Harris response and non-maximum suppression."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features import (
    harris_response_map,
    harris_scores_sparse,
    non_maximum_suppression,
    suppress_keypoints,
)
from repro.image import GrayImage, isolated_corner


class TestHarris:
    def test_flat_image_zero_response(self, flat_image):
        response = harris_response_map(flat_image)
        assert np.abs(response).max() == pytest.approx(0.0)

    def test_corner_scores_higher_than_edge(self):
        image = isolated_corner(64, 64, corner_xy=(32, 32))
        response = harris_response_map(image)
        corner_score = response[30:35, 30:35].max()
        edge_score = response[10, 32]  # on the vertical edge far from the corner
        assert corner_score > edge_score

    def test_edges_have_negative_or_small_response(self):
        pixels = np.zeros((64, 64), dtype=np.uint8)
        pixels[:, 32:] = 200  # pure vertical edge, no corners
        response = harris_response_map(GrayImage(pixels))
        interior = response[10:-10, 10:-10]
        assert interior.max() <= 0 + 1e-6

    def test_scores_at_points(self, blocks_image):
        points = [(20, 30), (40, 50)]
        scores = harris_scores_sparse(
            blocks_image, np.array([x for x, _ in points]), np.array([y for _, y in points])
        )
        response = harris_response_map(blocks_image)
        assert scores[0] == pytest.approx(response[30, 20])
        assert scores[1] == pytest.approx(response[50, 40])

    def test_scores_at_rejects_outside(self, blocks_image):
        with pytest.raises(FeatureError):
            harris_scores_sparse(blocks_image, np.array([1000]), np.array([10]))

    def test_block_radius_must_be_positive(self, blocks_image):
        with pytest.raises(FeatureError):
            harris_response_map(blocks_image, block_radius=0)


class TestNonMaximumSuppression:
    def test_single_maximum_survives(self):
        corner = np.zeros((9, 9), dtype=bool)
        scores = np.zeros((9, 9))
        corner[4, 4] = corner[4, 5] = True
        scores[4, 4] = 10.0
        scores[4, 5] = 5.0
        keep = non_maximum_suppression(corner, scores)
        assert keep[4, 4]
        assert not keep[4, 5]

    def test_distant_corners_both_survive(self):
        corner = np.zeros((12, 12), dtype=bool)
        scores = np.zeros((12, 12))
        for x in (2, 9):
            corner[5, x] = True
            scores[5, x] = 7.0
        keep = non_maximum_suppression(corner, scores)
        assert keep[5, 2] and keep[5, 9]

    def test_ties_keep_exactly_one(self):
        corner = np.zeros((8, 8), dtype=bool)
        scores = np.zeros((8, 8))
        corner[3, 3] = corner[3, 4] = True
        scores[3, 3] = scores[3, 4] = 5.0
        keep = non_maximum_suppression(corner, scores)
        assert keep.sum() == 1
        assert keep[3, 3]  # raster-first wins the tie

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FeatureError):
            non_maximum_suppression(np.zeros((4, 4), dtype=bool), np.zeros((5, 5)))

    def test_radius_must_be_positive(self):
        with pytest.raises(FeatureError):
            non_maximum_suppression(np.zeros((4, 4), dtype=bool), np.zeros((4, 4)), radius=0)

    def test_no_corners_in_suppressed_neighbourhoods(self, blocks_image):
        from repro.features import fast_corner_mask, harris_response_map

        corners = fast_corner_mask(blocks_image)
        scores = harris_response_map(blocks_image)
        keep = non_maximum_suppression(corners, scores)
        ys, xs = np.nonzero(keep)
        coords = set(zip(xs.tolist(), ys.tolist()))
        for x, y in coords:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if (dx, dy) == (0, 0):
                        continue
                    assert (x + dx, y + dy) not in coords


class TestSparseSuppression:
    def test_indices_of_survivors(self):
        points = [(5, 5), (6, 5), (20, 20)]
        scores = [3.0, 9.0, 1.0]
        kept = suppress_keypoints(points, scores, shape=(32, 32))
        assert kept == [1, 2]

    def test_length_mismatch(self):
        with pytest.raises(FeatureError):
            suppress_keypoints([(1, 1)], [1.0, 2.0], shape=(8, 8))

    def test_out_of_bounds_point(self):
        with pytest.raises(FeatureError):
            suppress_keypoints([(100, 1)], [1.0], shape=(8, 8))
