"""Tests for nearest-neighbour resizing and the image pyramid."""

import numpy as np
import pytest

from repro.config import PyramidConfig
from repro.errors import ImageError
from repro.image import (
    GrayImage,
    ImagePyramid,
    nearest_neighbor_resize,
    pyramid_level_shapes,
    pyramid_pixel_ratio,
    resize_dimensions,
)


class TestNearestNeighborResize:
    def test_identity_scale(self, blocks_image):
        resized = nearest_neighbor_resize(blocks_image, 1.0)
        assert resized == blocks_image

    def test_output_dimensions(self, blocks_image):
        resized = nearest_neighbor_resize(blocks_image, 2.0)
        assert resized.shape == (60, 80)

    def test_values_come_from_source(self, blocks_image):
        resized = nearest_neighbor_resize(blocks_image, 1.2)
        source_values = set(np.unique(blocks_image.pixels).tolist())
        assert set(np.unique(resized.pixels).tolist()) <= source_values

    def test_rejects_upscaling(self, blocks_image):
        with pytest.raises(ImageError):
            nearest_neighbor_resize(blocks_image, 0.5)

    def test_exact_sampling_grid(self):
        pixels = np.arange(100, dtype=np.uint8).reshape(10, 10)
        resized = nearest_neighbor_resize(GrayImage(pixels), 2.0)
        assert resized.pixels[0, 0] == 0
        assert resized.pixels[1, 1] == pixels[2, 2]


class TestImagePyramid:
    def test_default_has_four_levels(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image)
        assert pyramid.num_levels == 4
        assert len(pyramid) == 4

    def test_level_zero_is_input(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image)
        assert pyramid.level(0).image == large_blocks_image

    def test_levels_shrink_by_scale_factor(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image, PyramidConfig(num_levels=3, scale_factor=2.0))
        assert pyramid.level(1).image.shape == (120, 160)
        assert pyramid.level(2).image.shape == (60, 80)

    def test_total_pixels_and_counts(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image, PyramidConfig(num_levels=2))
        counts = [level.image.num_pixels for level in pyramid]
        assert len(counts) == 2
        assert pyramid.total_pixels() == sum(counts)
        assert counts[0] == large_blocks_image.num_pixels

    def test_level_out_of_range(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image)
        with pytest.raises(ImageError):
            pyramid.level(10)

    def test_iteration_order(self, large_blocks_image):
        pyramid = ImagePyramid(large_blocks_image)
        levels = [level.level for level in pyramid]
        assert levels == [0, 1, 2, 3]


class TestSharedResizeArithmetic:
    """One rounding rule for software levels and providers."""

    def test_resize_dimensions_matches_resize_output(self, blocks_image):
        for scale in (1.0, 1.2, 1.5, 2.0):
            resized = nearest_neighbor_resize(blocks_image, scale)
            assert resized.shape == resize_dimensions(120, 160, scale)

    def test_level_shapes_match_built_pyramid(self, large_blocks_image):
        config = PyramidConfig(num_levels=4)
        pyramid = ImagePyramid(large_blocks_image, config)
        shapes = pyramid_level_shapes(240, 320, config)
        assert shapes == [level.image.shape for level in pyramid]


class TestPyramidPixelRatio:
    def test_four_vs_two_layers_matches_paper(self):
        # Section 4.4: the 4-layer pyramid processes ~48% more pixels than 2 layers
        ratio = pyramid_pixel_ratio(4, 2, scale=1.2)
        assert ratio == pytest.approx(1.48, abs=0.01)

    def test_same_levels_is_one(self):
        assert pyramid_pixel_ratio(3, 3) == pytest.approx(1.0)

    def test_monotonic_in_levels(self):
        assert pyramid_pixel_ratio(4, 1) > pyramid_pixel_ratio(3, 1) > 1.0

    def test_rejects_invalid_levels(self):
        with pytest.raises(ImageError):
            pyramid_pixel_ratio(0, 2)
