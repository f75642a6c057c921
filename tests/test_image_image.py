"""Tests for the GrayImage container and the circular patch mask."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.image import GrayImage, circular_mask


class TestConstruction:
    def test_from_uint8_preserves_values(self):
        data = np.arange(12, dtype=np.uint8).reshape(3, 4)
        image = GrayImage(data)
        assert image.shape == (3, 4)
        assert np.array_equal(image.pixels, data)

    def test_from_unit_float_rescales(self):
        data = np.array([[0.0, 0.5], [1.0, 0.25]])
        image = GrayImage(data)
        assert image.pixels[0, 1] == 128
        assert image.pixels[1, 0] == 255

    def test_from_large_int_clips(self):
        data = np.array([[300, -5], [100, 255]])
        image = GrayImage(data)
        assert image.pixels[0, 0] == 255
        assert image.pixels[0, 1] == 0

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(ImageError):
            GrayImage(np.zeros((2, 2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ImageError):
            GrayImage(np.zeros((0, 4)))

    def test_zeros_and_full(self):
        assert GrayImage.zeros(4, 5).num_pixels == 20
        assert int(GrayImage.full(2, 2, 7).pixels.max()) == 7

    def test_zeros_rejects_nonpositive(self):
        with pytest.raises(ImageError):
            GrayImage.zeros(0, 5)


class TestAccessors:
    def test_contains_with_border(self):
        image = GrayImage.zeros(10, 10)
        assert image.contains(5, 5, border=3)
        assert not image.contains(2, 5, border=3)
        assert not image.contains(5, 8, border=3)

    def test_patch_shape_and_content(self, blocks_image):
        patch = blocks_image.patch(20, 30, 3)
        assert patch.shape == (7, 7)
        assert patch[3, 3] == blocks_image.pixels[30, 20]

    def test_patch_out_of_bounds(self, blocks_image):
        with pytest.raises(ImageError):
            blocks_image.patch(1, 1, 5)

    def test_equality_and_copy(self, blocks_image):
        clone = blocks_image.copy()
        assert clone == blocks_image
        assert clone is not blocks_image


class TestCircularMask:
    def test_shape(self):
        mask = circular_mask(3)
        assert mask.shape == (7, 7)

    def test_center_and_corners(self):
        mask = circular_mask(3)
        assert mask[3, 3]
        assert not mask[0, 0]

    def test_radius_zero(self):
        mask = circular_mask(0)
        assert mask.shape == (1, 1)
        assert mask[0, 0]

    def test_negative_radius_rejected(self):
        with pytest.raises(ImageError):
            circular_mask(-1)

    def test_symmetry(self):
        mask = circular_mask(5)
        assert np.array_equal(mask, mask.T)
        assert np.array_equal(mask, mask[::-1, ::-1])
