"""Tests for Gaussian/box filtering and Sobel gradients."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.image import (
    GrayImage,
    gaussian_blur,
    gaussian_kernel_1d,
    gaussian_kernel_2d,
    sobel_gradients,
)


class TestKernels:
    def test_kernel_normalised(self):
        kernel = gaussian_kernel_1d(7, 2.0)
        assert kernel.sum() == pytest.approx(1.0)

    def test_kernel_symmetric_and_peaked(self):
        kernel = gaussian_kernel_1d(7, 2.0)
        assert np.allclose(kernel, kernel[::-1])
        assert kernel.argmax() == 3

    def test_kernel_2d_is_outer_product(self):
        k1 = gaussian_kernel_1d(5, 1.5)
        k2 = gaussian_kernel_2d(5, 1.5)
        assert np.allclose(k2, np.outer(k1, k1))
        assert k2.sum() == pytest.approx(1.0)

    def test_invalid_kernel_parameters(self):
        with pytest.raises(ImageError):
            gaussian_kernel_1d(4, 1.0)
        with pytest.raises(ImageError):
            gaussian_kernel_1d(5, 0.0)


class TestGaussianBlur:
    def test_preserves_constant_image(self):
        image = GrayImage.full(32, 32, 77)
        blurred = gaussian_blur(image)
        assert np.all(blurred.pixels == 77)

    def test_reduces_variance_of_noise(self):
        rng = np.random.default_rng(0)
        image = GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        blurred = gaussian_blur(image)
        assert blurred.pixels.astype(float).var() < image.pixels.astype(float).var()

    def test_preserves_mean_approximately(self):
        rng = np.random.default_rng(1)
        image = GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        blurred = gaussian_blur(image)
        assert abs(blurred.pixels.mean() - image.pixels.mean()) < 2.0

    def test_output_shape_matches_input(self, blocks_image):
        blurred = gaussian_blur(blocks_image)
        assert blurred.shape == blocks_image.shape

    def test_smooths_a_step_edge(self):
        pixels = np.zeros((20, 20), dtype=np.uint8)
        pixels[:, 10:] = 200
        blurred = gaussian_blur(GrayImage(pixels))
        # intermediate values appear near the step
        assert np.any((blurred.pixels > 20) & (blurred.pixels < 180))


class TestSobel:
    def test_vertical_edge_gives_horizontal_gradient(self):
        pixels = np.zeros((20, 20), dtype=np.uint8)
        pixels[:, 10:] = 100
        gx, gy = sobel_gradients(GrayImage(pixels))
        assert np.abs(gx[:, 9:11]).max() > 0
        interior_gy = gy[2:-2, 2:-2]
        assert np.abs(interior_gy).max() == pytest.approx(0.0)

    def test_horizontal_edge_gives_vertical_gradient(self):
        pixels = np.zeros((20, 20), dtype=np.uint8)
        pixels[10:, :] = 100
        gx, gy = sobel_gradients(GrayImage(pixels))
        assert np.abs(gy[9:11, :]).max() > 0
        interior_gx = gx[2:-2, 2:-2]
        assert np.abs(interior_gx).max() == pytest.approx(0.0)

    def test_flat_image_zero_gradient(self, flat_image):
        gx, gy = sobel_gradients(flat_image)
        assert np.abs(gx).max() == pytest.approx(0.0)
        assert np.abs(gy).max() == pytest.approx(0.0)

    def test_output_shapes(self, blocks_image):
        gx, gy = sobel_gradients(blocks_image)
        assert gx.shape == blocks_image.shape
        assert gy.shape == blocks_image.shape
