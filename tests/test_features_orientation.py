"""Tests for intensity-centroid orientation and its 32-bin discretisation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import FeatureError
from repro.features import (
    NUM_ORIENTATION_BINS,
    OrientationGrid,
    compute_orientation,
    discretize_orientation,
    intensity_centroid,
    intensity_centroids,
    orientation_angle,
    orientation_lut_labels,
)
from repro.features import orientation as orientation_module
from repro.image import GrayImage, circular_mask


def _gradient_patch(angle_rad: float, radius: int = 15) -> np.ndarray:
    """A patch whose intensity increases along ``angle_rad``."""
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    direction = xx * math.cos(angle_rad) + yy * math.sin(angle_rad)
    normalized = (direction - direction.min()) / (direction.max() - direction.min())
    return (normalized * 255).astype(np.uint8)


class TestIntensityCentroid:
    def test_uniform_patch_centroid_at_origin(self):
        patch = np.full((31, 31), 100, dtype=np.uint8)
        u, v = intensity_centroid(patch)
        assert u == pytest.approx(0.0, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_gradient_points_along_gradient(self):
        patch = _gradient_patch(0.0)
        u, v = intensity_centroid(patch)
        assert u > 0.5
        assert abs(v) < 0.2

    def test_black_patch_returns_zero(self):
        u, v = intensity_centroid(np.zeros((31, 31), dtype=np.uint8))
        assert (u, v) == (0.0, 0.0)

    def test_rejects_even_patch(self):
        with pytest.raises(FeatureError):
            intensity_centroid(np.zeros((30, 30), dtype=np.uint8))

    def test_rejects_mismatched_mask(self):
        with pytest.raises(FeatureError):
            intensity_centroid(np.zeros((31, 31)), mask=np.ones((7, 7), dtype=bool))


class TestDiscretisation:
    def test_zero_angle_is_bin_zero(self):
        assert discretize_orientation(0.0) == 0

    def test_bin_width_is_11_25_degrees(self):
        assert discretize_orientation(math.radians(11.25)) == 1
        assert discretize_orientation(math.radians(22.5)) == 2

    def test_rounding_to_nearest_bin(self):
        assert discretize_orientation(math.radians(5.0)) == 0
        assert discretize_orientation(math.radians(6.0)) == 1

    def test_wraps_at_two_pi(self):
        assert discretize_orientation(2 * math.pi) == 0
        assert discretize_orientation(math.radians(359)) == 0

    def test_negative_angles(self):
        assert discretize_orientation(-math.radians(11.25)) == NUM_ORIENTATION_BINS - 1

    def test_rejects_invalid_bins(self):
        with pytest.raises(FeatureError):
            discretize_orientation(0.5, num_bins=0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_discretisation_error_bounded(self, angle):
        bin_index = discretize_orientation(angle)
        bin_angle = bin_index * 2 * math.pi / NUM_ORIENTATION_BINS
        error = abs((angle - bin_angle + math.pi) % (2 * math.pi) - math.pi)
        # at most half a bin (5.625 degrees)
        assert error <= math.pi / NUM_ORIENTATION_BINS + 1e-9


def _lut_label(u, v):
    """One centroid through the batched hardware LUT."""
    return int(orientation_lut_labels(np.array([u]), np.array([v]))[0])


class TestLutLabel:
    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_lut_matches_atan2_discretisation(self, u, v):
        if abs(u) < 1e-6 and abs(v) < 1e-6:
            return
        expected = discretize_orientation(orientation_angle(u, v))
        assert _lut_label(u, v) == expected

    def test_cardinal_directions(self):
        assert _lut_label(1.0, 0.0) == 0
        assert _lut_label(0.0, 1.0) == 8
        assert _lut_label(-1.0, 0.0) == 16
        assert _lut_label(0.0, -1.0) == 24

    def test_zero_vector_defaults_to_bin_zero(self):
        assert _lut_label(0.0, 0.0) == 0


class TestComputeOrientation:
    def test_direction_follows_intensity_gradient(self):
        for angle_deg in (0, 45, 90, 180, 270):
            angle = math.radians(angle_deg)
            patch = _gradient_patch(angle, radius=20)
            image = GrayImage(patch)
            bin_index, measured = compute_orientation(image, 20, 20, radius=15)
            error = abs((measured - angle + math.pi) % (2 * math.pi) - math.pi)
            assert error < math.radians(15)
            assert 0 <= bin_index < NUM_ORIENTATION_BINS

    def test_rejects_patch_outside_image(self, blocks_image):
        with pytest.raises(Exception):
            compute_orientation(blocks_image, 2, 2, radius=15)



def _with_hole(mask: np.ndarray) -> np.ndarray:
    """``mask`` with its centre pixel cleared: the middle row becomes two runs."""
    holed = mask.copy()
    centre = mask.shape[0] // 2
    holed[centre, centre] = False
    return holed


class TestOrientationGrid:
    @pytest.mark.parametrize("radius", range(32))
    def test_half_widths_trace_the_mask(self, radius):
        grid = OrientationGrid.build(radius)
        assert grid.half_widths.shape == (2 * radius + 1,)
        assert grid.half_widths.dtype == np.int64
        assert np.array_equal(grid.mask, circular_mask(radius))
        for row, half in zip(grid.mask, grid.half_widths):
            # each mask row is exactly the span [centre - h, centre + h]
            assert np.nonzero(row)[0].tolist() == list(range(radius - half, radius + half + 1))

    def test_rejects_negative_radius(self):
        with pytest.raises(FeatureError):
            OrientationGrid.build(-1)

    @pytest.mark.parametrize(
        "broken",
        [_with_hole, lambda mask: np.roll(mask, 1, axis=1)],
        ids=["two-runs", "off-centre"],
    )
    def test_rejects_masks_that_are_not_centred_spans(self, monkeypatch, broken):
        monkeypatch.setattr(
            orientation_module, "circular_mask", lambda radius: broken(circular_mask(radius))
        )
        with pytest.raises(FeatureError):
            OrientationGrid.build(7)


def _scalar_centroids(image: GrayImage, xs, ys, radius: int):
    """The scalar oracle: :func:`intensity_centroid` of each square patch."""
    pairs = [intensity_centroid(image.patch(int(x), int(y), radius)) for x, y in zip(xs, ys)]
    us = np.array([u for u, _ in pairs], dtype=np.float64)
    vs = np.array([v for _, v in pairs], dtype=np.float64)
    return us, vs


def _margin_keypoints(height: int, width: int, radius: int):
    """Keypoints on the exact border margin: the four extreme corners and edge midpoints."""
    x_edges = (radius, width - 1 - radius)
    y_edges = (radius, height - 1 - radius)
    points = [(x, y) for x in x_edges for y in y_edges]
    points += [(x, height // 2) for x in x_edges] + [(width // 2, y) for y in y_edges]
    xs, ys = zip(*points)
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


@st.composite
def _image_and_keypoints(draw):
    radius = draw(st.sampled_from([0, 1, 2, 7, 15]))
    height = draw(st.integers(2 * radius + 1, 2 * radius + 12))
    width = draw(st.integers(2 * radius + 1, 2 * radius + 12))
    pixels = draw(hnp.arrays(np.uint8, (height, width), elements=st.integers(0, 255)))
    count = draw(st.integers(0, 12))
    xs = draw(hnp.arrays(np.int64, count, elements=st.integers(radius, width - 1 - radius)))
    ys = draw(hnp.arrays(np.int64, count, elements=st.integers(radius, height - 1 - radius)))
    margin_xs, margin_ys = _margin_keypoints(height, width, radius)
    return (
        GrayImage(pixels),
        np.concatenate([margin_xs, xs]),
        np.concatenate([margin_ys, ys]),
        radius,
    )


class TestIntensityCentroidsKernel:
    """The patch-matmul kernel equals the scalar centroid bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(_image_and_keypoints())
    def test_bit_equal_to_scalar_centroid(self, drawn):
        image, xs, ys, radius = drawn
        us, vs = intensity_centroids(image, xs, ys, OrientationGrid.build(radius))
        expected_us, expected_vs = _scalar_centroids(image, xs, ys, radius)
        assert np.array_equal(us, expected_us)
        assert np.array_equal(vs, expected_vs)

    @pytest.mark.parametrize("radius", [0, 1, 2, 7, 15])
    def test_margin_keypoints_on_blocks(self, blocks_image, radius):
        height, width = blocks_image.shape
        xs, ys = _margin_keypoints(height, width, radius)
        us, vs = intensity_centroids(blocks_image, xs, ys, OrientationGrid.build(radius))
        expected_us, expected_vs = _scalar_centroids(blocks_image, xs, ys, radius)
        assert np.array_equal(us, expected_us)
        assert np.array_equal(vs, expected_vs)

    @pytest.mark.parametrize("value", [0, 255])
    def test_constant_images(self, value):
        image = GrayImage.full(40, 48, value)
        xs, ys = _margin_keypoints(40, 48, 15)
        us, vs = intensity_centroids(image, xs, ys, OrientationGrid.build(15))
        expected_us, expected_vs = _scalar_centroids(image, xs, ys, 15)
        assert np.array_equal(us, expected_us)
        assert np.array_equal(vs, expected_vs)
        # a flat patch is symmetric, and a black one has zero weight:
        # both put the centroid at the centre
        assert not us.any() and not vs.any()

    @pytest.mark.parametrize("pixels", ["saturated", "random"])
    @pytest.mark.parametrize("radius", [1, 3, 15, 31])
    def test_exact_at_the_moment_bound(self, radius, pixels):
        # all-255 patches put every moment at its largest magnitude; keypoints
        # sit at the minimum and maximum legal x and y
        side = 2 * radius + 1
        height, width = side + 9, side + 14
        if pixels == "saturated":
            image = GrayImage.full(height, width, 255)
        else:
            rng = np.random.default_rng(radius)
            image = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
        xs, ys = _margin_keypoints(height, width, radius)
        us, vs = intensity_centroids(image, xs, ys, OrientationGrid.build(radius))
        expected_us, expected_vs = _scalar_centroids(image, xs, ys, radius)
        assert np.array_equal(us, expected_us)
        assert np.array_equal(vs, expected_vs)

    def test_empty_keypoints(self, blocks_image):
        empty = np.zeros(0, dtype=np.int64)
        us, vs = intensity_centroids(blocks_image, empty, empty, OrientationGrid.build(15))
        assert us.shape == vs.shape == (0,)

    @pytest.mark.parametrize(
        "x, y", [(14, 60), (145, 60), (80, 14), (80, 105)], ids=["left", "right", "top", "bottom"]
    )
    def test_out_of_bounds_keypoint_raises(self, blocks_image, x, y):
        # blocks_image is 120x160; radius 15 allows x in [15, 144], y in [15, 104]
        xs = np.array([80, x], dtype=np.int64)
        ys = np.array([60, y], dtype=np.int64)
        with pytest.raises(FeatureError):
            intensity_centroids(blocks_image, xs, ys, OrientationGrid.build(15))
