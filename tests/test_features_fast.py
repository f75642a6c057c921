"""Tests for the FAST segment-test detector."""

import numpy as np
import pytest

from repro.config import ExtractorConfig, FastConfig
from repro.engines import VectorizedEngine
from repro.features import FAST_CIRCLE_OFFSETS, fast_corner_mask
from repro.image import GrayImage, checkerboard, isolated_corner


def is_fast_corner(image, x, y, config=None):
    """Scalar segment test for one pixel, as the hardware FAST Detection
    module computes it on one 7x7 window: the oracle for the vectorised
    :func:`fast_corner_mask`."""
    cfg = config or FastConfig()
    if not image.contains(x, y, border=3):
        return False
    center = image.intensity(x, y)
    ring = [image.intensity(x + dx, y + dy) for dx, dy in FAST_CIRCLE_OFFSETS]

    def has_arc(flags):
        doubled = flags + flags[: cfg.arc_length - 1]
        run = 0
        for flag in doubled:
            run = run + 1 if flag else 0
            if run >= cfg.arc_length:
                return True
        return False

    return has_arc([v > center + cfg.threshold for v in ring]) or has_arc(
        [v < center - cfg.threshold for v in ring]
    )


class TestCircleOffsets:
    def test_sixteen_offsets(self):
        assert len(FAST_CIRCLE_OFFSETS) == 16

    def test_all_unique(self):
        assert len(set(FAST_CIRCLE_OFFSETS)) == 16

    def test_radius_is_three(self):
        # the Bresenham circle of radius 3: Euclidean radius between 2.8 and 3.2
        for dx, dy in FAST_CIRCLE_OFFSETS:
            radius = (dx * dx + dy * dy) ** 0.5
            assert 2.7 <= radius <= 3.2

    def test_offsets_form_closed_ring(self):
        # consecutive offsets are neighbours (Bresenham circle continuity)
        for i in range(16):
            dx0, dy0 = FAST_CIRCLE_OFFSETS[i]
            dx1, dy1 = FAST_CIRCLE_OFFSETS[(i + 1) % 16]
            assert abs(dx1 - dx0) <= 1 and abs(dy1 - dy0) <= 1


class TestDetection:
    def test_flat_image_has_no_corners(self, flat_image):
        assert not fast_corner_mask(flat_image).any()

    def test_isolated_corner_detected_nearby(self):
        image = isolated_corner(64, 64, corner_xy=(32, 32))
        mask = fast_corner_mask(image, FastConfig(border=4))
        ys, xs = np.nonzero(mask)
        assert len(xs) > 0
        distances = np.sqrt((xs - 32) ** 2 + (ys - 32) ** 2)
        assert distances.min() <= 4

    def test_random_blocks_have_many_corners(self, blocks_image):
        mask = fast_corner_mask(blocks_image, FastConfig(border=16))
        assert mask.sum() >= 100

    def test_checkerboard_x_junctions_are_not_fast_corners(self):
        # A perfect checkerboard only has X-junctions: the ring splits into two
        # arcs of 8, below the required 9 contiguous pixels, so FAST-9 fires on
        # none of them.  This is the classic FAST behaviour and documents why
        # the synthetic scenes use random blocks rather than checkerboards.
        board = checkerboard(96, 96, square=12)
        mask = fast_corner_mask(board, FastConfig(border=4, arc_length=9))
        assert mask.sum() == 0

    def test_border_is_clear(self, blocks_image):
        config = FastConfig(border=16)
        mask = fast_corner_mask(blocks_image, config)
        assert not mask[:16, :].any()
        assert not mask[:, :16].any()
        assert not mask[-16:, :].any()
        assert not mask[:, -16:].any()

    def test_higher_threshold_fewer_corners(self, blocks_image):
        low = fast_corner_mask(blocks_image, FastConfig(threshold=10)).sum()
        high = fast_corner_mask(blocks_image, FastConfig(threshold=60)).sum()
        assert high <= low

    def test_tiny_image_returns_empty(self):
        image = GrayImage.zeros(8, 8)
        assert not fast_corner_mask(image).any()

    def test_detect_returns_raster_order(self, blocks_image):
        xs, ys = VectorizedEngine(ExtractorConfig())._fast_corners(blocks_image)
        keys = list(zip(ys.tolist(), xs.tolist()))
        assert keys and keys == sorted(keys)

    def test_dark_corner_also_detected(self):
        pixels = np.full((64, 64), 220, dtype=np.uint8)
        pixels[32:, 32:] = 30  # dark quadrant -> dark corner
        mask = fast_corner_mask(GrayImage(pixels), FastConfig(border=4))
        assert mask.any()


class TestScalarReference:
    def test_scalar_matches_vectorised(self, blocks_image):
        config = FastConfig(threshold=20, border=16)
        mask = fast_corner_mask(blocks_image, config)
        ys, xs = np.nonzero(mask)
        # every vectorised corner must pass the scalar segment test
        for x, y in list(zip(xs, ys))[:50]:
            assert is_fast_corner(blocks_image, int(x), int(y), config)

    def test_scalar_rejects_non_corners(self, blocks_image):
        config = FastConfig(threshold=20, border=16)
        mask = fast_corner_mask(blocks_image, config)
        interior = np.zeros_like(mask)
        interior[20:-20, 20:-20] = True
        non_corners = np.nonzero(~mask & interior)
        checked = 0
        for y, x in zip(*non_corners):
            assert not is_fast_corner(blocks_image, int(x), int(y), config)
            checked += 1
            if checked >= 50:
                break

    def test_scalar_near_border_is_false(self, blocks_image):
        assert not is_fast_corner(blocks_image, 1, 1)
