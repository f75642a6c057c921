"""Tests for the ping-pong Image Cache FSM (Figure 5)."""

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hw import PingPongImageCache, stream_image_through_cache
from repro.image import random_blocks


class TestFsmSchedule:
    def test_lines_fill_in_rotation(self):
        cache = PingPongImageCache(rows=16, columns_per_line=8)
        for _ in range(6):
            cache.push_columns(np.zeros((16, 8), dtype=np.uint8))
        filling = [t.filling_line for t in cache.transitions]
        assert filling == [0, 1, 2, 0, 1, 2]

    def test_streaming_lines_are_the_other_two(self):
        cache = PingPongImageCache(rows=8, columns_per_line=4)
        for _ in range(4):
            transition = cache.push_columns(np.zeros((8, 4), dtype=np.uint8))
            assert transition.filling_line not in transition.streaming_lines
            assert len(set(transition.streaming_lines)) == 2

    def test_initialisation_after_two_lines(self):
        cache = PingPongImageCache(rows=8, columns_per_line=4)
        assert cache.readable_columns() == 0
        cache.push_columns(np.zeros((8, 4), dtype=np.uint8))
        assert cache.readable_columns() == 4
        cache.push_columns(np.zeros((8, 4), dtype=np.uint8))
        # two lines pre-stored (16 columns at the paper's 8 per line)
        assert cache.readable_columns() == 8

    def test_figure5_schedule_shape(self):
        """After init, fill target cycles A->B->C->A while others stream (Fig. 5)."""
        cache = PingPongImageCache(rows=4, columns_per_line=8)
        for _ in range(5):
            cache.push_columns(np.zeros((4, 8), dtype=np.uint8))
        schedule = cache.fsm_schedule()
        assert schedule[0] == (0, (1, 2))
        assert schedule[1] == (1, (0, 2))
        assert schedule[2] == (2, (0, 1))
        assert schedule[3] == (0, (1, 2))

    def test_wrong_column_shape_rejected(self):
        cache = PingPongImageCache(rows=8, columns_per_line=4)
        with pytest.raises(HardwareModelError):
            cache.push_columns(np.zeros((8, 5), dtype=np.uint8))

    def test_at_least_three_lines_required(self):
        with pytest.raises(HardwareModelError):
            PingPongImageCache(rows=8, columns_per_line=4, num_lines=2)


class TestDataAccess:
    def test_window_returns_correct_pixels(self):
        image = random_blocks(16, 32, block=4, seed=7)
        cache, _ = stream_image_through_cache(image.pixels, columns_per_line=8)
        window = cache.window(center_column=12, width=7)
        assert np.array_equal(window, image.pixels[:, 9:16])

    def test_window_requires_resident_columns(self):
        cache = PingPongImageCache(rows=8, columns_per_line=8)
        cache.push_columns(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(HardwareModelError):
            cache.window(center_column=20, width=7)

    def test_readable_columns_counts_valid_lines(self):
        cache = PingPongImageCache(rows=8, columns_per_line=8)
        cache.push_columns(np.zeros((8, 8), dtype=np.uint8))
        assert cache.readable_columns() == 8
        cache.push_columns(np.zeros((8, 8), dtype=np.uint8))
        assert cache.readable_columns() == 16

    def test_full_image_streaming_covers_all_columns(self):
        image = random_blocks(12, 40, block=4, seed=8)
        cache, groups = stream_image_through_cache(image.pixels, columns_per_line=8)
        assert groups == 5
        assert len(cache.transitions) == 5

    def test_eviction_after_wraparound(self):
        """Older columns are overwritten once the fill pointer wraps."""
        image = random_blocks(8, 40, block=4, seed=9)
        cache, _ = stream_image_through_cache(image.pixels, columns_per_line=8)
        # columns 0..7 were evicted when line 0 was refilled with columns 24..31
        with pytest.raises(HardwareModelError):
            cache.window(center_column=4, width=7)
        window = cache.window(center_column=28, width=7)
        assert np.array_equal(window, image.pixels[:, 25:32])
