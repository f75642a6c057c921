"""Property tests of the extraction kernels against their reference forms.

* float32 banded smoothing (``VectorizedEngine.smooth``) against
  ``gaussian_blur``: constant images at every grey level, random images,
  and crafted windows whose float64 result lies within 1e-6 of a
  half-integer, where only the float64 fallback can round as the
  reference does;
* banded NMS (``suppress_keypoints_sparse``) against the dense
  ``non_maximum_suppression``: tie clusters across the band rows 63/64/65
  and level heights that are not a multiple of the band height;
* the heap statistics of ``select_top`` against offering the same stream
  to ``BoundedScoreHeap`` (the all-equal streams are cases of
  ``tests/test_backends_parity.py::TestHeapFilter``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExtractorConfig
from repro.engines import VectorizedEngine
from repro.engines.vectorized import (
    SMOOTHING_FLOAT32_ERROR,
    SMOOTHING_ROUNDING_MARGIN,
    _symmetric_taps,
)
from repro.features import non_maximum_suppression, select_top, suppress_keypoints_sparse
from repro.features.heap_filter import _bit_length_sum
from repro.features.nms import NMS_BAND_ROWS
from repro.image import GrayImage, gaussian_blur
from repro.image.filters import (
    GAUSSIAN_BLUR_SIGMA,
    GAUSSIAN_BLUR_SIZE,
    _convolve_separable,
    edge_padded_bands,
    gaussian_kernel_1d,
)

from hw_oracle import BoundedScoreHeap


@pytest.fixture(scope="module")
def engine():
    return VectorizedEngine(ExtractorConfig())


def _kernel():
    return gaussian_kernel_1d(GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA)


def _float32_unrounded(pixels):
    """The float32 smoother's result before rounding, as the engine forms it."""
    kernel = _kernel()
    half = kernel.size // 2
    weights = kernel[: half + 1].astype(np.float32)
    height, width = pixels.shape
    stride = width + 2 * half
    rows = []
    for _, band_rows, band in edge_padded_bands(pixels, half, np.float32):
        across = np.empty((band_rows + 2 * half) * stride, dtype=np.float32)
        down = np.empty(band_rows * stride, dtype=np.float32)
        pair = np.empty_like(across)
        _symmetric_taps(band.reshape(-1), weights, 1, across[: across.size - 2 * half], pair)
        _symmetric_taps(across, weights, stride, down[: down.size - 2 * half], pair)
        rows.append(down.reshape(band_rows, stride)[:, :width])
    return np.concatenate(rows)


def _near_half_windows(count, tolerance=1e-6, seed=0):
    """7x7 windows whose ``gaussian_blur`` centre lies within ``tolerance``
    of a half-integer, found by meet-in-the-middle over pixel deltas."""
    rng = np.random.default_rng(seed)
    kernel = np.outer(_kernel(), _kernel()).reshape(-1)
    base = rng.integers(40, 216, 49)
    first, second = np.arange(24), np.arange(24, 49)
    deltas_a = rng.integers(-30, 31, (20000, first.size))
    deltas_b = rng.integers(-30, 31, (20000, second.size))
    part_a = deltas_a @ kernel[first]
    part_b = deltas_b @ kernel[second]
    offset = float(base @ kernel)
    # frac(offset + a + b) == 0.5  <=>  frac(b) == frac(0.5 - offset - a)
    order = np.argsort(part_b % 1.0)
    fractions = (part_b % 1.0)[order]
    targets = (0.5 - offset - part_a) % 1.0
    index = np.clip(np.searchsorted(fractions, targets), 1, fractions.size - 1)
    windows = []
    for a in range(part_a.size):
        for b in (index[a] - 1, index[a]):
            gap = abs(fractions[b] - targets[a])
            if min(gap, 1.0 - gap) >= tolerance:
                continue
            window = base.copy()
            window[first] += deltas_a[a]
            window[second] += deltas_b[order[b]]
            window = window.reshape(7, 7).astype(np.uint8)
            centre = _convolve_separable(window, _kernel())[3, 3]
            if abs(centre - np.floor(centre) - 0.5) < tolerance:
                windows.append(window)
            if len(windows) == count:
                return windows
    raise AssertionError(f"found only {len(windows)} near-half windows")


class TestFloat32Smoothing:
    def test_bound_and_margin(self):
        # the documented bound is about 1.7e-4 grey levels; the fallback
        # margin is at least five times it
        assert 1.5e-4 < SMOOTHING_FLOAT32_ERROR < 2e-4
        assert SMOOTHING_ROUNDING_MARGIN >= 5 * SMOOTHING_FLOAT32_ERROR

    @pytest.mark.parametrize("shape", [(7, 9), (130, 11)])
    def test_constant_images_at_every_grey_level(self, engine, shape):
        for grey in range(256):
            image = GrayImage(np.full(shape, grey, dtype=np.uint8))
            assert np.array_equal(engine.smooth(image).pixels, gaussian_blur(image).pixels), grey

    @settings(max_examples=40, deadline=None)
    @given(
        height=st.integers(1, 140),
        width=st.integers(1, 48),
        seed=st.integers(0, 2**31),
    )
    def test_random_images(self, engine, height, width, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
        image = GrayImage(pixels)
        assert np.array_equal(engine.smooth(image).pixels, gaussian_blur(image).pixels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_result_within_the_bound(self, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, (150, 70), dtype=np.uint8)
        reference = _convolve_separable(pixels, _kernel())
        gap = np.abs(_float32_unrounded(pixels).astype(np.float64) - reference)
        assert gap.max() <= SMOOTHING_FLOAT32_ERROR

    def test_windows_within_1e6_of_a_half_integer(self, engine):
        windows = _near_half_windows(24)
        # tile the windows: the centre of each 7x7 tile sees exactly its tile
        tiles = np.block([[windows[row * 6 + col] for col in range(6)] for row in range(4)])
        image = GrayImage(tiles)
        centres = (slice(3, None, 7), slice(3, None, 7))
        reference = _convolve_separable(tiles, _kernel())[centres]
        assert np.all(np.abs(reference - np.floor(reference) - 0.5) < 1e-6)
        assert np.array_equal(engine.smooth(image).pixels, gaussian_blur(image).pixels)


def _dense_keep(xs, ys, scores, shape, radius):
    corner = np.zeros(shape, dtype=bool)
    score_map = np.full(shape, -np.inf)
    corner[ys, xs] = True
    score_map[ys, xs] = scores
    return non_maximum_suppression(corner, score_map, radius=radius)[ys, xs]


class TestBandedNms:
    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("height", [64, 65, 70, 129, 200])
    def test_tie_clusters_across_band_rows(self, radius, height):
        width = 40
        rng = np.random.default_rng(height * 10 + radius)
        grid = np.full((height, width), np.nan)
        # random corners with few score levels, so ties are everywhere
        flat = rng.choice(height * width, size=height * width // 4, replace=False)
        grid.flat[flat] = rng.integers(0, 3, flat.size)
        # tie clusters and chains straddling the band boundaries 63/64/65
        for boundary in range(NMS_BAND_ROWS, height, NMS_BAND_ROWS):
            grid[boundary - 1 : boundary + 2, 5:8] = 9.0
            grid[boundary - 2 : boundary + 3, 20] = 9.0
            grid[boundary, 30:38] = 9.0
        ys, xs = np.nonzero(~np.isnan(grid))
        scores = grid[ys, xs]
        keep = suppress_keypoints_sparse(xs, ys, scores, (height, width), radius=radius)
        assert np.array_equal(keep, _dense_keep(xs, ys, scores, (height, width), radius))
        # unsorted input keeps raster-order tie-breaking
        order = rng.permutation(xs.size)
        shuffled = suppress_keypoints_sparse(
            xs[order], ys[order], scores[order], (height, width), radius=radius
        )
        assert np.array_equal(shuffled, keep[order])

    @settings(max_examples=40, deadline=None)
    @given(
        height=st.integers(1, 150),
        width=st.integers(1, 30),
        density=st.floats(0.05, 0.9),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_random_grids(self, height, width, density, levels, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((height, width)) < density
        ys, xs = np.nonzero(mask)
        if xs.size == 0:
            return
        scores = rng.integers(0, levels, xs.size).astype(np.float64)
        keep = suppress_keypoints_sparse(xs, ys, scores, (height, width), radius=1)
        assert np.array_equal(keep, _dense_keep(xs, ys, scores, (height, width), 1))


def _streamed(scores, capacity):
    heap = BoundedScoreHeap(capacity)
    for row, score in enumerate(scores.tolist()):
        heap.offer(score, row)
    return heap


class TestHeapCounter:
    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)), max_size=300
        ),
        capacity=st.integers(1, 64),
    )
    def test_matches_the_streaming_heap(self, scores, capacity):
        scores = np.asarray(scores, dtype=np.float64)
        rows, stats = select_top(scores, capacity)
        heap = _streamed(scores, capacity)
        assert stats == heap.stats
        assert rows.tolist() == heap.items_by_score()

    def test_bit_length_sum_closed_form(self):
        total = 0
        for count in range(5000):
            assert _bit_length_sum(count) == total
            total += (count + 1).bit_length()
