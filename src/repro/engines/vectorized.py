"""The fused, batched extraction engine (default).

One pass per pyramid level with no full-image temporaries beyond a handful
of per-call buffers and no Python-level per-keypoint work:

1. **FAST**: bit-sliced.  All 16 ring comparisons run on slice views of
   the level (no ``np.roll`` copies) against saturated uint8 thresholds,
   their flags are packed 8 pixels per byte, and one AND/OR network over
   the 16 packed planes (:func:`~repro.features.fast.segment_arc_network`)
   resolves the contiguous-arc test for both polarities — the
   combinational 7x7-window check the hardware FAST Detection module
   performs, made for every pixel of the level in one pass.
2. **Harris**: responses are computed **sparsely** — integer Sobel products
   over the bounding box of the corners' windows only, window sums by
   exact sliding adds, read at each FAST corner
   (:func:`~repro.features.harris.harris_scores_sparse`) — instead of
   scoring every pixel of the level.
3. **NMS**: sparse, loop-free suppression with vectorised raster-order
   tie-breaking (:func:`~repro.features.nms.suppress_keypoints_sparse`).
4. **Smoothing**: the separable 7x7 Gaussian runs in bands of 64 output
   rows, on slice views of one small edge-padded buffer per band (no
   per-tap ``np.roll`` copies, no level-sized float64 temporaries).
5. **Orientation**: every keypoint's intensity-centroid moments from one
   float64 matmul of its gathered patch against the masked moment weights
   (:func:`~repro.features.orientation.intensity_centroids`), then each
   centroid's ``atan2`` angle binned to the nearest of the 32 orientations.
6. **Description**: the base class's batched
   :meth:`~repro.engines.base.ExtractionEngine.describe` — one ``(K, 256)``
   pattern comparison, row-wise bit packing and, for RS-BRIEF, one
   byte-gather BRIEF rotation.

Every step lands on bit-identical results to the ``reference`` engine
(asserted by ``tests/test_frontend_parity.py`` and
``tests/test_backends_parity.py``); see the individual helpers for the
exactness arguments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.fast import FAST_CIRCLE_OFFSETS, fast_corner_mask, segment_arc_network
from ..features.harris import harris_scores_sparse
from ..features.nms import suppress_keypoints_sparse
from ..features.orientation import compute_orientations
from ..image import GrayImage
from ..image.filters import (
    GAUSSIAN_BLUR_SIGMA,
    GAUSSIAN_BLUR_SIZE,
    SMOOTHING_BAND_ROWS,
    edge_padded_bands,
    gaussian_kernel_1d,
)
from .base import ExtractionEngine


class VectorizedEngine(ExtractionEngine):
    """Bit-sliced FAST, sparse Harris and NMS, banded smoothing, batched
    orientation and description."""

    name = "vectorized"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._kernel = gaussian_kernel_1d(GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA)

    # -- detection ---------------------------------------------------------
    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        xs, ys = self._fast_corners(level_image)
        corners_detected = int(xs.size)
        if corners_detected == 0:
            return xs, ys, np.zeros(0, dtype=np.float64), 0
        xs, ys, scores = self._score(level_image, xs, ys)
        keep = suppress_keypoints_sparse(xs, ys, scores, level_image.shape, radius=1)
        return xs[keep], ys[keep], scores[keep], corners_detected

    def _score(
        self, image: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(xs, ys, scores)`` of the FAST corners that go on to NMS."""
        return xs, ys, harris_scores_sparse(image, xs, ys)

    def _fast_corners(self, image: GrayImage) -> Tuple[np.ndarray, np.ndarray]:
        """FAST corners inside the border box, raster order, bit-sliced.

        Each of the 16 ring offsets is compared at once against every centre
        of the inner box, through slice views of the level and saturated
        uint8 thresholds, and the flags are packed 8 pixels per byte.  The
        arc test then runs as one AND/OR network over the 16 packed planes
        (:func:`segment_arc_network`), both polarities stacked, and the
        corner bits are unpacked back to the inner box.  Every pixel is
        decided by the reference comparisons.
        """
        cfg = self.config.fast
        height, width = image.shape
        border = cfg.border
        if height < 2 * border + 1 or width < 2 * border + 1:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if border < 3:
            # the rolled reference lets ring comparisons wrap around inside a
            # <3px border; keep those exact semantics via the dense path
            ys, xs = np.nonzero(fast_corner_mask(image, cfg))
            return xs.astype(np.int64), ys.astype(np.int64)
        pixels = image.pixels
        inner_height, inner_width = height - 2 * border, width - 2 * border
        centre = pixels[border : height - border, border : width - border]
        # saturated uint8 thresholds are exact: a uint8 ring value can never
        # exceed a clipped-high 255 or undercut a clipped-low 0, matching the
        # int16 comparisons of the reference for out-of-range thresholds
        # (a row operand, unlike a scalar one, keeps numpy's SIMD min/max loop)
        threshold = min(cfg.threshold, 255)
        ceiling = np.full(inner_width, 255 - threshold, dtype=np.uint8)
        floor = np.full(inner_width, threshold, dtype=np.uint8)
        high = np.minimum(centre, ceiling) + np.uint8(threshold)
        low = np.maximum(centre, floor) - np.uint8(threshold)
        flags = np.empty((inner_height, inner_width), dtype=bool)
        planes = np.empty((16, 2, inner_height, (inner_width + 7) // 8), dtype=np.uint8)
        for index, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
            ring = pixels[
                border + dy : height - border + dy, border + dx : width - border + dx
            ]
            planes[index, 0] = np.packbits(np.greater(ring, high, out=flags), axis=1)
            planes[index, 1] = np.packbits(np.less(ring, low, out=flags), axis=1)
        arcs = segment_arc_network(planes, cfg.arc_length)
        corners = np.unpackbits(arcs[0] | arcs[1], axis=1, count=inner_width)
        ys, xs = np.divmod(np.flatnonzero(corners.view(bool)), inner_width)
        return xs + border, ys + border

    # -- smoothing ---------------------------------------------------------
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Separable Gaussian in bands of rows; bit-identical to gaussian_blur.

        The reference accumulates ``sum_k w_k * np.roll(padded, half-k)`` in
        ascending tap order over the edge-padded level.  Each band of output
        rows comes with the ``2 * half`` edge-padded rows around it
        (:func:`~repro.image.filters.edge_padded_bands`) and both passes run
        on slice views of it, so every float64 multiply-add happens on the
        same operands in the same order and the rounded uint8 output cannot
        differ.  Only band-sized float64 buffers are allocated.
        """
        kernel = self._kernel
        half = kernel.size // 2
        height, width = level_image.shape
        result = np.empty((height, width), dtype=np.uint8)
        horizontal, tap, output = np.empty(
            (3, min(SMOOTHING_BAND_ROWS, height) + 2 * half, width)
        )
        for top, rows, band in edge_padded_bands(level_image.pixels, half, np.float64):
            span = rows + 2 * half
            np.multiply(band[:, 0:width], kernel[0], out=horizontal[:span])
            for offset in range(1, kernel.size):
                np.multiply(band[:, offset : offset + width], kernel[offset], out=tap[:span])
                horizontal[:span] += tap[:span]
            np.multiply(horizontal[0:rows], kernel[0], out=output[:rows])
            for offset in range(1, kernel.size):
                np.multiply(horizontal[offset : offset + rows], kernel[offset], out=tap[:rows])
                output[:rows] += tap[:rows]
            np.rint(output[:rows], out=output[:rows])
            result[top : top + rows] = np.clip(output[:rows], 0, 255, out=output[:rows])
        return GrayImage(result)

    # -- orientation -------------------------------------------------------
    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return compute_orientations(smoothed, xs, ys, radius=self.grid.radius, grid=self.grid)
