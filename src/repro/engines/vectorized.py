"""The fused, batched extraction engine (default).

One pass per pyramid level with no full-image temporaries beyond a handful
of per-call buffers and no Python-level per-keypoint work:

1. **FAST**: two-stage.  The four compass-point comparisons run densely on
   padded-slice views of the image (no ``np.roll`` copies) and reject every
   pixel whose pattern cannot support a contiguous arc
   (:func:`~repro.features.fast.cardinal_prefilter_lut`); the full
   16-pixel ring is then gathered at the survivors, packed into two uint16
   bitmasks (brighter/darker) and resolved by one gather from the
   precomputed 65536-entry :func:`~repro.features.fast.segment_arc_lut` —
   exactly the combinational 7x7-window check the hardware FAST Detection
   module performs.
2. **Harris**: responses are computed **sparsely** — integer Sobel products
   summed into int64 integral images, box sums gathered with four reads per
   FAST corner (:func:`~repro.features.harris.harris_scores_sparse`) —
   instead of scoring every pixel of the level.
3. **NMS**: sparse, loop-free suppression with vectorised raster-order
   tie-breaking (:func:`~repro.features.nms.suppress_keypoints_sparse`).
4. **Smoothing**: the separable 7x7 Gaussian runs on slice views of one
   edge-padded buffer (no per-tap ``np.roll`` copies).
5. **Orientation**: every keypoint's intensity centroid row by row from two
   per-row prefix-sum tables of the level, one span per patch row
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

from ..features.fast import (
    FAST_CARDINAL_POSITIONS,
    FAST_CIRCLE_OFFSETS,
    cardinal_prefilter_lut,
    fast_corner_mask,
    segment_arc_lut,
)
from ..features.harris import harris_scores_sparse
from ..features.nms import suppress_keypoints_sparse
from ..features.orientation import compute_orientations
from ..image import GrayImage
from ..image.filters import (
    GAUSSIAN_BLUR_SIGMA,
    GAUSSIAN_BLUR_SIZE,
    edge_pad_into,
    gaussian_kernel_1d,
)
from .base import ExtractionEngine


def _pack_ring_bits(flags: np.ndarray) -> np.ndarray:
    """Pack ``(16, K)`` ring flags into uint16 bitmasks (bit i = row i)."""
    masks = np.zeros(flags.shape[1], dtype=np.uint16)
    for index in range(16):
        np.bitwise_or(masks, np.uint16(1 << index), out=masks, where=flags[index])
    return masks


class VectorizedEngine(ExtractionEngine):
    """Two-stage FAST, sparse Harris and NMS, slice-view smoothing, batched
    orientation and description."""

    name = "vectorized"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._arc_lut = segment_arc_lut(config.fast.arc_length)
        self._cardinal_lut = cardinal_prefilter_lut(config.fast.arc_length)
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
        """FAST corners inside the border box, raster order, via the arc LUT.

        Two-stage: the dense pass evaluates only the four compass-point
        comparisons and rejects pixels whose 4-bit pattern cannot support a
        contiguous arc (:func:`cardinal_prefilter_lut`); the full 16-pixel
        ring is then gathered and tested sparsely at the few surviving
        candidates.  When the prefilter rejects too little (pathologically
        corner-dense images) the dense 16-comparison path runs instead —
        both stages decide every pixel with the exact reference comparisons.
        """
        cfg = self.config.fast
        height, width = image.shape
        border = cfg.border
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if height < 2 * border + 1 or width < 2 * border + 1:
            return empty
        if border < 3:
            # the rolled reference lets ring comparisons wrap around inside a
            # <3px border; keep those exact semantics via the dense path
            ys, xs = np.nonzero(fast_corner_mask(image, cfg))
            return xs.astype(np.int64), ys.astype(np.int64)
        pixels = image.pixels
        inner = (height - 2 * border, width - 2 * border)
        centre = pixels[border : height - border, border : width - border].astype(np.int16)
        high = centre + cfg.threshold
        low = centre - cfg.threshold
        flags = np.empty(inner, dtype=bool)
        # stage 1: compass-point patterns, 4 ring positions instead of 16
        bright4 = np.zeros(inner, dtype=np.uint8)
        dark4 = np.zeros(inner, dtype=np.uint8)
        for bit, position in enumerate(FAST_CARDINAL_POSITIONS):
            dx, dy = FAST_CIRCLE_OFFSETS[position]
            ring = pixels[
                border + dy : height - border + dy, border + dx : width - border + dx
            ]
            pattern_bit = np.uint8(1 << bit)
            np.greater(ring, high, out=flags)
            np.bitwise_or(bright4, pattern_bit, out=bright4, where=flags)
            np.less(ring, low, out=flags)
            np.bitwise_or(dark4, pattern_bit, out=dark4, where=flags)
        candidates = self._cardinal_lut[bright4]
        candidates |= self._cardinal_lut[dark4]
        cand_ys, cand_xs = np.nonzero(candidates)
        if cand_xs.size == 0:
            return empty
        if cand_xs.size * 4 > candidates.size:
            return self._fast_corners_dense(image, high, low, flags)
        # stage 2: full ring test, gathered only at the candidates.  The ring
        # is laid out (16, K) so comparisons and bit packing broadcast along
        # the contiguous candidate axis.
        xs = cand_xs + border
        ys = cand_ys + border
        flat = pixels.reshape(-1)
        base = ys * width + xs
        ring_offsets = np.array(
            [dy * width + dx for dx, dy in FAST_CIRCLE_OFFSETS], dtype=np.int64
        )
        ring = np.take(flat, ring_offsets[:, None] + base[None, :])
        centre_values = np.take(flat, base).astype(np.int16)
        # saturating uint8 thresholds are exact: a uint8 ring value can never
        # exceed a clipped-high 255 or undercut a clipped-low 0, matching the
        # int16 comparisons of the reference for out-of-range thresholds
        ring_high = np.minimum(centre_values + cfg.threshold, 255).astype(np.uint8)
        ring_low = np.maximum(centre_values - cfg.threshold, 0).astype(np.uint8)
        bright_mask = _pack_ring_bits(ring > ring_high[None, :])
        dark_mask = _pack_ring_bits(ring < ring_low[None, :])
        is_corner = self._arc_lut[bright_mask] | self._arc_lut[dark_mask]
        return xs[is_corner], ys[is_corner]

    def _fast_corners_dense(
        self,
        image: GrayImage,
        high: np.ndarray,
        low: np.ndarray,
        flags: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense 16-comparison fallback for images full of candidates."""
        cfg = self.config.fast
        height, width = image.shape
        border = cfg.border
        pixels = image.pixels
        inner = (height - 2 * border, width - 2 * border)
        brighter = np.zeros(inner, dtype=np.uint16)
        darker = np.zeros(inner, dtype=np.uint16)
        for index, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
            ring = pixels[
                border + dy : height - border + dy, border + dx : width - border + dx
            ]
            bit = np.uint16(1 << index)
            np.greater(ring, high, out=flags)
            np.bitwise_or(brighter, bit, out=brighter, where=flags)
            np.less(ring, low, out=flags)
            np.bitwise_or(darker, bit, out=darker, where=flags)
        corners = self._arc_lut[brighter]
        corners |= self._arc_lut[darker]
        ys, xs = np.nonzero(corners)
        return xs + border, ys + border

    # -- smoothing ---------------------------------------------------------
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Separable Gaussian on slice views; bit-identical to gaussian_blur.

        The reference accumulates ``sum_k w_k * np.roll(padded, half-k)`` in
        ascending tap order; the slice views here address the same elements,
        so every float64 multiply-add happens on the same operands in the
        same order and the rounded uint8 output cannot differ.
        """
        kernel = self._kernel
        half = kernel.size // 2
        height, width = level_image.shape
        padded = edge_pad_into(
            level_image.pixels, half, np.empty((height + 2 * half, width + 2 * half))
        )
        horizontal = padded[:, 0:width] * kernel[0]
        tap = np.empty_like(horizontal)
        for offset in range(1, kernel.size):
            np.multiply(padded[:, offset : offset + width], kernel[offset], out=tap)
            horizontal += tap
        output = horizontal[0:height, :] * kernel[0]
        tap_rows = tap[0:height, :]
        for offset in range(1, kernel.size):
            np.multiply(horizontal[offset : offset + height, :], kernel[offset], out=tap_rows)
            output += tap_rows
        np.rint(output, out=output)
        return GrayImage(np.clip(output, 0, 255).astype(np.uint8))

    # -- orientation -------------------------------------------------------
    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return compute_orientations(smoothed, xs, ys, radius=self.grid.radius, grid=self.grid)
