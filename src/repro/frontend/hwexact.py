"""The quantized fixed-point detection engine (the accelerator's arithmetic).

Runs the full-frame front end under the *exact* arithmetic of the FPGA
datapath model in :mod:`repro.hw`, batched over whole pyramid levels:

1. **FAST**: the segment test is pure integer comparisons, identical between
   hardware and software, so the engine reuses the vectorised
   :func:`~repro.features.fast.fast_corner_mask`; only corners whose full
   7x7 window fits inside the level are kept (the hardware never evaluates a
   partial window).
2. **Harris**: the integer-accumulator windowed response of the FAST
   Detection unit (:func:`repro.quant.kernels.harris_scores_quantized`),
   gathered from int64 integral images — bit-identical to evaluating
   :meth:`~repro.hw.orb_extractor.units.FastDetectionUnit.evaluate_window`
   per pixel because every intermediate is an integer.
3. **NMS**: the sparse raster-tie-break suppression shared with the other
   engines, run on the quantized integer scores.  Corners whose quantized
   score is non-positive never reach the heap (the hardware NMS unit only
   emits positive-score maxima) and cannot shadow a positive neighbour, so
   dropping them before suppression is exact.
4. **Smoothing**: the 8-bit fixed-point Gaussian of the Image Smoother unit
   (:func:`repro.quant.kernels.smooth_image_quantized`), integer MAC + shift.

``tests/test_hwexact_parity.py`` asserts this engine (with the matching
``hwexact`` keypoint backend) reproduces the hardware model's quantized
extraction bit for bit; ``docs/hwexact.md`` documents the architecture.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.fast import fast_corner_mask
from ..features.nms import suppress_keypoints_sparse
from ..image import GrayImage, within_border
from ..image.filters import GAUSSIAN_BLUR_SIGMA, GAUSSIAN_BLUR_SIZE
from ..quant.kernels import (
    HARRIS_WINDOW_RADIUS,
    SMOOTHER_WEIGHT_BITS,
    harris_scores_quantized,
    quantize_gaussian_kernel,
    smooth_image_quantized,
)
from .base import DetectionEngine


class HwExactEngine(DetectionEngine):
    """Fixed-point front end: FAST + integer Harris + NMS + quantized smoother."""

    name = "hwexact"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._kernel_fixed = quantize_gaussian_kernel(
            GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA, SMOOTHER_WEIGHT_BITS
        )

    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        mask = fast_corner_mask(level_image, self.config.fast)
        corners_detected = int(mask.sum())
        if corners_detected == 0:
            return (*empty, 0)
        ys, xs = np.nonzero(mask)
        xs = xs.astype(np.int64)
        ys = ys.astype(np.int64)
        # the hardware only scores complete 7x7 windows; with the default
        # 16-pixel FAST border this filter is a no-op
        inside = within_border(xs, ys, level_image.shape, HARRIS_WINDOW_RADIUS)
        xs, ys = xs[inside], ys[inside]
        if xs.size == 0:
            return (*empty, corners_detected)
        scores = harris_scores_quantized(level_image, xs, ys).astype(np.float64)
        positive = scores > 0
        xs, ys, scores = xs[positive], ys[positive], scores[positive]
        if xs.size == 0:
            return (*empty, corners_detected)
        keep = suppress_keypoints_sparse(xs, ys, scores, level_image.shape, radius=1)
        return xs[keep], ys[keep], scores[keep], corners_detected

    def smooth(self, level_image: GrayImage) -> GrayImage:
        """8-bit fixed-point Gaussian (deliberately differs from the float
        :func:`~repro.image.filters.gaussian_blur` by at most a few intensity
        levels — the quantisation the descriptor stage must survive)."""
        return smooth_image_quantized(
            level_image, self._kernel_fixed, SMOOTHER_WEIGHT_BITS
        )
