"""The quantized fixed-point extraction engine (the accelerator's arithmetic).

Runs the extractor under the *exact* arithmetic of the FPGA datapath model
in :mod:`repro.hw`, batched over whole pyramid levels.  It is the
``vectorized`` engine with three steps replaced:

1. **FAST** (inherited): the segment test is pure integer comparisons,
   identical between hardware and software, so the bit-sliced pass of the
   ``vectorized`` engine finds exactly the hardware's corners.
2. **Scoring**: only corners whose full 7x7 window fits inside the level
   are kept (the hardware never evaluates a partial window), scored by the
   integer-accumulator windowed response of the FAST Detection unit
   (:func:`repro.quant.kernels.harris_scores_quantized`) — bit-identical to
   :meth:`~repro.hw.orb_extractor.units.FastDetectionUnit.evaluate_window`
   per pixel because every intermediate is an integer.  Corners whose
   quantized score is non-positive never reach the heap (the hardware NMS
   unit only emits positive-score maxima) and cannot shadow a positive
   neighbour, so dropping them before the inherited sparse NMS is exact.
3. **Smoothing**: the 8-bit fixed-point Gaussian of the Image Smoother unit
   (:func:`repro.quant.kernels.smooth_image_quantized`), integer MAC + shift,
   run in 64-row bands with the taps of equal weight summed first.
4. **Orientation** takes the exact-integer intensity-centroid moments of
   every patch from the shared batched kernel
   (:func:`~repro.features.orientation.intensity_centroids`: one float32
   matmul of the gathered patches against the masked moment weights, exact
   because every partial sum is an integer below ``2**24``), bit-identical
   to the scalar Orientation Computing unit, quantizes the ratio
   ``v/u`` to the Q6.10 :data:`~repro.quant.formats.ORIENTATION_RATIO_FORMAT`
   and resolves the 32-way label from the ratio and sign bits — the
   hardware LUT, no ``atan2``.  The continuous angle reported for each
   feature is the bin centre (``bin * 11.25`` degrees): the datapath never
   produces a finer angle, and RS-BRIEF rotation only consumes the bin.
5. **Description** (inherited): the fixed RS-BRIEF pattern against the
   quantized-smoothed level plus the BRIEF Rotator byte shift, already
   proven bit-identical to the hardware BRIEF Computing + Rotator units.

Like the hardware accelerator, this engine requires RS-BRIEF: the original
ORB descriptor needs the 30-pattern LUT the paper's datapath explicitly
avoids.  ``tests/test_hwexact_parity.py`` asserts this engine reproduces the
hardware model's quantized extraction bit for bit; ``docs/hwexact.md``
documents the architecture.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import HardwareModelError
from ..features.orientation import ORIENTATION_BIN_RAD, intensity_centroids
from ..image import GrayImage, within_border
from ..image.filters import GAUSSIAN_BLUR_SIGMA, GAUSSIAN_BLUR_SIZE
from ..quant.kernels import (
    HARRIS_WINDOW_RADIUS,
    SMOOTHER_WEIGHT_BITS,
    harris_scores_quantized,
    orientation_bins_quantized,
    quantize_gaussian_kernel,
    smooth_image_quantized,
)
from .vectorized import VectorizedEngine


class HwExactEngine(VectorizedEngine):
    """Fixed-point scoring, smoothing and orientation; RS-BRIEF only."""

    name = "hwexact"

    def __init__(self, config) -> None:
        if not config.use_rs_brief:
            raise HardwareModelError(
                "the hwexact engine models the accelerator datapath, which "
                "implements RS-BRIEF; the original ORB descriptor requires "
                "the 30-pattern LUT the paper explicitly avoids"
            )
        super().__init__(config)
        self._kernel_fixed = quantize_gaussian_kernel(
            GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA, SMOOTHER_WEIGHT_BITS
        )

    def _score(
        self, image: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the hardware only scores complete 7x7 windows; with the default
        # 16-pixel FAST border this filter is a no-op
        inside = within_border(xs, ys, image.shape, HARRIS_WINDOW_RADIUS)
        xs, ys = xs[inside], ys[inside]
        scores = harris_scores_quantized(image, xs, ys).astype(np.float64)
        positive = scores > 0
        return xs[positive], ys[positive], scores[positive]

    def smooth(self, level_image: GrayImage) -> GrayImage:
        """8-bit fixed-point Gaussian (deliberately differs from the float
        :func:`~repro.image.filters.gaussian_blur` by at most a few intensity
        levels — the quantisation the descriptor stage must survive)."""
        return smooth_image_quantized(
            level_image, self._kernel_fixed, SMOOTHER_WEIGHT_BITS
        )

    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        us, vs = intensity_centroids(smoothed, xs, ys, self.grid)
        bins = orientation_bins_quantized(us, vs)
        return bins, bins.astype(np.float64) * ORIENTATION_BIN_RAD
