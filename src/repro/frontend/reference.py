"""The per-stage reference detection engine (bit-exact ground truth).

Composes the original full-map functions exactly as the extractor did before
the engine layer existed: :func:`fast_corner_mask` builds a whole-image
corner map, :func:`harris_response_map` scores **every** pixel,
:func:`non_maximum_suppression` suppresses on the dense maps and
:func:`gaussian_blur` smooths with the rolled separable convolution.  The
``vectorized`` engine must reproduce this output bit for bit
(``tests/test_frontend_parity.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.fast import fast_corner_mask
from ..features.harris import harris_response_map
from ..features.nms import non_maximum_suppression
from ..image import GrayImage
from ..image.filters import gaussian_blur
from .base import DetectionEngine


class ReferenceEngine(DetectionEngine):
    """Dense per-stage detection: full corner map, full Harris map, dense NMS."""

    name = "reference"

    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        corner_mask = fast_corner_mask(level_image, self.config.fast)
        corners_detected = int(corner_mask.sum())
        if corners_detected == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                0,
            )
        scores = harris_response_map(level_image)
        survivors = non_maximum_suppression(corner_mask, scores, radius=1)
        ys, xs = np.nonzero(survivors)
        xs = xs.astype(np.int64)
        ys = ys.astype(np.int64)
        return xs, ys, scores[ys, xs].astype(np.float64), corners_detected

    def smooth(self, level_image: GrayImage) -> GrayImage:
        return gaussian_blur(level_image)
