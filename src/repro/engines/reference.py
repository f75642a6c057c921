"""The per-stage reference engine (bit-exact ground truth).

Composes the original functions exactly as the extractor did before the
engine layer existed.  Detection is dense: :func:`fast_corner_mask` builds
a whole-image corner map, :func:`harris_response_map` scores **every**
pixel and :func:`non_maximum_suppression` suppresses on the dense maps;
:func:`gaussian_blur` smooths with the rolled separable convolution.
Orientation and description are scalar: one
:func:`~repro.features.orientation.compute_orientation` call and one
``DescriptorEngine.describe`` call per keypoint.  The ``vectorized`` engine
must reproduce this output bit for bit (``tests/test_frontend_parity.py``,
``tests/test_backends_parity.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.fast import fast_corner_mask
from ..features.harris import harris_response_map
from ..features.keypoint import Keypoint
from ..features.nms import non_maximum_suppression
from ..features.orientation import compute_orientation
from ..image import GrayImage
from ..image.filters import gaussian_blur
from .base import ExtractionEngine


class ReferenceEngine(ExtractionEngine):
    """Dense per-stage detection and per-keypoint scalar description."""

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

    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        radius = self.grid.radius
        pairs = [
            compute_orientation(smoothed, int(x), int(y), radius=radius) for x, y in zip(xs, ys)
        ]
        return (
            np.array([orientation_bin for orientation_bin, _ in pairs], dtype=np.int64),
            np.array([orientation_rad for _, orientation_rad in pairs], dtype=np.float64),
        )

    def _descriptors(self, smoothed, xs, ys, scores, bins, rads) -> np.ndarray:
        return np.stack(
            [
                self.descriptor_engine.describe(
                    smoothed,
                    Keypoint(
                        x=int(xs[row]),
                        y=int(ys[row]),
                        score=float(scores[row]),
                        orientation_bin=int(bins[row]),
                        orientation_rad=float(rads[row]),
                    ),
                )
                for row in range(xs.size)
            ]
        )
