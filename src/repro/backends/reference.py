"""The scalar per-keypoint compute backend (bit-exact ground truth).

This is the original software path of the extractor: one
:func:`~repro.features.orientation.compute_orientation` call and one
``DescriptorEngine.describe`` call per keypoint.  It defines the reference
semantics the ``vectorized`` backend must reproduce bit for bit, and it is
what ``ExtractorConfig(engine="reference")`` selects.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.keypoint import Keypoint
from ..features.orientation import compute_orientation
from ..image import GrayImage
from .base import DescribedBatch, KeypointBackend


class ReferenceBackend(KeypointBackend):
    """Per-keypoint scalar orientation + description (the ground-truth path)."""

    name = "reference"

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

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        radius = self.grid.radius
        kept = np.flatnonzero(
            [smoothed.contains(int(x), int(y), border=radius) for x, y in zip(xs, ys)]
        )
        if kept.size == 0:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        xs = np.asarray(xs, dtype=np.int64)[kept]
        ys = np.asarray(ys, dtype=np.int64)[kept]
        scores = np.asarray(scores, dtype=np.float64)[kept]
        bins, rads = self.orient(smoothed, xs, ys)
        descriptors = [
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
            for row in range(kept.size)
        ]
        return DescribedBatch(
            xs=xs,
            ys=ys,
            scores=scores,
            orientation_bins=bins,
            orientation_rads=rads,
            descriptors=np.stack(descriptors),
            kept=kept,
        )
