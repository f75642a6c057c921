"""The scalar per-keypoint compute backend (bit-exact ground truth).

This is the original software path of the extractor, preserved verbatim: one
:func:`~repro.features.orientation.compute_orientation` call and one
``DescriptorEngine.describe`` call per keypoint.  It defines the reference
semantics the ``vectorized`` backend must reproduce bit for bit, and it is
what ``ExtractorConfig(engine="reference")`` selects.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..image import GrayImage
from .base import DescribedBatch, KeypointBackend


class ReferenceBackend(KeypointBackend):
    """Per-keypoint scalar orientation + description (the ground-truth path)."""

    name = "reference"

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        from ..features.keypoint import Keypoint
        from ..features.orientation import compute_orientation

        radius = self.config.descriptor.patch_radius
        kept: List[int] = []
        bins: List[int] = []
        rads: List[float] = []
        descriptors: List[np.ndarray] = []
        for index in range(len(xs)):
            x, y = int(xs[index]), int(ys[index])
            if not smoothed.contains(x, y, border=radius):
                continue
            orientation_bin, orientation_rad = compute_orientation(smoothed, x, y, radius=radius)
            keypoint = Keypoint(
                x=x,
                y=y,
                score=float(scores[index]),
                orientation_bin=orientation_bin,
                orientation_rad=orientation_rad,
            )
            descriptors.append(self.descriptor_engine.describe(smoothed, keypoint))
            kept.append(index)
            bins.append(orientation_bin)
            rads.append(orientation_rad)
        if not kept:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        kept_array = np.asarray(kept, dtype=np.int64)
        return DescribedBatch(
            xs=np.asarray(xs, dtype=np.int64)[kept_array],
            ys=np.asarray(ys, dtype=np.int64)[kept_array],
            scores=np.asarray(scores, dtype=np.float64)[kept_array],
            orientation_bins=np.asarray(bins, dtype=np.int64),
            orientation_rads=np.asarray(rads, dtype=np.float64),
            descriptors=np.stack(descriptors),
            kept=kept_array,
        )
