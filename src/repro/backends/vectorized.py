"""The batched keypoint compute backend (default).

Processes one pyramid level per call with no Python-level per-keypoint work:

1. gather every keypoint's orientation patch in one fancy-indexing pass and
   reduce all intensity centroids together (precomputed circular-mask and
   coordinate tables, chunked to bound memory);
2. evaluate the descriptor pattern as a single ``(K, 256)`` comparison —
   against the one unrotated RS-BRIEF pattern, or against per-keypoint
   pre-rotated original-ORB patterns gathered from the stacked LUT ROM;
3. pack bits row-wise and, for RS-BRIEF, apply the BRIEF Rotator to the whole
   batch through one byte-gather table.

Every step performs the same arithmetic in the same order as the scalar
``reference`` backend, so the output is bit-identical (asserted by
``tests/test_backends_parity.py``); it is simply issued as array operations
instead of ``K`` Python call chains.
"""

from __future__ import annotations

import numpy as np

from ..image import GrayImage
from .base import DescribedBatch, KeypointBackend


class VectorizedBackend(KeypointBackend):
    """Whole-level batched orientation + description."""

    name = "vectorized"

    #: keypoints per orientation gather chunk (bounds the (K, P, P) patch stack)
    chunk_size: int = 2048

    def __init__(self, config) -> None:
        super().__init__(config)
        from ..features.orientation import OrientationGrid

        self._grid = OrientationGrid.build(self.config.descriptor.patch_radius)

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        from ..features.orientation import compute_orientations

        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        kept = np.nonzero(self.valid_mask(smoothed, xs, ys))[0]
        if kept.size == 0:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        xs, ys, scores = xs[kept], ys[kept], scores[kept]
        bins, rads = compute_orientations(
            smoothed,
            xs,
            ys,
            radius=self.config.descriptor.patch_radius,
            grid=self._grid,
            chunk_size=self.chunk_size,
        )
        descriptors = self.descriptor_engine.describe_batch(smoothed, xs, ys, bins, rads)
        return DescribedBatch(
            xs=xs,
            ys=ys,
            scores=scores,
            orientation_bins=bins,
            orientation_rads=rads,
            descriptors=descriptors,
            kept=kept,
        )
