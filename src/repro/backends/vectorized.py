"""The batched keypoint compute backend (default).

Processes one pyramid level per call with no Python-level per-keypoint work
(the batched :meth:`~repro.backends.base.KeypointBackend.describe`):

1. compute every keypoint's intensity centroid row by row from two
   per-row prefix-sum tables of the level, one span per patch row
   (:func:`~repro.features.orientation.intensity_centroids`), then bin each
   centroid's ``atan2`` angle to the nearest of the 32 orientations;
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

from typing import Tuple

import numpy as np

from ..features.orientation import compute_orientations
from ..image import GrayImage
from .base import KeypointBackend


class VectorizedBackend(KeypointBackend):
    """Whole-level batched float orientation + description."""

    name = "vectorized"

    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return compute_orientations(smoothed, xs, ys, radius=self.grid.radius, grid=self.grid)
