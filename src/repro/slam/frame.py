"""Frame representation used by the SLAM front-end."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import TrackingError
from ..features import ExtractionResult, Feature
from ..geometry import PinholeCamera, Pose
from ..image import GrayImage


@dataclass
class Frame:
    """One RGB-D frame moving through the SLAM pipeline.

    A frame starts as raw sensor data (grayscale image + depth map) and is
    progressively annotated with extracted features, its estimated pose and
    its key-frame status.
    """

    index: int
    timestamp: float
    image: GrayImage
    depth: np.ndarray
    camera: PinholeCamera
    extraction: Optional[ExtractionResult] = None
    pose: Optional[Pose] = None  # world-to-camera, set by the tracker
    is_keyframe: bool = False

    def __post_init__(self) -> None:
        depth = np.asarray(self.depth, dtype=np.float64)
        if depth.shape != self.image.shape:
            raise TrackingError(
                f"depth shape {depth.shape} does not match image shape {self.image.shape}"
            )
        self.depth = depth

    # -- feature helpers -------------------------------------------------
    # The matrix/array accessors below are the SLAM hot path: they hand the
    # extraction result's arrays straight to matching / RANSAC / map
    # updating; no per-feature objects are built.
    def set_features(self, extraction: ExtractionResult) -> None:
        """Attach the result of ORB extraction to this frame."""
        self.extraction = extraction

    @property
    def features(self) -> List[Feature]:
        """Per-feature objects, materialised on first access."""
        return self.extraction.features if self.extraction is not None else []

    @property
    def feature_count(self) -> int:
        """Number of features, without materialising Feature objects."""
        return self.extraction.feature_count if self.extraction is not None else 0

    def descriptor_matrix(self) -> np.ndarray:
        """Stack feature descriptors as an ``(N, 32)`` uint8 matrix."""
        if self.extraction is None:
            return np.zeros((0, 32), dtype=np.uint8)
        return self.extraction.descriptor_matrix()

    def keypoint_pixels(self) -> np.ndarray:
        """Level-0 pixel coordinates of all features, ``(N, 2)``."""
        if self.extraction is None:
            return np.zeros((0, 2), dtype=np.float64)
        return self.extraction.keypoint_array()

    def feature_depth(self, feature_index: int) -> float:
        """Depth (metres) at the feature's level-0 pixel, 0 if invalid."""
        if not 0 <= feature_index < self.feature_count:
            raise TrackingError(f"feature index {feature_index} out of range")
        arrays = self.extraction.feature_arrays()
        x = int(round(float(arrays.x0[feature_index])))
        y = int(round(float(arrays.y0[feature_index])))
        if not (0 <= y < self.depth.shape[0] and 0 <= x < self.depth.shape[1]):
            return 0.0
        return float(self.depth[y, x])

    def feature_depths(self) -> np.ndarray:
        """Depths for all features (``0`` marks invalid depth), vectorised."""
        pixels = self.keypoint_pixels()
        if pixels.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        xs = np.rint(pixels[:, 0]).astype(np.int64)
        ys = np.rint(pixels[:, 1]).astype(np.int64)
        height, width = self.depth.shape
        valid = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        depths = np.zeros(pixels.shape[0], dtype=np.float64)
        depths[valid] = self.depth[ys[valid], xs[valid]]
        return depths
