"""Extraction engine interface.

The ORB extractor delegates its per-level work to one **extraction
engine**, the software twin of the accelerator's streaming ORB Extractor:
Gaussian smoothing (:meth:`ExtractionEngine.smooth`), the fused FAST +
Harris + NMS pass (:meth:`ExtractionEngine.detect_with_count`), orientation
(:meth:`ExtractionEngine.orient`) and BRIEF/RS-BRIEF description
(:meth:`ExtractionEngine.describe`).  An engine is constructed once from an
:class:`~repro.config.ExtractorConfig`, owns its precomputed tables
(Gaussian kernel, orientation grid, descriptor patterns) and then serves
any number of pyramid levels and frames.  Three engines exist:

* ``reference`` -- the dense per-stage functions and the scalar
  per-keypoint orientation + description, kept as bit-exact ground truth
  (:mod:`repro.engines.reference`);
* ``vectorized`` -- the default: bit-sliced FAST, sparse Harris,
  loop-free NMS, banded smoothing and batched orientation + description,
  bit-identical to ``reference`` (:mod:`repro.engines.vectorized`);
* ``hwexact`` -- ``vectorized`` with the FPGA model's fixed-point scoring,
  smoothing and orientation, bit-identical to :mod:`repro.hw` extraction
  rather than to the float engines (:mod:`repro.engines.hwexact`, see
  ``docs/hwexact.md``).

``ExtractorConfig.engine`` names the engine and
:class:`~repro.features.orb.OrbExtractor` builds it.  An engine holds only
immutable tables and every call allocates its own arrays, so one instance
can serve many extractors and any sequence of frames.  ``docs/engines.md``
documents the architecture.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..errors import FeatureError
from ..image import GrayImage, within_border


@dataclass(frozen=True)
class DescribedBatch:
    """Per-level output of :meth:`ExtractionEngine.describe`.

    All arrays share the leading dimension ``K``, one row per input
    keypoint in input order.
    """

    xs: np.ndarray
    ys: np.ndarray
    scores: np.ndarray
    orientation_bins: np.ndarray
    orientation_rads: np.ndarray
    descriptors: np.ndarray

    @property
    def size(self) -> int:
        return int(self.xs.size)

    @classmethod
    def empty(cls, num_bytes: int) -> "DescribedBatch":
        return cls(
            xs=np.zeros(0, dtype=np.int64),
            ys=np.zeros(0, dtype=np.int64),
            scores=np.zeros(0, dtype=np.float64),
            orientation_bins=np.zeros(0, dtype=np.int64),
            orientation_rads=np.zeros(0, dtype=np.float64),
            descriptors=np.zeros((0, num_bytes), dtype=np.uint8),
        )


class ExtractionEngine(ABC):
    """Smoothing, detection, orientation and description of one level."""

    name: ClassVar[str] = "abstract"

    def __init__(self, config: ExtractorConfig) -> None:
        # local import: repro.features imports the extractor which builds
        # engines lazily, so importing the descriptor factory here keeps the
        # package import graph acyclic regardless of which side loads first
        from ..features.brief import make_descriptor_engine
        from ..features.orientation import OrientationGrid

        self.config = config
        self.descriptor_engine = make_descriptor_engine(config.use_rs_brief, config.descriptor)
        self.grid = OrientationGrid.build(config.descriptor.patch_radius)

    @abstractmethod
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Gaussian-smooth one pyramid level for the descriptor stage.

        The float engines (``reference``, ``vectorized``) must match
        :func:`repro.image.filters.gaussian_blur` with the default 7x7,
        sigma-2 kernel bit for bit; ``hwexact`` instead matches the hardware
        Image Smoother's 8-bit fixed-point kernel.
        """

    @abstractmethod
    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Run the fused FAST + Harris + NMS pass over one pyramid level.

        Returns ``(xs, ys, scores, corners)``: the NMS survivors in raster
        order (int64 coordinates, float64 Harris responses) and the raw FAST
        corner count, which feeds
        :class:`repro.features.orb.ExtractionProfile` (``keypoints_detected``).
        """

    @abstractmethod
    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bins, radians)`` of keypoints whose patch fits inside ``smoothed``."""

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        """Orient and describe the keypoints at ``(xs, ys)`` on one level.

        ``smoothed`` is the Gaussian-blurred pyramid level.  Every keypoint's
        orientation patch must fit inside it (the extractor's border filter
        guarantees this); otherwise :class:`~repro.errors.FeatureError` is
        raised.
        """
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        radius = self.grid.radius
        if not within_border(xs, ys, smoothed.shape, radius).all():
            raise FeatureError(
                f"keypoint patch of radius {radius} leaves the {smoothed.shape} level"
            )
        if xs.size == 0:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        bins, rads = self.orient(smoothed, xs, ys)
        return DescribedBatch(
            xs=xs,
            ys=ys,
            scores=scores,
            orientation_bins=bins,
            orientation_rads=rads,
            descriptors=self._descriptors(smoothed, xs, ys, scores, bins, rads),
        )

    def _descriptors(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
        bins: np.ndarray,
        rads: np.ndarray,
    ) -> np.ndarray:
        """``(K, num_bytes)`` descriptors of oriented keypoints, one batch."""
        return self.descriptor_engine.describe_batch(smoothed, xs, ys, bins, rads)
