"""Detection front-end engine interface.

The full-frame half of the ORB extractor — FAST segment test, Harris
scoring, non-maximum suppression and Gaussian smoothing — is delegated to a
**detection engine**, mirroring the keypoint compute backend layer
(:mod:`repro.backends`).  An engine is constructed once from an
:class:`~repro.config.ExtractorConfig`, owns its precomputed tables (the
segment-test arc lookup table, Gaussian kernel) and then serves any number
of pyramid levels and frames.  Three implementations exist:

* ``reference`` -- composes the original per-stage functions
  (:func:`repro.features.fast.fast_corner_mask`,
  :func:`repro.features.harris.harris_response_map`,
  :func:`repro.features.nms.non_maximum_suppression`,
  :func:`repro.image.filters.gaussian_blur`), kept as bit-exact ground
  truth (:mod:`repro.frontend.reference`);
* ``vectorized`` -- the fused default: padded-slice ring comparisons packed
  into uint16 bitmasks resolved by a 65536-entry arc LUT, Harris responses
  gathered sparsely at FAST corners from integer integral images, loop-free
  NMS and a slice-view Gaussian smoother (:mod:`repro.frontend.vectorized`);
* ``hwexact`` -- the fixed-point datapath of the FPGA model: integer
  windowed Harris accumulators and the 8-bit quantized Gaussian smoother,
  bit-identical to :mod:`repro.hw` extraction rather than to the float
  engines (:mod:`repro.frontend.hwexact`, see ``docs/hwexact.md``).

Each engine is paired with the keypoint backend of the same ``name``;
``ExtractorConfig.engine`` names the pair and
:class:`~repro.features.orb.OrbExtractor` builds both halves.
``docs/frontend.md`` documents the architecture.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..image import GrayImage


class DetectionEngine(ABC):
    """Full-frame detection engine behind the ORB extractor.

    An engine instance holds only immutable tables and every call allocates
    its own arrays, so one instance can serve many extractors and many
    frames in flight concurrently (see :class:`repro.serving.FrameServer`).
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, config: ExtractorConfig) -> None:
        self.config = config

    # -- public API -------------------------------------------------------
    def detect(self, level_image: GrayImage) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the fused FAST + Harris + NMS pass over one pyramid level.

        Returns ``(xs, ys, scores)`` of the NMS survivors in raster order:
        int64 coordinates and float64 Harris responses.
        """
        xs, ys, scores, _ = self.detect_with_count(level_image)
        return xs, ys, scores

    @abstractmethod
    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Like :meth:`detect` but also returns the raw FAST corner count.

        The extra count feeds :class:`repro.features.orb.ExtractionProfile`
        (``keypoints_detected``) without a second pass over the image.
        """

    @abstractmethod
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Gaussian-smooth one pyramid level for the descriptor stage.

        The float engines (``reference``, ``vectorized``) must match
        :func:`repro.image.filters.gaussian_blur` with the default 7x7,
        sigma-2 kernel bit for bit; the quantized ``hwexact`` engine instead
        matches the hardware Image Smoother's 8-bit fixed-point kernel.
        """
