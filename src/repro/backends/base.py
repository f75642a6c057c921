"""Keypoint compute backend interface.

The ORB extractor's hot path — orientation computation plus BRIEF/RS-BRIEF
description for every detected keypoint — is delegated to a
**keypoint compute backend**.  A backend is constructed once from an
:class:`~repro.config.ExtractorConfig`, owns its precomputed tables (the
circular patch's row spans, rounded pattern locations, rotation gather
tables) and then serves any number of frames.

:meth:`KeypointBackend.describe` is the one batched path: it masks the
keypoints whose patch leaves the level, orients the rest with the
subclass's :meth:`~KeypointBackend.orient` and describes them all with one
``describe_batch`` call.  Both batched backends orient from the one
centroid kernel, :func:`repro.features.orientation.intensity_centroids`,
and differ only in how they bin the centroid:

* ``vectorized`` -- the float default: ``atan2`` and rounding to the
  nearest bin (:mod:`repro.backends.vectorized`);
* ``hwexact`` -- the fixed-point datapath of the FPGA model: the
  quantized-ratio orientation LUT, reporting bin-centre angles, and
  RS-BRIEF only; bit-identical to :mod:`repro.hw` extraction rather than to
  the float backends (:mod:`repro.backends.hwexact`, see
  ``docs/hwexact.md``).

``reference`` (:mod:`repro.backends.reference`) overrides ``describe`` with
the scalar per-keypoint path and is kept as the bit-exact ground truth of
``vectorized``.

The full-frame half of the extractor — FAST + Harris + NMS + smoothing — is
served by the detection engine of the same ``name`` in :mod:`repro.frontend`,
under the same bit-exactness contract.  ``ExtractorConfig.engine`` names the
pair and :class:`~repro.features.orb.OrbExtractor` builds both halves.  A
backend instance must stay thread-safe across concurrent ``describe`` calls
(precomputed tables only, no mutable per-call state) so that one instance
can serve many frames in flight through :class:`repro.serving.FrameServer`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..image import GrayImage, within_border


@dataclass(frozen=True)
class DescribedBatch:
    """Per-level output of a backend: arrays over the described keypoints.

    All arrays share the leading dimension ``K`` (keypoints that survived the
    descriptor border check).  ``kept`` maps each row back to the index of the
    keypoint in the input arrays, so callers that pre-selected candidates
    (the original workflow) can scatter results into place.
    """

    xs: np.ndarray
    ys: np.ndarray
    scores: np.ndarray
    orientation_bins: np.ndarray
    orientation_rads: np.ndarray
    descriptors: np.ndarray
    kept: np.ndarray

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
            kept=np.zeros(0, dtype=np.int64),
        )


class KeypointBackend(ABC):
    """Batched orientation + description engine behind the ORB extractor.

    A backend instance is stateless across frames apart from its precomputed
    tables, so one instance can serve many extractors, sequences and
    configurations (see :class:`repro.analysis.experiments.BatchRunner`).
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, config: ExtractorConfig) -> None:
        # local import: repro.features imports the extractor which resolves
        # backends lazily, so importing the engine factory here keeps the
        # package import graph acyclic regardless of which side loads first
        from ..features.brief import make_descriptor_engine
        from ..features.orientation import OrientationGrid

        self.config = config
        self.descriptor_engine = make_descriptor_engine(config.use_rs_brief, config.descriptor)
        self.grid = OrientationGrid.build(config.descriptor.patch_radius)

    def patch_radius(self) -> int:
        """Border margin the descriptor pattern needs around a keypoint."""
        return self.descriptor_engine.patch_radius()

    def valid_mask(self, image: GrayImage, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Keypoints whose orientation patch fits inside ``image``.

        Mirrors the scalar path's ``image.contains(x, y, border=radius)``
        check with ``radius = descriptor.patch_radius``.
        """
        return within_border(xs, ys, image.shape, self.config.descriptor.patch_radius)

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        """Orient and describe the keypoints at ``(xs, ys)`` on one level.

        ``smoothed`` is the Gaussian-blurred pyramid level.  Keypoints whose
        descriptor patch does not fit are dropped (see ``kept``).
        """
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        kept = np.nonzero(self.valid_mask(smoothed, xs, ys))[0]
        if kept.size == 0:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        xs, ys, scores = xs[kept], ys[kept], scores[kept]
        bins, rads = self.orient(smoothed, xs, ys)
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

    @abstractmethod
    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bins, radians)`` of keypoints whose patch fits inside ``smoothed``."""
