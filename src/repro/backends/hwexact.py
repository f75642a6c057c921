"""The quantized fixed-point keypoint compute backend.

Orients and describes whole keypoint batches under the exact arithmetic of
the FPGA datapath model:

* **Orientation** accumulates the intensity centroid over the circular
  patch (exact-integer reductions, bit-identical to the scalar hardware
  unit), quantizes the ratio ``v/u`` to the Q6.10
  :data:`~repro.quant.formats.ORIENTATION_RATIO_FORMAT` and resolves the
  32-way label from the ratio and sign bits — the hardware LUT, no
  ``atan2``.  The continuous angle reported for each feature is the bin
  centre (``bin * 11.25`` degrees): the datapath never produces a finer
  angle, and RS-BRIEF rotation only consumes the bin.
* **Description** evaluates the fixed RS-BRIEF pattern against the
  (quantized-smoothed) level and applies the BRIEF Rotator byte shift —
  the same batched engine as the ``vectorized`` backend, which is already
  proven bit-identical to the hardware BRIEF Computing + Rotator units.

Like the hardware accelerator, this backend requires RS-BRIEF: the original
ORB descriptor needs the 30-pattern LUT the paper's datapath explicitly
avoids.  Holds only immutable tables, so one instance serves many frames in
flight (:class:`repro.serving.FrameServer`).
"""

from __future__ import annotations

import numpy as np

from ..errors import HardwareModelError
from ..image import GrayImage
from ..quant.kernels import intensity_centroids_batched, orientation_bins_quantized
from .base import DescribedBatch, KeypointBackend


class HwExactBackend(KeypointBackend):
    """Whole-level batched quantized orientation + RS-BRIEF description."""

    name = "hwexact"

    #: keypoints per orientation gather chunk (bounds the (K, P, P) patch stack)
    chunk_size: int = 2048

    def __init__(self, config) -> None:
        if not config.use_rs_brief:
            raise HardwareModelError(
                "the hwexact backend models the accelerator datapath, which "
                "implements RS-BRIEF; the original ORB descriptor requires "
                "the 30-pattern LUT the paper explicitly avoids"
            )
        super().__init__(config)
        from ..features.orientation import ORIENTATION_BIN_RAD, OrientationGrid

        self._grid = OrientationGrid.build(self.config.descriptor.patch_radius)
        self._bin_rad = ORIENTATION_BIN_RAD

    def describe(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
    ) -> DescribedBatch:
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        kept = np.nonzero(self.valid_mask(smoothed, xs, ys))[0]
        if kept.size == 0:
            return DescribedBatch.empty(self.config.descriptor.num_bytes)
        xs, ys, scores = xs[kept], ys[kept], scores[kept]
        us, vs = intensity_centroids_batched(
            smoothed,
            xs,
            ys,
            radius=self.config.descriptor.patch_radius,
            grid=self._grid,
            chunk_size=self.chunk_size,
        )
        bins = orientation_bins_quantized(us, vs)
        rads = bins.astype(np.float64) * self._bin_rad
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
