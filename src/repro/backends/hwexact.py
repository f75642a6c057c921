"""The quantized fixed-point keypoint compute backend.

Orients and describes whole keypoint batches under the exact arithmetic of
the FPGA datapath model:

* **Orientation** accumulates the intensity centroid one patch row at a
  time, each row one span of a per-row prefix-sum table, as the
  Orientation Computing unit adds one row per cycle (exact-integer
  moments, bit-identical to the scalar hardware unit), quantizes the
  ratio ``v/u`` to the Q6.10
  :data:`~repro.quant.formats.ORIENTATION_RATIO_FORMAT` and resolves the
  32-way label from the ratio and sign bits — the hardware LUT, no
  ``atan2``.  The continuous angle reported for each feature is the bin
  centre (``bin * 11.25`` degrees): the datapath never produces a finer
  angle, and RS-BRIEF rotation only consumes the bin.
* **Description** evaluates the fixed RS-BRIEF pattern against the
  (quantized-smoothed) level and applies the BRIEF Rotator byte shift —
  the same batched ``describe`` and centroid kernel as the ``vectorized``
  backend, which is already proven bit-identical to the hardware BRIEF
  Computing + Rotator units.  This backend supplies only its ``orient``.

Like the hardware accelerator, this backend requires RS-BRIEF: the original
ORB descriptor needs the 30-pattern LUT the paper's datapath explicitly
avoids.  Holds only immutable tables, so one instance serves many frames in
flight (:class:`repro.serving.FrameServer`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import HardwareModelError
from ..features.orientation import ORIENTATION_BIN_RAD, intensity_centroids
from ..image import GrayImage
from ..quant.kernels import orientation_bins_quantized
from .base import KeypointBackend


class HwExactBackend(KeypointBackend):
    """Whole-level batched quantized orientation + RS-BRIEF description."""

    name = "hwexact"

    def __init__(self, config) -> None:
        if not config.use_rs_brief:
            raise HardwareModelError(
                "the hwexact backend models the accelerator datapath, which "
                "implements RS-BRIEF; the original ORB descriptor requires "
                "the 30-pattern LUT the paper explicitly avoids"
            )
        super().__init__(config)

    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        us, vs = intensity_centroids(smoothed, xs, ys, self.grid)
        bins = orientation_bins_quantized(us, vs)
        return bins, bins.astype(np.float64) * ORIENTATION_BIN_RAD
