"""Datapath units of the ORB Extractor (Figure 4) that the cycle model charges.

Each class models the cycle cost of one hardware block under the streaming
schedule of Section 3.1; resource estimates for Table 1 are derived from
the same parameters in :mod:`repro.hw.resources`.  The units' quantized
*arithmetic* is the ``hwexact`` engine (:mod:`repro.engines.hwexact`, over
the kernels of :mod:`repro.quant.kernels`); FAST, Harris, smoothing and
NMS run one pixel per cycle, which the integrated model charges per level.
"""

from __future__ import annotations

from ...config import DescriptorConfig
from ...errors import HardwareModelError


# ---------------------------------------------------------------------------
# Orientation computing
# ---------------------------------------------------------------------------
class OrientationUnit:
    """Intensity-centroid orientation with the hardware LUT discretisation.

    The unit accumulates ``sum(I*x)``, ``sum(I*y)`` and ``sum(I)`` over the
    circular patch, forms the fixed-point ratio ``v/u`` and looks the 32-way
    orientation label up from the ratio and the sign bits -- no ``atan2`` in
    hardware.
    """

    def cycles_per_feature(self, patch_diameter: int = 31, lanes: int = 31) -> float:
        """Accumulation cycles per feature: one row of the patch per cycle."""
        if lanes <= 0:
            raise HardwareModelError("lanes must be positive")
        return float(patch_diameter * patch_diameter / lanes) + 2.0  # +divide/LUT


# ---------------------------------------------------------------------------
# BRIEF computing + rotator
# ---------------------------------------------------------------------------
class BriefComputingUnit:
    """Evaluates the 256 RS-BRIEF tests for one feature.

    The RS-BRIEF test locations are fixed, so the hardware reads the required
    pixels from the Smoothened Image Cache and performs 256 comparisons.
    With ``comparators_per_cycle`` parallel comparators the unit needs
    ``256 / comparators_per_cycle`` cycles per feature, which is the figure
    the integrated cycle model uses.
    """

    def __init__(
        self,
        config: DescriptorConfig | None = None,
        comparators_per_cycle: int = 32,
    ) -> None:
        if comparators_per_cycle <= 0:
            raise HardwareModelError("comparators_per_cycle must be positive")
        self.config = config or DescriptorConfig()
        self.comparators_per_cycle = comparators_per_cycle

    def cycles_per_feature(self) -> float:
        return float(self.config.num_bits / self.comparators_per_cycle)


class BriefRotatorUnit:
    """Barrel shifter applying the feature orientation to the descriptor.

    For orientation label ``n`` the first ``8 * n`` bits move from the start
    of the descriptor to the end.  With 8 seed pairs this is a whole-byte
    rotation.  One descriptor rotates per cycle.
    """

    @staticmethod
    def cycles_per_feature() -> float:
        return 1.0
