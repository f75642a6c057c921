"""Datapath units of the ORB Extractor (Figure 4).

Each class models one hardware block: its *functional* behaviour operates on
the same data the software pipeline uses (so outputs can be cross-checked
bit-for-bit against :mod:`repro.features`), and its *cycle cost* follows the
streaming schedule of Section 3.1.  Resource estimates for Table 1 are
derived from the same parameters in :mod:`repro.hw.resources`.

The quantized *arithmetic* of each unit lives in :mod:`repro.quant.kernels`
(shared with the batched ``hwexact`` engine pair, so the datapath cannot
fork); the units here keep the per-window/per-feature call granularity of
the streaming hardware plus the cycle accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ...config import DescriptorConfig, FastConfig
from ...errors import HardwareModelError
from ...features.fast import FAST_CIRCLE_OFFSETS
from ...features.heap_filter import BoundedScoreHeap
from ...features.orientation import NUM_ORIENTATION_BINS
from ...features.rs_brief import rotate_descriptor_bytes, rs_brief_pattern
from ...image import GrayImage
from ...quant.kernels import (
    brief_descriptor_from_patch,
    harris_window_score_quantized,
    orientation_bin_from_patch_quantized,
    quantize_gaussian_kernel,
    smooth_image_quantized,
    smooth_window_quantized,
)


# ---------------------------------------------------------------------------
# FAST detection + Harris scoring
# ---------------------------------------------------------------------------
class FastDetectionUnit:
    """Window-based FAST segment test with Harris scoring.

    The hardware evaluates one 7x7 window per clock cycle: the 16 circle
    comparisons, the contiguous-arc check and the Harris response all fit in
    a fully unrolled combinational pipeline.  The functional model therefore
    exposes :meth:`evaluate_window` operating on a single 7x7 patch, and the
    cycle cost of processing an image is simply one cycle per interior pixel
    (accounted by the integrated extractor, not here).
    """

    def __init__(self, config: FastConfig | None = None) -> None:
        self.config = config or FastConfig()
        self.windows_evaluated = 0

    def evaluate_window(self, window: np.ndarray) -> Tuple[bool, float]:
        """Return ``(is_corner, harris_score)`` for one 7x7 pixel window."""
        window = np.asarray(window, dtype=np.int64)
        if window.shape != (7, 7):
            raise HardwareModelError("FAST window must be 7x7")
        self.windows_evaluated += 1
        center = int(window[3, 3])
        ring = [int(window[3 + dy, 3 + dx]) for dx, dy in FAST_CIRCLE_OFFSETS]
        is_corner = self._segment_test(center, ring)
        score = float(self._harris_score(window)) if is_corner else 0.0
        return is_corner, score

    def _segment_test(self, center: int, ring: Sequence[int]) -> bool:
        threshold = self.config.threshold
        arc = self.config.arc_length
        brighter = [value > center + threshold for value in ring]
        darker = [value < center - threshold for value in ring]
        for flags in (brighter, darker):
            doubled = list(flags) + list(flags[: arc - 1])
            run = 0
            for flag in doubled:
                run = run + 1 if flag else 0
                if run >= arc:
                    return True
        return False

    def _harris_score(self, window: np.ndarray) -> int:
        """Quantized Harris response accumulated over the 7x7 window.

        Integer doubled-gradient accumulators with the Q0.7 fixed-point
        sensitivity constant, rescaled into the 24-bit score register — the
        shared kernel :func:`repro.quant.kernels.harris_window_score_quantized`.
        """
        return harris_window_score_quantized(window)


# ---------------------------------------------------------------------------
# Gaussian image smoother
# ---------------------------------------------------------------------------
class ImageSmootherUnit:
    """7x7 Gaussian blur evaluated as a windowed multiply-accumulate.

    The kernel weights are quantised to 8-bit fixed point, which is how an
    FPGA DSP-based smoother would store them; tests check the quantised
    output deviates from the floating-point reference by at most 1 intensity
    level.
    """

    def __init__(self, size: int = 7, sigma: float = 2.0, weight_bits: int = 8) -> None:
        self.size = size
        self.weight_bits = weight_bits
        # keep the kernel normalised after quantisation (the shared kernel
        # adjusts the centre tap so the weights sum to 2**weight_bits)
        self.kernel_fixed = quantize_gaussian_kernel(size, sigma, weight_bits)
        self.windows_processed = 0

    def smooth_window(self, window: np.ndarray) -> int:
        """Return the smoothed centre pixel of one ``size x size`` window."""
        self.windows_processed += 1
        return smooth_window_quantized(window, self.kernel_fixed, self.weight_bits)

    def smooth_image(self, image: GrayImage) -> GrayImage:
        """Slide the unit over a whole image (one window per pixel).

        Pure integer arithmetic, so each interior pixel is exactly what
        :meth:`smooth_window` produces for that window (asserted by the unit
        tests); edges replicate, matching the clamping line buffer.
        """
        self.windows_processed += image.num_pixels
        return smooth_image_quantized(image, self.kernel_fixed, self.weight_bits)


# ---------------------------------------------------------------------------
# Orientation computing
# ---------------------------------------------------------------------------
class OrientationUnit:
    """Intensity-centroid orientation with the hardware LUT discretisation.

    The unit accumulates ``sum(I*x)``, ``sum(I*y)`` and ``sum(I)`` over the
    circular patch, forms the fixed-point ratio ``v/u`` and looks the 32-way
    orientation label up from the ratio and the sign bits -- no ``atan2`` in
    hardware.  The functional model reuses the software centroid and LUT
    label computation, quantising the ratio to the datapath's fixed-point
    format to capture the (tiny) numeric difference from pure software.
    """

    def __init__(self, num_bins: int = NUM_ORIENTATION_BINS) -> None:
        self.num_bins = num_bins
        self.patches_processed = 0

    def orientation_bin(self, patch: np.ndarray) -> int:
        """Return the discretised orientation label of a circular patch.

        Delegates to the shared quantized kernel
        (:func:`repro.quant.kernels.orientation_bin_from_patch_quantized`):
        centroid accumulation, Q6.10 ratio quantisation and the 32-way LUT
        label, identical to the batched ``hwexact`` backend.
        """
        self.patches_processed += 1
        return orientation_bin_from_patch_quantized(patch, self.num_bins)

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
        self.pattern = rs_brief_pattern(self.config)
        self._s_int, self._d_int = self.pattern.rounded()
        self.features_described = 0

    def describe(self, smoothed_patch: np.ndarray) -> np.ndarray:
        """Compute the unrotated descriptor from a smoothed square patch.

        The patch must be centred on the feature and large enough to contain
        the pattern (side ``2 * patch_radius + 1``).
        """
        self.features_described += 1
        return brief_descriptor_from_patch(smoothed_patch, self._s_int, self._d_int)

    def cycles_per_feature(self) -> float:
        return float(self.config.num_bits / self.comparators_per_cycle)


class BriefRotatorUnit:
    """Barrel shifter applying the feature orientation to the descriptor.

    For orientation label ``n`` the first ``8 * n`` bits move from the start
    of the descriptor to the end.  With 8 seed pairs this is a whole-byte
    rotation, implemented here exactly as in the software path so the two
    stay bit-identical.  One descriptor rotates per cycle.
    """

    def __init__(self) -> None:
        self.descriptors_rotated = 0

    def rotate(self, descriptor: np.ndarray, orientation_bin: int) -> np.ndarray:
        if not 0 <= orientation_bin < NUM_ORIENTATION_BINS:
            raise HardwareModelError(
                f"orientation bin {orientation_bin} outside [0, {NUM_ORIENTATION_BINS})"
            )
        self.descriptors_rotated += 1
        return rotate_descriptor_bytes(np.asarray(descriptor, dtype=np.uint8), orientation_bin)

    @staticmethod
    def cycles_per_feature() -> float:
        return 1.0


# ---------------------------------------------------------------------------
# Feature heap
# ---------------------------------------------------------------------------
@dataclass
class HeapEntry:
    """Feature record stored in the hardware heap."""

    x: int
    y: int
    level: int
    score: float
    descriptor: np.ndarray
    #: orientation label carried alongside the descriptor in the feature
    #: record (written back over AXI with the coordinates)
    orientation_bin: int = 0


class FeatureHeapUnit:
    """The 1024-entry filtering heap of the ORB Extractor.

    Streams feature records in, keeps the ``capacity`` highest Harris scores.
    The cycle cost of an insertion is logarithmic in the heap size (one
    comparator level per tree level), matching a pipelined hardware heap.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._heap: BoundedScoreHeap[HeapEntry] = BoundedScoreHeap(capacity)

    def offer(self, entry: HeapEntry) -> bool:
        return self._heap.offer(entry.score, entry)

    def retained(self) -> List[HeapEntry]:
        return self._heap.items_by_score()

    @property
    def comparisons(self) -> int:
        """Comparator operations performed so far (the profile's ``heap_comparisons``)."""
        return self._heap.stats.comparisons

    def __len__(self) -> int:
        return len(self._heap)

