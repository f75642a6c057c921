"""Shared fixed-point formats and quantized arithmetic kernels.

This package is the single home of the FPGA datapath *arithmetic*: the
fixed-point number formats (:mod:`repro.quant.formats`) and the quantized
compute kernels (:mod:`repro.quant.kernels`) — integer-accumulator Harris,
the 8-bit fixed-point Gaussian smoother, the quantized ``v/u`` orientation
lookup and the RS-BRIEF bit evaluation.

Two consumers share these definitions so the datapath can never fork:

* the hardware model (:mod:`repro.hw`) keeps its per-window/per-feature
  datapath units (:class:`~repro.hw.orb_extractor.units.FastDetectionUnit`
  and friends) plus all cycle/latency/resource modelling, but delegates the
  arithmetic itself to the kernels here;
* the ``hwexact`` engine (:mod:`repro.engines.hwexact`) runs the same
  kernels batched over whole pyramid levels, so full sequences and served
  workloads execute under the exact quantized arithmetic of the accelerator.

``tests/test_hwexact_parity.py`` asserts the two orchestrations are
bit-identical; ``docs/hwexact.md`` documents the architecture.
"""

from .formats import (
    HARRIS_SCORE_FORMAT,
    ORIENTATION_RATIO_FORMAT,
    PIXEL_FORMAT,
    FixedPointFormat,
)
from .kernels import (
    HARRIS_K_FIXED,
    HARRIS_K_FRACTION_BITS,
    HARRIS_SCORE_SHIFT,
    SMOOTHER_WEIGHT_BITS,
    brief_descriptor_from_patch,
    harris_scores_quantized,
    harris_window_score_quantized,
    orientation_bin_from_patch_quantized,
    orientation_bins_quantized,
    quantization_overrides,
    quantize_gaussian_kernel,
    smooth_image_quantized,
    smooth_window_quantized,
)

__all__ = [
    "FixedPointFormat",
    "PIXEL_FORMAT",
    "ORIENTATION_RATIO_FORMAT",
    "HARRIS_SCORE_FORMAT",
    "HARRIS_K_FIXED",
    "HARRIS_K_FRACTION_BITS",
    "HARRIS_SCORE_SHIFT",
    "SMOOTHER_WEIGHT_BITS",
    "quantize_gaussian_kernel",
    "smooth_window_quantized",
    "smooth_image_quantized",
    "harris_window_score_quantized",
    "harris_scores_quantized",
    "orientation_bins_quantized",
    "orientation_bin_from_patch_quantized",
    "brief_descriptor_from_patch",
    "quantization_overrides",
]
