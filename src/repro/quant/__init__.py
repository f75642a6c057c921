"""Shared fixed-point formats and quantized arithmetic kernels.

This package is the single home of the FPGA datapath *arithmetic*: the
fixed-point number formats (:mod:`repro.quant.formats`) and the quantized
compute kernels (:mod:`repro.quant.kernels`) — integer-accumulator Harris,
the 8-bit fixed-point Gaussian smoother, the quantized ``v/u`` orientation
lookup and the RS-BRIEF bit evaluation.

The ``hwexact`` engine (:mod:`repro.engines.hwexact`) runs these kernels
batched over whole pyramid levels, so full sequences and served workloads
execute under the exact quantized arithmetic of the accelerator.  The
hardware model (:mod:`repro.hw`) keeps the cycle, latency and resource
modelling.  ``tests/test_hwexact_parity.py`` asserts the engine is
bit-identical to the scalar hardware walk of ``tests/hw_oracle.py``;
``docs/hwexact.md`` documents the architecture.
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
    harris_scores_quantized,
    orientation_bins_quantized,
    quantization_overrides,
    quantize_gaussian_kernel,
    smooth_image_quantized,
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
    "smooth_image_quantized",
    "harris_scores_quantized",
    "orientation_bins_quantized",
    "quantization_overrides",
]
