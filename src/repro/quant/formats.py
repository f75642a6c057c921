"""Fixed-point number formats of the FPGA datapath.

The FPGA datapath works with fixed-point numbers (pixel intensities, Harris
scores, centroid accumulators) rather than IEEE floats.  These helpers model
quantisation so both the hardware model (:mod:`repro.hw`) and the ``hwexact``
software engines can agree — to the bit — on what a realistic implementation
computes.  Non-finite inputs are rejected loudly: a NaN or infinity reaching
a fixed-point converter means the surrounding model is broken, and silently
wrapping it into the representable range would hide that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import HardwareModelError


def _require_finite(array: np.ndarray, operation: str) -> None:
    """Reject NaN/inf inputs instead of silently clipping them."""
    if not np.isfinite(array).all():
        raise HardwareModelError(
            f"cannot {operation} non-finite values (NaN or inf) in a "
            "fixed-point format"
        )


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed/unsigned fixed-point format ``Q(integer_bits).(fraction_bits)``."""

    integer_bits: int
    fraction_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise HardwareModelError("bit widths must be non-negative")
        if self.total_bits == 0:
            raise HardwareModelError("format must have at least one bit")

    @property
    def total_bits(self) -> int:
        return self.integer_bits + self.fraction_bits + (1 if self.signed else 0)

    @property
    def scale(self) -> float:
        return float(2**self.fraction_bits)

    @property
    def max_value(self) -> float:
        return (2 ** (self.integer_bits + self.fraction_bits) - 1) / self.scale

    @property
    def min_value(self) -> float:
        if not self.signed:
            return 0.0
        return -(2 ** (self.integer_bits + self.fraction_bits)) / self.scale

    def quantize(self, value):
        """Round ``value`` (scalar or array) to the nearest representable number."""
        array = np.asarray(value, dtype=np.float64)
        _require_finite(array, "quantize")
        quantized = np.rint(array * self.scale) / self.scale
        return np.clip(quantized, self.min_value, self.max_value)

    def saturate_integer(self, raw):
        """Clip raw integer values to the format's representable range."""
        array = np.asarray(raw, dtype=np.int64)
        low = int(round(self.min_value * self.scale))
        high = int(round(self.max_value * self.scale))
        return np.clip(array, low, high)


#: Format used for pixel intensities (unsigned 8-bit integers).
PIXEL_FORMAT = FixedPointFormat(integer_bits=8, fraction_bits=0, signed=False)
#: Format used for the centroid ratio v/u feeding the orientation LUT.
ORIENTATION_RATIO_FORMAT = FixedPointFormat(integer_bits=6, fraction_bits=10)
#: Format used for Harris corner scores inside the heap comparisons.
HARRIS_SCORE_FORMAT = FixedPointFormat(integer_bits=24, fraction_bits=0)
