"""Keypoint and feature containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import DescriptorError


@dataclass(frozen=True)
class Keypoint:
    """A detected corner before description.

    Attributes
    ----------
    x, y:
        Pixel coordinates in the pyramid level where the keypoint was found.
    score:
        Harris corner response used for filtering (higher is better).
    level:
        Pyramid level index (0 = full resolution).
    orientation_bin:
        Discretised orientation label in ``[0, 32)`` where bin ``n`` means
        ``n * 11.25`` degrees, or ``None`` before orientation computation.
    orientation_rad:
        Continuous orientation in radians, or ``None`` before computation.
    """

    x: int
    y: int
    score: float
    level: int = 0
    orientation_bin: Optional[int] = None
    orientation_rad: Optional[float] = None


@dataclass(frozen=True)
class Feature:
    """A fully described ORB feature: keypoint + 256-bit binary descriptor.

    The descriptor is stored as a ``uint8`` array of 32 bytes, bit 0 of byte 0
    being the first BRIEF test, matching the bit ordering the hardware BRIEF
    Rotator shifts by multiples of 8 bits.
    """

    keypoint: Keypoint
    descriptor: np.ndarray
    x0: float = field(default=None)  # type: ignore[assignment]
    y0: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        descriptor = np.asarray(self.descriptor, dtype=np.uint8)
        if descriptor.ndim != 1 or descriptor.size == 0 or descriptor.size % 4 != 0:
            raise DescriptorError(
                f"descriptor must be a non-empty 1-D byte array, got shape {descriptor.shape}"
            )
        object.__setattr__(self, "descriptor", descriptor)
        if self.x0 is None:
            object.__setattr__(self, "x0", float(self.keypoint.x))
        if self.y0 is None:
            object.__setattr__(self, "y0", float(self.keypoint.y))

    @property
    def num_bits(self) -> int:
        return self.descriptor.size * 8
