"""Grayscale image container used throughout the pipeline.

The FPGA datapath in the paper operates on 8-bit grayscale pixels streamed
from SDRAM.  :class:`GrayImage` wraps a ``uint8`` numpy array, validates its
shape/dtype once at construction and provides the small set of pixel-access
helpers the feature-extraction code needs (patch extraction, circular masks,
bounds checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ImageError


def _as_uint8(data: np.ndarray) -> np.ndarray:
    """Validate and normalise raw pixel data to a C-contiguous uint8 array."""
    array = np.asarray(data)
    if array.ndim != 2:
        raise ImageError(f"expected a 2-D grayscale array, got shape {array.shape}")
    if array.size == 0:
        raise ImageError("image must not be empty")
    if array.dtype == np.uint8:
        return np.ascontiguousarray(array)
    if np.issubdtype(array.dtype, np.floating):
        if array.max(initial=0.0) <= 1.0 and array.min(initial=0.0) >= 0.0:
            array = array * 255.0
        return np.ascontiguousarray(np.clip(np.rint(array), 0, 255).astype(np.uint8))
    if np.issubdtype(array.dtype, np.integer):
        return np.ascontiguousarray(np.clip(array, 0, 255).astype(np.uint8))
    raise ImageError(f"unsupported image dtype {array.dtype}")


@dataclass(frozen=True)
class GrayImage:
    """An 8-bit grayscale image.

    Parameters
    ----------
    pixels:
        2-D array of pixel intensities.  Floating-point inputs in ``[0, 1]``
        are rescaled to ``[0, 255]``; integer inputs are clipped.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", _as_uint8(self.pixels))

    # -- basic geometry -------------------------------------------------
    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.height, self.width)

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.pixels, other.pixels))

    def __hash__(self) -> int:  # frozen dataclass with ndarray needs explicit hash
        return hash((self.shape, self.pixels.tobytes()))

    # -- pixel access ----------------------------------------------------
    def contains(self, x: float, y: float, border: int = 0) -> bool:
        """Return True if ``(x, y)`` lies inside the image minus ``border``."""
        return (
            border <= x < self.width - border
            and border <= y < self.height - border
        )

    def patch(self, x: int, y: int, radius: int) -> np.ndarray:
        """Return the square ``(2*radius+1)`` patch centred on ``(x, y)``."""
        if not self.contains(x, y, border=radius):
            raise ImageError(
                f"patch of radius {radius} at ({x}, {y}) exceeds image bounds {self.shape}"
            )
        return self.pixels[y - radius : y + radius + 1, x - radius : x + radius + 1]

    def as_float(self) -> np.ndarray:
        """Return the pixels as a float64 array (useful for filtering)."""
        return self.pixels.astype(np.float64)

    # -- construction helpers ---------------------------------------------
    @classmethod
    def zeros(cls, height: int, width: int) -> "GrayImage":
        if height <= 0 or width <= 0:
            raise ImageError("image dimensions must be positive")
        return cls(np.zeros((height, width), dtype=np.uint8))

    @classmethod
    def full(cls, height: int, width: int, value: int) -> "GrayImage":
        if height <= 0 or width <= 0:
            raise ImageError("image dimensions must be positive")
        return cls(np.full((height, width), value, dtype=np.uint8))

    def copy(self) -> "GrayImage":
        return GrayImage(self.pixels.copy())

def within_border(
    xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int], border: int
) -> np.ndarray:
    """Vectorised bounds mask: True where ``(x, y)`` keeps ``border`` inside.

    The array form of :meth:`GrayImage.contains` — one definition shared by
    the extractor's descriptor-border filter and the backends' patch-validity
    mask so the border semantics cannot drift between them.
    """
    height, width = shape
    return (xs >= border) & (xs < width - border) & (ys >= border) & (ys < height - border)


def circular_mask(radius: int) -> np.ndarray:
    """Return a boolean mask selecting the circular patch of ``radius``.

    The mask has shape ``(2*radius+1, 2*radius+1)`` and is True inside the
    circle of the given radius (inclusive).  This mirrors the circular patch
    the orientation-computing module integrates over.
    """
    if radius < 0:
        raise ImageError("radius must be non-negative")
    coords = np.arange(-radius, radius + 1)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    return (xx * xx + yy * yy) <= radius * radius
