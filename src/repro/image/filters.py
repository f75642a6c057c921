"""Image smoothing filters.

The ORB Extractor applies a Gaussian blur to a 7x7 neighbourhood before the
BRIEF tests are evaluated (the *Image Smoother* module in Figure 4 of the
paper).  This module provides the separable Gaussian kernel used both by the
software pipeline and by the hardware model, and the edge-padded row bands
the banded smoothers of the engines read.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ImageError
from .image import GrayImage

#: The ORB pre-descriptor smoother: a 7x7 Gaussian with sigma 2.  Shared by
#: :func:`gaussian_blur` and the extraction engines (:mod:`repro.engines`)
#: so the dense and fused smoothing paths cannot silently diverge.
GAUSSIAN_BLUR_SIZE: int = 7
GAUSSIAN_BLUR_SIGMA: float = 2.0
#: Output rows per band of the banded smoothers: a band's buffers stay a few
#: hundred KB at VGA width instead of level-sized.
SMOOTHING_BAND_ROWS: int = 64


def gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    """Return a normalised 1-D Gaussian kernel of odd ``size``."""
    if size <= 0 or size % 2 == 0:
        raise ImageError("kernel size must be a positive odd integer")
    if sigma <= 0:
        raise ImageError("sigma must be positive")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_kernel_2d(size: int, sigma: float) -> np.ndarray:
    """Return a normalised 2-D Gaussian kernel (outer product of the 1-D one)."""
    k = gaussian_kernel_1d(size, sigma)
    return np.outer(k, k)


def _convolve_separable(pixels: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable convolution with edge replication (matches line-buffer HW)."""
    half = kernel.size // 2
    padded = np.pad(pixels.astype(np.float64), half, mode="edge")
    # horizontal pass
    horiz = np.zeros_like(padded)
    for offset, weight in enumerate(kernel):
        horiz += weight * np.roll(padded, half - offset, axis=1)
    # vertical pass
    vert = np.zeros_like(padded)
    for offset, weight in enumerate(kernel):
        vert += weight * np.roll(horiz, half - offset, axis=0)
    return vert[half:-half, half:-half] if half else vert


def gaussian_blur(
    image: GrayImage, size: int = GAUSSIAN_BLUR_SIZE, sigma: float = GAUSSIAN_BLUR_SIGMA
) -> GrayImage:
    """Return a Gaussian-smoothed copy of ``image``.

    The default 7x7 kernel with ``sigma = 2`` mirrors the smoother used by
    ORB before descriptor tests; borders are handled by edge replication,
    matching a hardware line buffer that clamps addresses at image edges.
    """
    kernel = gaussian_kernel_1d(size, sigma)
    blurred = _convolve_separable(image.pixels, kernel)
    return GrayImage(np.clip(np.rint(blurred), 0, 255).astype(np.uint8))


def sobel_gradients(image: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Return the horizontal and vertical Sobel gradients of ``image``.

    Used by the Harris corner score.  Returns float64 arrays with the same
    shape as the image; borders are computed with edge replication.
    """
    pixels = np.pad(image.as_float(), 1, mode="edge")
    gx = (
        (pixels[:-2, 2:] + 2.0 * pixels[1:-1, 2:] + pixels[2:, 2:])
        - (pixels[:-2, :-2] + 2.0 * pixels[1:-1, :-2] + pixels[2:, :-2])
    )
    gy = (
        (pixels[2:, :-2] + 2.0 * pixels[2:, 1:-1] + pixels[2:, 2:])
        - (pixels[:-2, :-2] + 2.0 * pixels[:-2, 1:-1] + pixels[:-2, 2:])
    )
    return gx, gy


def edge_padded_bands(
    pixels: np.ndarray, pad: int, dtype
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(top, rows, band)`` over bands of :data:`SMOOTHING_BAND_ROWS` output rows.

    ``band`` holds rows ``top .. top + rows + 2 * pad`` of
    ``np.pad(pixels, pad, mode="edge")`` as ``dtype``: the rows around the
    band are read by clamped row index and the columns replicate the edge,
    as a hardware line buffer clamps addresses at image edges.  One buffer
    is reused, so a band is only valid until the next one is yielded.
    """
    height, width = pixels.shape
    buffer = np.empty(
        (min(SMOOTHING_BAND_ROWS, height) + 2 * pad, width + 2 * pad), dtype=dtype
    )
    for top in range(0, height, SMOOTHING_BAND_ROWS):
        rows = min(SMOOTHING_BAND_ROWS, height - top)
        band = buffer[: rows + 2 * pad]
        band[:, pad : pad + width] = pixels[
            np.clip(np.arange(top - pad, top + rows + pad), 0, height - 1)
        ]
        band[:, :pad] = band[:, pad : pad + 1]
        band[:, pad + width :] = band[:, pad + width - 1 : pad + width]
        yield top, rows, band
