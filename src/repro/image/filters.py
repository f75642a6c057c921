"""Image smoothing filters.

The ORB Extractor applies a Gaussian blur to a 7x7 neighbourhood before the
BRIEF tests are evaluated (the *Image Smoother* module in Figure 4 of the
paper).  This module provides the separable Gaussian kernel used both by the
software pipeline and by the hardware model, plus a simple box blur used by
tests as a cheap reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import ImageError
from .image import GrayImage

#: The ORB pre-descriptor smoother: a 7x7 Gaussian with sigma 2.  Shared by
#: :func:`gaussian_blur` and the extraction engines (:mod:`repro.engines`)
#: so the dense and fused smoothing paths cannot silently diverge.
GAUSSIAN_BLUR_SIZE: int = 7
GAUSSIAN_BLUR_SIGMA: float = 2.0


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


def box_blur(image: GrayImage, size: int = 3) -> GrayImage:
    """Return a box-blurred copy of ``image`` (uniform kernel)."""
    if size <= 0 or size % 2 == 0:
        raise ImageError("kernel size must be a positive odd integer")
    kernel = np.full(size, 1.0 / size)
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


def edge_pad_into(source: np.ndarray, pad: int, out: np.ndarray) -> np.ndarray:
    """Edge-replicated padding written into a preallocated buffer.

    Produces exactly ``np.pad(source, pad, mode="edge")`` (values only —
    ``out`` may be a wider dtype, matching how the reference pipeline casts
    before padding).  ``out`` must have shape ``(h + 2*pad, w + 2*pad)``.
    """
    h, w = source.shape
    out[pad : pad + h, pad : pad + w] = source
    if pad:
        out[pad : pad + h, :pad] = out[pad : pad + h, pad : pad + 1]
        out[pad : pad + h, pad + w :] = out[pad : pad + h, pad + w - 1 : pad + w]
        out[:pad, :] = out[pad : pad + 1, :]
        out[pad + h :, :] = out[pad + h - 1 : pad + h, :]
    return out
