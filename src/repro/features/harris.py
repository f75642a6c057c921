"""Harris corner response.

The FAST Detection module computes a Harris score for every detected FAST
keypoint; the Heap later keeps only the ``N`` best-scoring features.  The
Harris response of a pixel is

    R = det(M) - k * trace(M)^2

where ``M`` is the second-moment matrix of image gradients accumulated over a
small window around the pixel.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..errors import FeatureError
from ..image import GrayImage
from ..image.filters import edge_pad_into, sobel_gradients

#: Standard Harris sensitivity constant.
HARRIS_K: float = 0.04
#: Half-size of the accumulation window (7x7 window -> block_radius = 3),
#: matching the 7x7 pixel patch the hardware FAST/Harris unit consumes.
HARRIS_BLOCK_RADIUS: int = 3


def harris_response_map(
    image: GrayImage, k: float = HARRIS_K, block_radius: int = HARRIS_BLOCK_RADIUS
) -> np.ndarray:
    """Return the Harris response for every pixel of ``image``.

    The result is a float64 array of the same shape.  Values near the border
    (within ``block_radius + 1``) are valid but accumulated over a clipped
    window, exactly like a hardware window that clamps at image edges.
    """
    if block_radius < 1:
        raise FeatureError("block_radius must be >= 1")
    gx, gy = sobel_gradients(image)
    ixx = gx * gx
    iyy = gy * gy
    ixy = gx * gy
    window = 2 * block_radius + 1
    sxx = _box_filter(ixx, window)
    syy = _box_filter(iyy, window)
    sxy = _box_filter(ixy, window)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


def _box_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Sum ``values`` over a ``window x window`` neighbourhood (edge-replicated)."""
    half = window // 2
    padded = np.pad(values, half, mode="edge")
    integral = np.zeros(
        (padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.float64
    )
    integral[1:, 1:] = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    h, w = values.shape
    top = integral[:h, :w]
    bottom = integral[window : window + h, window : window + w]
    right = integral[:h, window : window + w]
    left = integral[window : window + h, :w]
    return bottom - right - left + top


def harris_scores_sparse(
    image: GrayImage,
    xs: np.ndarray,
    ys: np.ndarray,
    k: float = HARRIS_K,
    block_radius: int = HARRIS_BLOCK_RADIUS,
) -> np.ndarray:
    """Harris responses gathered only at ``(xs, ys)``, bit-identical to the map.

    Avoids materialising the dense response: Sobel gradients and their
    products are computed once in integer arithmetic, summed into int64
    integral images, and the ``window x window`` box sums are gathered with
    four reads per point.  This is exact — every value the float64 reference
    pipeline produces up to the box sums is an integer far below 2**53
    (|gradient| <= 4*255, so products < 2**21 and whole-image integrals
    < 2**40), so its cumsums never round and the int64 path lands on the
    same numbers.  The final ``det - k*trace**2`` is then evaluated with the
    reference's float64 expression, making the result bit-identical to
    ``harris_response_map(image)[ys, xs]``.
    """
    if block_radius < 1:
        raise FeatureError("block_radius must be >= 1")
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    height, width = image.shape
    outside = (xs < 0) | (xs >= width) | (ys < 0) | (ys >= height)
    if outside.any():
        first = int(np.argmax(outside))
        raise FeatureError(
            f"point ({int(xs[first])}, {int(ys[first])}) outside image {image.shape}"
        )
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    window = 2 * block_radius + 1
    # Sobel via edge-padded integer views (same values as sobel_gradients),
    # accumulated in place; int16 holds every intermediate (|gradient| <= 4*255)
    padded = edge_pad_into(image.pixels, 1, np.empty((height + 2, width + 2), np.int16))
    top, mid, bot = padded[:-2], padded[1:-1], padded[2:]
    gx = np.empty((height, width), np.int16)
    gy = np.empty((height, width), np.int16)
    accum = np.empty((height, width), np.int16)
    # gx = (top+2*mid+bot) on the right column minus the same on the left
    np.add(top[:, 2:], bot[:, 2:], out=gx)
    np.add(gx, mid[:, 2:], out=gx)
    np.add(gx, mid[:, 2:], out=gx)
    np.add(top[:, :-2], bot[:, :-2], out=accum)
    np.add(accum, mid[:, :-2], out=accum)
    np.add(accum, mid[:, :-2], out=accum)
    gx -= accum
    # gy = (left+2*mid+right) on the bottom row minus the same on the top
    np.add(bot[:, :-2], bot[:, 2:], out=gy)
    np.add(gy, bot[:, 1:-1], out=gy)
    np.add(gy, bot[:, 1:-1], out=gy)
    np.add(top[:, :-2], top[:, 2:], out=accum)
    np.add(accum, top[:, 1:-1], out=accum)
    np.add(accum, top[:, 1:-1], out=accum)
    gy -= accum
    # edge-padded gradients; products of replicated edges == replicated
    # products, so padding the gradients once replaces three product pads
    # the pad step also widens to int32: np.multiply with int16 operands would
    # wrap in int16 before casting to an int32 out
    pad_shape = (height + 2 * block_radius, width + 2 * block_radius)
    gx_pad = edge_pad_into(gx, block_radius, np.empty(pad_shape, np.int32))
    gy_pad = edge_pad_into(gy, block_radius, np.empty(pad_shape, np.int32))
    products = np.empty((3,) + pad_shape, np.int32)
    np.multiply(gx_pad, gx_pad, out=products[0])
    np.multiply(gy_pad, gy_pad, out=products[1])
    np.multiply(gx_pad, gy_pad, out=products[2])
    # per-row prefix sums (contiguous cumsum), then a gathered difference over
    # the window rows per point — cheaper than a full 2-D integral because the
    # column accumulation is only paid at the K requested points.  Row totals
    # are bounded by pad_width * (4*255)**2, so narrow images keep the whole
    # prefix in int32 (exact either way; halves the memory traffic)
    prefix_dtype = np.int32 if (pad_shape[1] + 1) * 1_040_400 < 2**31 else np.int64
    prefix = np.empty((3, pad_shape[0], pad_shape[1] + 1), prefix_dtype)
    prefix[:, :, 0] = 0
    np.cumsum(products, axis=2, out=prefix[:, :, 1:])
    # horizontal window sums for every output column (dense subtract of two
    # prefix views), then the vertical accumulation is paid only at the K
    # requested points: one (K, window) gather per channel
    spans = np.subtract(prefix[:, :, window:], prefix[:, :, :width])
    plane = pad_shape[0] * width
    flat = spans.reshape(-1)
    gather = (ys[:, None] + np.arange(window, dtype=np.int64)[None, :]) * width + xs[:, None]
    sums = np.empty((3, xs.size), dtype=np.float64)
    for channel in range(3):
        sums[channel] = np.take(flat, gather + channel * plane).sum(axis=1)
    sxx, syy, sxy = sums[0], sums[1], sums[2]
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


def harris_scores_at(
    image: GrayImage,
    points: Iterable[tuple[int, int]],
    k: float = HARRIS_K,
    block_radius: int = HARRIS_BLOCK_RADIUS,
) -> List[float]:
    """Return Harris scores for the given ``(x, y)`` points.

    Vectorised: gathers from the sparse integral-image path instead of
    building the full response map and looping (values are bit-identical to
    ``harris_response_map(image)[y, x]``).
    """
    pairs = [(x, y) for x, y in points]
    if not pairs:
        return []
    coords = np.asarray(pairs)
    if not np.issubdtype(coords.dtype, np.integer):
        raise FeatureError("harris_scores_at expects integer pixel coordinates")
    coords = coords.astype(np.int64).reshape(-1, 2)
    scores = harris_scores_sparse(
        image, coords[:, 0], coords[:, 1], k=k, block_radius=block_radius
    )
    return scores.tolist()
