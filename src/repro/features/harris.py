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
from ..image.filters import sobel_gradients

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


#: Largest |Sobel product|: every gradient is at most 4*255 in magnitude.
_MAX_GRADIENT_PRODUCT: int = (4 * 255) ** 2
#: Rows of window sums formed per band.  Level-sized temporaries are
#: page-faulted afresh on every call (about 4,000 faults per VGA level);
#: band-sized ones are reused, which made the level-0 call 16 -> 6 ms.
HARRIS_BAND_ROWS: int = 64


def harris_scores_sparse(
    image: GrayImage,
    xs: np.ndarray,
    ys: np.ndarray,
    k: float = HARRIS_K,
    block_radius: int = HARRIS_BLOCK_RADIUS,
) -> np.ndarray:
    """Harris responses gathered only at ``(xs, ys)``, bit-identical to the map.

    Sobel gradients and their three products are computed in integers, and
    only over the bounding box of the requested windows, one band of rows at
    a time; the box is edge-replicated only where it leaves the level
    (pixels for the Sobel taps, gradients for the windows, as
    :func:`harris_response_map` pads them).  The ``window x window`` sums of
    every box position are formed with exact sliding adds on both axes
    (:func:`window_sums`) and read at the requested points.  This is exact: |gradient| <= 4*255, so a
    product is at most (4*255)**2 and a 7x7 window sum at most
    49*(4*255)**2 < 2**31, and the int32 sums never wrap (windows wider
    than 45 sum in int64).  The float64 reference pipeline produces the same
    integers, all far below 2**53, so it never rounds before the final
    ``det - k*trace**2``, which is evaluated here with the reference's
    float64 expression, making the result bit-identical to
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
    dtype = np.int32 if window * window * _MAX_GRADIENT_PRODUCT < 2**31 else np.int64
    x_min, y_min = int(xs.min()), int(ys.min())
    # the window box, [top, bottom) x [left, right)
    top, bottom = y_min - block_radius, int(ys.max()) + block_radius + 1
    left, right = x_min - block_radius, int(xs.max()) + block_radius + 1
    sums = np.empty((3, bottom - top - window + 1, right - left - window + 1), dtype)
    for start in range(0, sums.shape[1], HARRIS_BAND_ROWS):
        stop = min(start + HARRIS_BAND_ROWS, sums.shape[1])
        sums[:, start:stop] = _band_window_sums(
            image.pixels, top + start, top + stop + window - 1, left, right, window, dtype
        )
    sxx, syy, sxy = sums[:, ys - y_min, xs - x_min].astype(np.float64)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


def _band_window_sums(
    pixels: np.ndarray, top: int, bottom: int, left: int, right: int, window: int, dtype
) -> np.ndarray:
    """``window x window`` sums of the three Sobel products over the level
    rows ``[top, bottom)`` and columns ``[left, right)``, edge-replicated
    outside the level."""
    height, width = pixels.shape
    inner_top, inner_bottom = max(top, 0), min(bottom, height)
    inner_left, inner_right = max(left, 0), min(right, width)
    # separable Sobel over the in-level part of the box, same integers as
    # sobel_gradients: gx from vertically smoothed rows, gy from horizontally
    # smoothed columns
    pixels = _edge_crop(
        pixels, inner_top - 1, inner_bottom + 1, inner_left - 1, inner_right + 1
    ).astype(dtype)
    rows = pixels[:-2] + 2 * pixels[1:-1] + pixels[2:]
    cols = pixels[:, :-2] + 2 * pixels[:, 1:-1] + pixels[:, 2:]
    # products of replicated gradients are the reference's replicated products
    box = (top - inner_top, bottom - inner_top, left - inner_left, right - inner_left)
    gx = _edge_crop(rows[:, 2:] - rows[:, :-2], *box)
    gy = _edge_crop(cols[2:] - cols[:-2], *box)
    products = np.empty((3,) + gx.shape, dtype)
    np.multiply(gx, gx, out=products[0])
    np.multiply(gy, gy, out=products[1])
    np.multiply(gx, gy, out=products[2])
    return window_sums(window_sums(products, window, axis=1), window, axis=2)


def _edge_crop(values: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """``values[top:bottom, left:right]`` with rows and columns outside
    ``values`` replicated from its edges (``np.pad(..., mode="edge")``)."""
    height, width = values.shape
    crop = values[max(top, 0) : min(bottom, height), max(left, 0) : min(right, width)]
    pad = (
        (max(-top, 0), max(bottom - height, 0)),
        (max(-left, 0), max(right - width, 0)),
    )
    if any(pad[0] + pad[1]):
        crop = np.pad(crop, pad, mode="edge")
    return crop


def window_sums(values: np.ndarray, window: int, axis: int) -> np.ndarray:
    """Sum of every ``window`` consecutive entries of ``values`` along ``axis``.

    Runs of doubling length are added pairwise (``s2 = a[:-1] + a[1:]``,
    ``s4 = s2[:-2] + s2[2:]``) and the binary decomposition of ``window``
    chains them (``s7 = s4[:-3] + s2[4:-1] + a[6:]`` after aligning the
    starts), so a window costs about ``2 * log2(window)`` whole-array adds and
    integer inputs sum exactly.
    """
    runs = np.moveaxis(values, axis, 0)  # runs[i]: sum of entries i .. i + run_length - 1
    run_length, count = 1, runs.shape[0] - window + 1
    total, covered = None, 0  # total[i]: sum of entries i .. i + covered - 1
    while True:
        if window & run_length:
            part = runs[covered : covered + count]
            total = part if total is None else total + part
            covered += run_length
        if 2 * run_length > window:
            return np.moveaxis(total, 0, axis)
        runs = runs[:-run_length] + runs[run_length:]
        run_length *= 2


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
