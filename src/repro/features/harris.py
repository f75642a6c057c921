"""Harris corner response.

The FAST Detection module computes a Harris score for every detected FAST
keypoint; the Heap later keeps only the ``N`` best-scoring features.  The
Harris response of a pixel is

    R = det(M) - k * trace(M)^2

where ``M`` is the second-moment matrix of image gradients accumulated over a
small window around the pixel.
"""

from __future__ import annotations

from typing import Tuple

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
    only over the bounding box of the requested windows, one band of
    :data:`HARRIS_BAND_ROWS` point rows at a time; the box is
    edge-replicated only where it leaves the level (pixels for the Sobel
    taps, gradients for the windows, as :func:`harris_response_map` pads
    them).  The ``window x window`` sums are formed with exact sliding adds
    down and across the band (:func:`_flat_window_sums`) and read at the
    band's points.  This is exact: |gradient| <= 4*255, so a
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
    # bands of point rows need the points in row order (raster input already is)
    order = None if np.all(ys[1:] >= ys[:-1]) else np.argsort(ys, kind="stable")
    if order is not None:
        xs, ys = xs[order], ys[order]
    x_min = int(xs.min())
    # the window columns, [left, right)
    left, right = x_min - block_radius, int(xs.max()) + block_radius + 1
    sums = np.empty((3, xs.size), dtype)
    tops = np.arange(int(ys[0]), int(ys[-1]) + 1, HARRIS_BAND_ROWS)
    starts = np.searchsorted(ys, tops).tolist() + [xs.size]
    for top, start, stop in zip(tops.tolist(), starts[:-1], starts[1:]):
        if start == stop:
            continue
        # the gradient rows under the windows of point rows top .. last
        last = int(ys[stop - 1])
        products, stride = _band_products(
            image.pixels, top - block_radius, last + block_radius + 1, left, right, dtype
        )
        band_sums = _flat_window_sums(_flat_window_sums(products, window, stride), window, 1)
        # the window whose top-left gradient is (row r, column c) of the
        # band is centred on level point (top + r, x_min + c)
        corners = (ys[start:stop] - top) * stride + xs[start:stop] - x_min
        sums[:, start:stop] = band_sums[:, corners]
    sxx, syy, sxy = sums.astype(np.float64)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    scores = det - k * trace * trace
    if order is None:
        return scores
    result = np.empty_like(scores)
    result[order] = scores
    return result


def _band_products(
    pixels: np.ndarray, top: int, bottom: int, left: int, right: int, dtype
) -> Tuple[np.ndarray, int]:
    """The three Sobel products over the level rows ``[top, bottom)`` and
    columns ``[left, right)``, edge-replicated outside the level.

    Returns ``(products, stride)``: ``products[i]`` is a flat row-major grid
    of ``stride`` columns whose first ``right - left`` hold the box; any
    further columns hold values no window of the box reads.  Every step is
    a contiguous 1-D operation on the flat arrays, which numpy runs without
    a per-row loop.
    """
    height, width = pixels.shape
    inner_top, inner_bottom = max(top, 0), min(bottom, height)
    inner_left, inner_right = max(left, 0), min(right, width)
    # separable Sobel over the in-level part of the box, same integers as
    # sobel_gradients: gx from vertically smoothed rows, gy from
    # horizontally smoothed ones, on the flat pixel crop of row stride
    # ``stride``; gradient (r, c) lands at flat r * stride + c
    crop = _edge_crop(
        pixels, inner_top - 1, inner_bottom + 1, inner_left - 1, inner_right + 1
    ).astype(dtype)
    stride = crop.shape[1]
    flat = crop.reshape(-1)
    size = flat.size
    smoothed = flat[stride : size - stride] + flat[stride : size - stride]
    smoothed += flat[: size - 2 * stride]
    smoothed += flat[2 * stride :]
    gx = smoothed[2:] - smoothed[:-2]
    smoothed = flat[1 : size - 1] + flat[1 : size - 1]
    smoothed += flat[: size - 2]
    smoothed += flat[2:]
    gy = smoothed[2 * stride :] - smoothed[: -2 * stride]
    if (top, bottom, left, right) != (inner_top, inner_bottom, inner_left, inner_right):
        # products of replicated gradients are the reference's replicated products
        box = (top - inner_top, bottom - inner_top, left - inner_left, right - inner_left)
        rows = inner_bottom - inner_top
        gx, gy = (
            _edge_crop(
                np.append(gradient, np.zeros(2, dtype)).reshape(rows, stride)[
                    :, : inner_right - inner_left
                ],
                *box,
            ).reshape(-1)
            for gradient in (gx, gy)
        )
        stride = right - left
    products = np.empty((3, gx.size), dtype)
    np.multiply(gx, gx, out=products[0])
    np.multiply(gy, gy, out=products[1])
    np.multiply(gx, gy, out=products[2])
    return products, stride


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
    sums = _flat_window_sums(np.moveaxis(values, axis, -1), window, 1)
    return np.moveaxis(sums, -1, axis)


def _flat_window_sums(values: np.ndarray, window: int, step: int) -> np.ndarray:
    """``out[..., i] = sum(values[..., i + j * step] for j < window)`` along
    the last axis, for every ``i`` that keeps the whole window inside it.

    ``step`` 1 sums along a flat row-major grid's rows and its row stride
    sums down its columns; see :func:`window_sums` for the doubling runs.
    """
    count = values.shape[-1] - (window - 1) * step
    runs, run_length = values, 1  # runs[..., i]: entries i, i + step, ... (run_length of them)
    total, covered = None, 0  # total[..., i]: the first ``covered`` entries of window i
    while True:
        if window & run_length:
            part = runs[..., covered * step : covered * step + count]
            total = part if total is None else total + part
            covered += run_length
        if 2 * run_length > window:
            return total
        runs = runs[..., : -run_length * step] + runs[..., run_length * step :]
        run_length *= 2
