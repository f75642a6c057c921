"""The fused, batched extraction engine (default).

One pass per pyramid level with no level-sized float temporaries and no
Python-level per-keypoint work.  Every step runs on contiguous 1-D slices
of flat arrays where it can (a 2-D slice costs numpy a loop per row):

1. **FAST**: bit-sliced.  All 16 ring comparisons run on flat shifts of
   the level (ring offset ``(dx, dy)`` is the shift ``dy * width + dx``)
   against saturated uint8 thresholds, their flags are packed 8 pixels per
   byte, and one AND/OR network over the 16 packed planes
   (:func:`~repro.features.fast.segment_arc_network`) resolves the
   contiguous-arc test for both polarities — the
   combinational 7x7-window check the hardware FAST Detection module
   performs, made for every pixel of the level in one pass.
2. **Harris**: responses are computed **sparsely** — integer Sobel products
   over the bounding box of the corners' windows only, in 64-row bands,
   window sums by exact sliding adds, read at each FAST corner
   (:func:`~repro.features.harris.harris_scores_sparse`) — instead of
   scoring every pixel of the level.
3. **NMS**: a dense window max over 64-row bands with a one-row halo, then
   the raster-order tie-break among the few survivors that share a window
   (:func:`~repro.features.nms.suppress_keypoints_sparse`).
4. **Smoothing**: the separable 7x7 Gaussian in float32 over 64-row bands,
   each symmetric tap pair added before its one multiply; the few pixels
   within :data:`SMOOTHING_ROUNDING_MARGIN` of a half-integer, where the
   float32 error bound could flip the rounding, are recomputed in float64
   in ``gaussian_blur``'s tap order.
5. **Orientation**: every keypoint's intensity-centroid moments from one
   float32 matmul of its gathered patch against the masked moment weights,
   exact because every partial sum is an integer below ``2**24``
   (:func:`~repro.features.orientation.intensity_centroids`), then each
   centroid's ``atan2`` angle binned to the nearest of the 32 orientations.
6. **Description**: the base class's batched
   :meth:`~repro.engines.base.ExtractionEngine.describe` — one ``(K, 256)``
   pattern comparison, row-wise bit packing and, for RS-BRIEF, one
   byte-gather BRIEF rotation.

Every step lands on bit-identical results to the ``reference`` engine
(asserted by ``tests/test_frontend_parity.py``,
``tests/test_backends_parity.py`` and ``tests/test_kernel_properties.py``);
see the individual helpers for the exactness arguments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..features.fast import FAST_CIRCLE_OFFSETS, fast_corner_mask, segment_arc_network
from ..features.harris import harris_scores_sparse
from ..features.nms import suppress_keypoints_sparse
from ..features.orientation import compute_orientations
from ..image import GrayImage
from ..image.filters import (
    GAUSSIAN_BLUR_SIGMA,
    GAUSSIAN_BLUR_SIZE,
    SMOOTHING_BAND_ROWS,
    edge_padded_bands,
    gaussian_kernel_1d,
)
from .base import ExtractionEngine


def float32_smoothing_error_bound(kernel: np.ndarray) -> float:
    """Largest gap between the float32 banded smoother and ``gaussian_blur``.

    Both approximate the exact separable sum ``v = sum_i sum_j w_i w_j p``
    of the float64 weights ``w``; ``0 <= v <= 255 * W**2`` with ``W = sum(w)``
    because every weight and pixel is non-negative.  With unit roundoff
    ``u`` and ``gamma(n) = n*u / (1 - n*u)``, a sum of non-negative terms
    keeps a relative error of ``gamma`` of the roundings on its longest path:

    * float32, ``half = size // 2`` tap pairs plus the centre per pass: the
      horizontal pass rounds the weight, the product and at most ``half``
      additions (the pair sums of uint8 pixels are exact integers), so
      ``gamma(half + 2)``; the vertical pass adds one rounding for its pair
      sum on top of the same three, so the result carries
      ``gamma(2 * half + 5)``;
    * float64 reference, ``size`` taps per pass: a product and at most
      ``size - 1`` additions per pass (the first adds to an exact zero),
      so ``gamma(2 * size)``.

    The returned bound is ``255 * W**2`` times the sum of the two; for the
    7-tap sigma-2 kernel it is about 1.7e-4 grey levels.
    """

    def gamma(n: int, unit: float) -> float:
        return n * unit / (1.0 - n * unit)

    half = kernel.size // 2
    scale = 255.0 * float(np.sum(kernel)) ** 2
    return scale * (gamma(2 * half + 5, 2.0**-24) + gamma(2 * kernel.size, 2.0**-53))


#: Pixels whose float32 result lies within this distance of a half-integer
#: are recomputed in float64: more than 5x :data:`SMOOTHING_FLOAT32_ERROR`,
#: and it sends about 0.2% of the pixels of a natural image to the fallback.
SMOOTHING_ROUNDING_MARGIN: float = 1e-3
SMOOTHING_FLOAT32_ERROR: float = float32_smoothing_error_bound(
    gaussian_kernel_1d(GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA)
)


def _symmetric_taps(
    source: np.ndarray, weights: np.ndarray, step: int, out: np.ndarray, pair: np.ndarray
) -> None:
    """One pass of a symmetric kernel over the flat ``source`` into ``out``.

    ``out[i]`` sums the taps ``source[i + k * step]``, ``k = 0 .. 2 * half``,
    for every ``i < out.size``: ``step`` 1 runs along a row, the row stride
    runs down a column.  ``weights`` holds the outer tap pair's weight
    first and the centre's last; each pair's two inputs are added before
    the one multiply.  Every operand is a contiguous 1-D slice, which numpy
    runs without a per-row loop.
    """
    half = weights.size - 1
    count = out.size

    def taps(k: int) -> np.ndarray:
        return source[k * step : k * step + count]

    np.add(taps(0), taps(2 * half), out=out)
    out *= weights[0]
    pair = pair[:count]
    for k in range(1, half):
        np.add(taps(k), taps(2 * half - k), out=pair)
        pair *= weights[k]
        out += pair
    np.multiply(taps(half), weights[half], out=pair)
    out += pair


def _reference_pixels(
    pixels: np.ndarray, kernel: np.ndarray, ys: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """``gaussian_blur(pixels)`` at ``(ys, xs)``, in its float64 tap order.

    Each pixel's window is gathered by clamped index (the reference's edge
    padding), and each pass accumulates ``w_k * tap_k`` in ascending ``k``
    from the first product, as the rolled reference does, so every pixel
    rounds as it does there.
    """
    height, width = pixels.shape
    offsets = np.arange(kernel.size) - kernel.size // 2
    rows = np.clip(ys[:, None] + offsets, 0, height - 1)
    cols = np.clip(xs[:, None] + offsets, 0, width - 1)
    patches = pixels[rows[:, :, None], cols[:, None, :]].astype(np.float64)
    horizontal = patches[:, :, 0] * kernel[0]
    for k in range(1, kernel.size):
        horizontal += patches[:, :, k] * kernel[k]
    vertical = horizontal[:, 0] * kernel[0]
    for k in range(1, kernel.size):
        vertical += horizontal[:, k] * kernel[k]
    return np.clip(np.rint(vertical), 0, 255)


class VectorizedEngine(ExtractionEngine):
    """Bit-sliced FAST, sparse Harris and NMS, banded smoothing, batched
    orientation and description."""

    name = "vectorized"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._kernel = gaussian_kernel_1d(GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA)

    # -- detection ---------------------------------------------------------
    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        xs, ys = self._fast_corners(level_image)
        corners_detected = int(xs.size)
        if corners_detected == 0:
            return xs, ys, np.zeros(0, dtype=np.float64), 0
        xs, ys, scores = self._score(level_image, xs, ys)
        keep = suppress_keypoints_sparse(xs, ys, scores, level_image.shape, radius=1)
        return xs[keep], ys[keep], scores[keep], corners_detected

    def _score(
        self, image: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(xs, ys, scores)`` of the FAST corners that go on to NMS."""
        return xs, ys, harris_scores_sparse(image, xs, ys)

    def _fast_corners(self, image: GrayImage) -> Tuple[np.ndarray, np.ndarray]:
        """FAST corners inside the border box, raster order, bit-sliced.

        Each of the 16 ring offsets is compared at once against every centre
        of the inner rows, as contiguous 1-D slices of the flat level (a
        ring offset ``(dx, dy)`` is the flat shift ``dy * width + dx``)
        against saturated uint8 thresholds, and the flags are packed 8
        pixels per byte.  The arc test then runs as one AND/OR network over
        the 16 packed planes (:func:`segment_arc_network`), both polarities
        stacked.  Centres in the border columns are
        compared across the row ends and dropped afterwards; every centre
        kept is decided by the reference comparisons.
        """
        cfg = self.config.fast
        height, width = image.shape
        border = cfg.border
        if height < 2 * border + 1 or width < 2 * border + 1:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if border < 3:
            # the rolled reference lets ring comparisons wrap around inside a
            # <3px border; keep those exact semantics via the dense path
            ys, xs = np.nonzero(fast_corner_mask(image, cfg))
            return xs.astype(np.int64), ys.astype(np.int64)
        pixels = image.pixels.reshape(-1)
        # flat centres from (border, border) to (height - border - 1,
        # width - border - 1); a ring pixel of any of them stays in the level
        first = border * (width + 1)
        count = (height - 2 * border) * width - 2 * border
        centre = pixels[first : first + count]
        # saturated uint8 thresholds are exact: a uint8 ring value can never
        # exceed a clipped-high 255 or undercut a clipped-low 0, matching the
        # int16 comparisons of the reference for out-of-range thresholds
        # (np.clip keeps numpy's SIMD loop, which np.minimum with a scalar
        # operand does not)
        threshold = min(cfg.threshold, 255)
        high = np.clip(centre, 0, 255 - threshold)
        high += np.uint8(threshold)
        low = np.clip(centre, threshold, 255)
        low -= np.uint8(threshold)
        flags = np.empty(count, dtype=bool)
        planes = np.empty((16, 2, (count + 7) // 8), dtype=np.uint8)
        for index, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
            ring = pixels[first + dy * width + dx : first + dy * width + dx + count]
            planes[index, 0] = np.packbits(np.greater(ring, high, out=flags))
            planes[index, 1] = np.packbits(np.less(ring, low, out=flags))
        arcs = segment_arc_network(planes, cfg.arc_length)
        corners = np.unpackbits(arcs[0] | arcs[1], count=count)
        ys, xs = np.divmod(np.flatnonzero(corners.view(bool)) + first, width)
        inside = (xs >= border) & (xs < width - border)
        return xs[inside], ys[inside]

    # -- smoothing ---------------------------------------------------------
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Separable Gaussian in float32 bands; bit-identical to gaussian_blur.

        Each band of 64 output rows comes with the ``2 * half`` edge-padded
        rows around it (:func:`~repro.image.filters.edge_padded_bands`), as
        float32.  The kernel is bitwise symmetric (``exp(-x*x / 2s^2)`` of
        ``x`` and ``-x`` are one value), so each pass adds the two pixels of
        a tap pair first and multiplies once: 4 multiplies instead of 7.
        The result is within :data:`SMOOTHING_FLOAT32_ERROR` of the float64
        reference (see :func:`float32_smoothing_error_bound`), so it rounds
        to the same integer unless it lies within
        :data:`SMOOTHING_ROUNDING_MARGIN` of a half-integer; those few
        pixels are recomputed in float64 in ``gaussian_blur``'s tap order
        (:func:`_reference_pixels`).  Only band-sized buffers are allocated.
        """
        kernel = self._kernel
        half = kernel.size // 2
        height, width = level_image.shape
        weights = kernel[: half + 1].astype(np.float32)  # outer pair first
        # each pass runs on the flat band: an output row then spans a whole
        # padded row, whose last 2 * half entries are never read back
        stride = width + 2 * half
        band_rows = min(SMOOTHING_BAND_ROWS, height)
        horizontal = np.empty((band_rows + 2 * half) * stride, dtype=np.float32)
        pair = np.empty_like(horizontal)
        output = np.empty(band_rows * stride, dtype=np.float32)
        rounded = np.empty_like(output)
        result = np.empty((height, width), dtype=np.uint8)
        near = []
        for top, rows, band in edge_padded_bands(level_image.pixels, half, np.float32):
            across = (rows + 2 * half) * stride - 2 * half
            down = rows * stride - 2 * half
            _symmetric_taps(band.reshape(-1), weights, 1, horizontal[:across], pair)
            _symmetric_taps(horizontal, weights, stride, output[:down], pair)
            # every weight and pixel is non-negative and the weights sum to
            # 1, so the result rounds into 0 .. 255 without a clip
            np.rint(output[:down], out=rounded[:down])
            result[top : top + rows] = rounded.reshape(-1, stride)[:rows, :width]
            # the output is within the error bound, less than the margin, of
            # the reference: a pixel farther than the margin from a
            # half-integer rounds as the reference does
            np.subtract(output[:down], rounded[:down], out=output[:down])
            np.abs(output[:down], out=output[:down])
            near_half = output[:down] > 0.5 - SMOOTHING_ROUNDING_MARGIN
            near.append(top * stride + np.flatnonzero(near_half))
        ys, xs = np.divmod(np.concatenate(near), stride)
        inside = xs < width
        ys, xs = ys[inside], xs[inside]
        result[ys, xs] = _reference_pixels(level_image.pixels, kernel, ys, xs)
        return GrayImage(result)

    # -- orientation -------------------------------------------------------
    def orient(
        self, smoothed: GrayImage, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return compute_orientations(smoothed, xs, ys, radius=self.grid.radius, grid=self.grid)
