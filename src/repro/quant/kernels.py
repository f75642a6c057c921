"""Quantized arithmetic kernels of the FPGA datapath.

Each kernel is the *single* definition of one piece of the accelerator's
fixed-point arithmetic, exposed in two call styles:

* a **scalar / per-window** form, consumed by the hardware datapath units in
  :mod:`repro.hw.orb_extractor.units` (one 7x7 window, one patch, one
  feature at a time — the granularity of the streaming hardware);
* a **batched** form, consumed by the ``hwexact`` engine
  (:mod:`repro.engines.hwexact`) which runs whole pyramid levels through
  numpy.

Every quantity is an integer (or an exactly-representable float64) at every
step, so the two call styles are bit-identical by arithmetic — not merely by
testing — and ``tests/test_hwexact_parity.py`` pins the equivalence down at
the kernel level and end to end.

The quantisation choices model the paper's datapath:

* **Harris** uses doubled central-difference gradients inside the 7x7 window
  (no ``/2``, so gradients stay integral) accumulated in integer registers.
  With doubled gradients the moment sums scale by 4 and the determinant by
  16; the sensitivity constant ``k = 0.04`` is stored as the Q0.7 constant
  ``HARRIS_K_FIXED / 2**HARRIS_K_FRACTION_BITS = 5/128``, and the final
  score is rescaled by an arithmetic right shift and saturated to the
  24-bit :data:`~repro.quant.formats.HARRIS_SCORE_FORMAT`.
* **Smoothing** multiplies by the 8-bit fixed-point Gaussian kernel (weights
  summing to exactly ``2**SMOOTHER_WEIGHT_BITS``) and truncates with a
  right shift — a DSP multiply-accumulate plus wire shift.
* **Orientation** forms the intensity-centroid ratio ``v/u`` in the Q6.10
  :data:`~repro.quant.formats.ORIENTATION_RATIO_FORMAT` and resolves the
  32-way label from the quantized ratio plus sign bits (the LUT comparison
  tree), never evaluating ``atan2``.
* **RS-BRIEF** evaluates the 256 fixed test pairs on the quantized-smoothed
  patch and packs bits LSB-first (bit ``i`` into byte ``i // 8``), the exact
  layout of the hardware BRIEF Computing unit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import HardwareModelError
from ..features.harris import HARRIS_BAND_ROWS, window_sums
from ..features.orientation import (
    NUM_ORIENTATION_BINS,
    intensity_centroid,
    orientation_lut_labels,
)
from ..image import GrayImage
from ..image.filters import SMOOTHING_BAND_ROWS, edge_padded_bands, gaussian_kernel_2d
from .formats import HARRIS_SCORE_FORMAT, ORIENTATION_RATIO_FORMAT

#: Fraction bits of the fixed-point Harris sensitivity constant ``k``.
HARRIS_K_FRACTION_BITS: int = 7
#: ``round(0.04 * 2**7)``: the Q0.7 representation of ``k`` (5/128).
HARRIS_K_FIXED: int = 5
#: Right shift rescaling the raw integer response into the 24-bit score
#: register.  The worst-case accumulator magnitude over a 7x7 window of
#: 8-bit pixels is ``det16 * 2**7 + 5 * trace4**2 < 2**50`` (doubled
#: gradients bound ``|gx2| <= 255``, so the moment sums stay below
#: ``35 * 255**2``), so shifting by 26 provably fits
#: :data:`~repro.quant.formats.HARRIS_SCORE_FORMAT` without saturating —
#: the score register never clips, it only loses low-order bits.
HARRIS_SCORE_SHIFT: int = 26
#: Half-size of the Harris accumulation window (7x7 window).
HARRIS_WINDOW_RADIUS: int = 3
#: Fraction bits of the quantized Gaussian smoother weights.
SMOOTHER_WEIGHT_BITS: int = 8


@contextmanager
def quantization_overrides(
    harris_score_shift: int | None = None,
    orientation_ratio_format=None,
):
    """Temporarily rebind the datapath's register-width choices.

    Sensitivity sweeps (``benchmarks/bench_quant_sensitivity.py`` via
    :func:`repro.analysis.run_quantization_divergence`) need to ask "what if
    the hardware spent more/fewer bits here?" without forking the kernels.
    Within the ``with`` block every kernel call — scalar hardware units and
    batched ``hwexact`` engines alike — sees the overridden
    :data:`HARRIS_SCORE_SHIFT` and/or ``ORIENTATION_RATIO_FORMAT``; the
    defaults are restored on exit even if the body raises.

    Only kernel *calls* inside the block are affected: the overrides patch
    this module's globals, so values imported into other namespaces
    beforehand (e.g. ``repro.quant.HARRIS_SCORE_SHIFT``) keep reporting the
    defaults.  Worker processes of :class:`repro.cluster.ClusterServer`
    do not inherit overrides applied after they were spawned; sweeps run
    extraction in-process.
    """
    from .formats import FixedPointFormat

    overrides: dict = {}
    if harris_score_shift is not None:
        shift = int(harris_score_shift)
        if shift < 0:
            raise HardwareModelError("harris_score_shift must be non-negative")
        overrides["HARRIS_SCORE_SHIFT"] = shift
    if orientation_ratio_format is not None:
        if not isinstance(orientation_ratio_format, FixedPointFormat):
            raise HardwareModelError(
                "orientation_ratio_format must be a FixedPointFormat"
            )
        overrides["ORIENTATION_RATIO_FORMAT"] = orientation_ratio_format
    saved = {name: globals()[name] for name in overrides}
    globals().update(overrides)
    try:
        yield
    finally:
        globals().update(saved)


# ---------------------------------------------------------------------------
# Gaussian smoothing (8-bit fixed-point weights)
# ---------------------------------------------------------------------------
def quantize_gaussian_kernel(
    size: int = 7, sigma: float = 2.0, weight_bits: int = SMOOTHER_WEIGHT_BITS
) -> np.ndarray:
    """Quantize the 2-D Gaussian kernel to ``weight_bits`` fixed-point weights.

    The weights are rounded to ``weight_bits`` fractional bits and the centre
    tap absorbs the rounding deficit so the quantized kernel sums to exactly
    ``2**weight_bits`` (a constant window stays constant after the shift).
    """
    if weight_bits <= 0:
        raise HardwareModelError("weight_bits must be positive")
    kernel = gaussian_kernel_2d(size, sigma)
    scale = 2**weight_bits
    quantized = np.rint(kernel * scale).astype(np.int64)
    deficit = scale - int(quantized.sum())
    quantized[size // 2, size // 2] += deficit
    return quantized


def smooth_window_quantized(
    window: np.ndarray, kernel_fixed: np.ndarray, weight_bits: int = SMOOTHER_WEIGHT_BITS
) -> int:
    """Smoothed centre pixel of one window (the hardware MAC + shift)."""
    window = np.asarray(window, dtype=np.int64)
    if window.shape != kernel_fixed.shape:
        raise HardwareModelError(
            f"smoother window must be {kernel_fixed.shape[0]}x{kernel_fixed.shape[1]}"
        )
    accumulator = int((window * kernel_fixed).sum())
    return int(np.clip(accumulator >> weight_bits, 0, 255))


def smooth_image_quantized(
    image: GrayImage, kernel_fixed: np.ndarray, weight_bits: int = SMOOTHER_WEIGHT_BITS
) -> GrayImage:
    """Whole-image form of :func:`smooth_window_quantized`.

    Pure integer accumulation, so each interior pixel equals the per-window
    kernel exactly; borders replicate edges, matching a hardware line buffer
    that clamps addresses at image edges.  The image runs in bands of rows
    (:func:`~repro.image.filters.edge_padded_bands`); per band the taps that
    share a weight are summed first and multiplied once (the default
    Gaussian has 9 distinct weights over its 49 taps).  Weights must be
    non-negative, so no partial sum exceeds ``255 * sum(weights)`` and the
    accumulator is the narrowest unsigned type that holds that bound:
    uint16 for the default kernel, which sums to ``2**8``.
    """
    kernel_fixed = np.asarray(kernel_fixed, dtype=np.int64)
    if (kernel_fixed < 0).any():
        raise HardwareModelError("smoother weights must be non-negative")
    dtype = np.min_scalar_type(255 * int(kernel_fixed.sum()))
    half = kernel_fixed.shape[0] // 2
    taps_by_weight = [
        (dtype.type(weight), np.argwhere(kernel_fixed == weight))
        for weight in np.unique(kernel_fixed)
        if weight
    ]
    height, width = image.shape
    result = np.empty((height, width), dtype=np.uint8)
    accumulator, group = np.empty((2, min(height, SMOOTHING_BAND_ROWS), width), dtype=dtype)
    for top, rows, band in edge_padded_bands(image.pixels, half, dtype):
        accumulator[:rows] = 0
        for weight, taps in taps_by_weight:
            (row, col), rest = taps[0], taps[1:]
            np.copyto(group[:rows], band[row : row + rows, col : col + width])
            for row, col in rest:
                group[:rows] += band[row : row + rows, col : col + width]
            group[:rows] *= weight
            accumulator[:rows] += group[:rows]
        accumulator[:rows] >>= weight_bits
        result[top : top + rows] = np.minimum(accumulator[:rows], 255)
    return GrayImage(result)


# ---------------------------------------------------------------------------
# Harris response (integer accumulators)
# ---------------------------------------------------------------------------
def harris_window_score_quantized(window: np.ndarray) -> int:
    """Quantized Harris response of one 7x7 window (integer accumulators).

    Doubled central-difference gradients are accumulated into the integer
    second-moment sums; the score is rescaled by :data:`HARRIS_SCORE_SHIFT`
    and saturated to :data:`~repro.quant.formats.HARRIS_SCORE_FORMAT`.
    """
    window = np.asarray(window, dtype=np.int64)
    side = 2 * HARRIS_WINDOW_RADIUS + 1
    if window.shape != (side, side):
        raise HardwareModelError(f"Harris window must be {side}x{side}")
    gx2 = np.zeros_like(window)
    gy2 = np.zeros_like(window)
    gx2[:, 1:-1] = window[:, 2:] - window[:, :-2]
    gy2[1:-1, :] = window[2:, :] - window[:-2, :]
    sxx = int((gx2 * gx2).sum())
    syy = int((gy2 * gy2).sum())
    sxy = int((gx2 * gy2).sum())
    det16 = sxx * syy - sxy * sxy
    trace4 = sxx + syy
    raw = (det16 << HARRIS_K_FRACTION_BITS) - HARRIS_K_FIXED * trace4 * trace4
    return int(HARRIS_SCORE_FORMAT.saturate_integer(raw >> HARRIS_SCORE_SHIFT))


def harris_scores_quantized(image: GrayImage, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Batched :func:`harris_window_score_quantized` at ``(xs, ys)``.

    The moment sums are formed only over the bounding box of the requested
    windows, one band of :data:`~repro.features.harris.HARRIS_BAND_ROWS`
    rows at a time, by exact sliding adds
    (:func:`~repro.features.harris.window_sums`), and read at the points.
    The window-edge zeroing of the per-window gradients is reproduced by
    the asymmetric spans: ``gx`` is undefined on the window's first/last
    *column* (so its sum spans 7 rows x 5 cols), ``gy`` on the first/last
    *row* (5 x 7), and their product only where both exist (5 x 5).  A
    doubled gradient is at most 255 in magnitude, so a 35-term sum of
    products stays below 2**31 and the int32 sums are exact; the score is
    then formed in int64, landing on exactly the accumulator values the
    per-window form computes.  Points must keep the full 7x7 window inside
    the image.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise HardwareModelError("xs and ys must be matching 1-D arrays")
    if xs.size == 0:
        return np.zeros(0, dtype=np.int64)
    height, width = image.shape
    radius = HARRIS_WINDOW_RADIUS
    if (
        int(xs.min()) < radius
        or int(xs.max()) >= width - radius
        or int(ys.min()) < radius
        or int(ys.max()) >= height - radius
    ):
        raise HardwareModelError(
            f"Harris window of radius {radius} exceeds image bounds for some points"
        )
    side, inner = 2 * radius + 1, 2 * radius - 1
    x_min, y_min = int(xs.min()), int(ys.min())
    left, right = x_min - radius, int(xs.max()) + radius + 1
    sums = np.empty((3, int(ys.max()) - y_min + 1, right - left - side + 1), np.int32)
    for start in range(0, sums.shape[1], HARRIS_BAND_ROWS):
        stop = min(start + HARRIS_BAND_ROWS, sums.shape[1])
        # the level rows under the windows centred on rows y_min + [start, stop)
        top = y_min - radius + start
        band = image.pixels[top : top + stop - start + side - 1, left:right].astype(np.int32)
        gx2 = band[:, 2:] - band[:, :-2]  # columns left+1 .. right-2
        gy2 = band[2:] - band[:-2]  # rows top+1 .. bottom-2
        sums[0, start:stop] = window_sums(window_sums(gx2 * gx2, side, 0), inner, 1)
        sums[1, start:stop] = window_sums(window_sums(gy2 * gy2, inner, 0), side, 1)
        sums[2, start:stop] = window_sums(
            window_sums(gx2[1:-1] * gy2[:, 1:-1], inner, 0), inner, 1
        )
    sxx, syy, sxy = sums[:, ys - y_min, xs - x_min].astype(np.int64)
    det16 = sxx * syy - sxy * sxy
    trace4 = sxx + syy
    raw = (det16 << HARRIS_K_FRACTION_BITS) - HARRIS_K_FIXED * trace4 * trace4
    return HARRIS_SCORE_FORMAT.saturate_integer(raw >> HARRIS_SCORE_SHIFT)


# ---------------------------------------------------------------------------
# Orientation (quantized v/u ratio + LUT label)
# ---------------------------------------------------------------------------
_CENTROID_TINY = 1e-12


def orientation_bins_quantized(
    us: np.ndarray, vs: np.ndarray, num_bins: int = NUM_ORIENTATION_BINS
) -> np.ndarray:
    """Discrete orientation labels from centroid offsets, hardware-style.

    The centroid ratio ``v/u`` is quantized to the Q6.10
    :data:`~repro.quant.formats.ORIENTATION_RATIO_FORMAT` before the LUT
    lookup, which is the only place the fixed-point datapath can diverge
    from the float software orientation (by at most one bin, rarely).
    """
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    u_big = np.abs(us) > _CENTROID_TINY
    safe_u = np.where(u_big, us, 1.0)
    ratio = ORIENTATION_RATIO_FORMAT.quantize(np.where(u_big, vs / safe_u, 0.0))
    v_quantized = np.where(u_big, ratio * us, vs)
    labels = orientation_lut_labels(us, v_quantized, num_bins)
    both_tiny = (np.abs(us) < _CENTROID_TINY) & (np.abs(vs) < _CENTROID_TINY)
    return np.where(both_tiny, 0, labels).astype(np.int64)


def orientation_bin_from_patch_quantized(
    patch: np.ndarray, num_bins: int = NUM_ORIENTATION_BINS
) -> int:
    """Per-patch form of :func:`orientation_bins_quantized` (hardware unit path)."""
    u, v = intensity_centroid(np.asarray(patch, dtype=np.float64))
    return int(orientation_bins_quantized(np.array([u]), np.array([v]), num_bins)[0])


# ---------------------------------------------------------------------------
# RS-BRIEF bit evaluation
# ---------------------------------------------------------------------------
def brief_descriptor_from_patch(
    patch: np.ndarray, s_int: np.ndarray, d_int: np.ndarray
) -> np.ndarray:
    """Unrotated descriptor bytes from a smoothed patch (hardware bit order).

    Evaluates the rounded test locations against the patch centre and packs
    bit ``i`` into byte ``i // 8`` LSB-first, exactly as the BRIEF Computing
    unit's comparators feed its output register.
    """
    patch = np.asarray(patch, dtype=np.int64)
    if patch.ndim != 2 or patch.shape[0] != patch.shape[1] or patch.shape[0] % 2 == 0:
        raise HardwareModelError("descriptor patch must be square with odd side")
    radius = patch.shape[0] // 2
    max_offset = int(np.abs(np.concatenate([s_int, d_int])).max())
    if radius < max_offset:
        raise HardwareModelError(
            f"patch radius {radius} too small for pattern radius {max_offset}"
        )
    s_vals = patch[radius + s_int[:, 1], radius + s_int[:, 0]]
    d_vals = patch[radius + d_int[:, 1], radius + d_int[:, 0]]
    bits = (s_vals > d_vals).astype(np.uint8)
    return np.packbits(bits, bitorder="little")
