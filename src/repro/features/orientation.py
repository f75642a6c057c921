"""Feature orientation by the intensity-centroid method.

The orientation of a keypoint is the direction of the vector from the patch
centre to the intensity centroid of a circular patch around the keypoint
(equation (3) in the paper).  eSLAM discretises the orientation into 32 bins
of 11.25 degrees, matching the 32-fold symmetry of the RS-BRIEF pattern, so
that rotating the descriptor reduces to a circular shift by ``8 * bin`` bits.

The hardware Orientation Computing module avoids a full ``atan2`` by using a
lookup table on ``v/u`` together with the signs of ``u`` and ``v``; the
functionally equivalent :func:`discretize_orientation` is used both here and
by the hardware model.

Two call styles are provided.  :func:`compute_orientation` is the scalar
per-keypoint path (the reference backend).  :func:`intensity_centroids` is
the one batched centroid kernel.  Like the hardware module, which adds one
patch row per cycle, it accumulates the moments row by row: each row of the
circular patch is one contiguous span, whose intensity sum and x-moment are
two differences of per-row prefix sums of the level, so a keypoint costs
``2r + 1`` spans instead of ``(2r + 1)**2`` pixel reads.  The span
half-widths are cached in an :class:`OrientationGrid` so a long-lived
backend never rebuilds them.  Both batched backends read it:
:func:`compute_orientations` (the ``vectorized`` backend) bins its
centroids through ``atan2``, and the ``hwexact`` backend through the
quantized ratio LUT (:func:`repro.quant.kernels.orientation_bins_quantized`).
The moments are exact integers, accumulated in int64 here and in float64 by
the scalar path, so the batched centroids equal the scalar ones bit for bit
(asserted by the orientation, backend and hwexact parity tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import FeatureError
from ..image import GrayImage, circular_mask

#: Default radius of the circular patch used for the centroid (the paper's
#: descriptor tests live in a radius-15 patch).
ORIENTATION_PATCH_RADIUS: int = 15
#: Number of discrete orientation bins (32-fold RS-BRIEF symmetry).
NUM_ORIENTATION_BINS: int = 32
#: Width of one orientation bin in radians (11.25 degrees).
ORIENTATION_BIN_RAD: float = 2.0 * math.pi / NUM_ORIENTATION_BINS
#: Keypoints per centroid chunk (bounds the ``(K, 2r+1)`` row-span arrays).
CENTROID_CHUNK: int = 2048


def intensity_centroid(patch: np.ndarray, mask: np.ndarray | None = None) -> Tuple[float, float]:
    """Return the ``(u, v)`` intensity centroid offsets of a square patch.

    ``u`` is the x-offset and ``v`` the y-offset of the centroid from the
    patch centre, weighted by pixel intensity (equation (3)).  A circular
    mask restricted to the inscribed circle is applied by default.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2 or patch.shape[0] != patch.shape[1] or patch.shape[0] % 2 == 0:
        raise FeatureError("patch must be a square array with odd side length")
    radius = patch.shape[0] // 2
    if mask is None:
        mask = circular_mask(radius)
    if mask.shape != patch.shape:
        raise FeatureError("mask shape must match patch shape")
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    weights = patch * mask
    total = weights.sum()
    if total <= 0:
        return 0.0, 0.0
    u = float((weights * xx).sum() / total)
    v = float((weights * yy).sum() / total)
    return u, v


def orientation_angle(u: float, v: float) -> float:
    """Return the orientation angle in ``[0, 2*pi)`` from centroid offsets.

    Uses ``np.arctan2`` (not ``math.atan2``) so the scalar path shares the
    exact libm kernel of the batched path — the two differ by one ulp on some
    inputs, which would break the bit-exact backend parity guarantee.
    """
    angle = float(np.arctan2(v, u))
    if angle < 0:
        angle += 2.0 * math.pi
    return angle


def discretize_orientation(angle_rad: float, num_bins: int = NUM_ORIENTATION_BINS) -> int:
    """Map a continuous angle to the nearest discrete orientation bin.

    Bin ``n`` represents ``n * (360 / num_bins)`` degrees; angles are rounded
    to the nearest bin centre so the maximum discretisation error is half a
    bin (5.625 degrees for 32 bins).
    """
    if num_bins <= 0:
        raise FeatureError("num_bins must be positive")
    two_pi = 2.0 * math.pi
    angle = angle_rad % two_pi
    return int(round(angle / (two_pi / num_bins))) % num_bins


def orientation_lut_labels(
    us: np.ndarray, vs: np.ndarray, num_bins: int = NUM_ORIENTATION_BINS
) -> np.ndarray:
    """Hardware-style orientation lookup from ``v/u`` plus sign bits, batched.

    The FPGA module determines the bin from the ratio ``v/u`` and the signs
    of ``u`` and ``v`` without evaluating ``atan2``.  Functionally this is
    identical to :func:`discretize_orientation` applied to ``atan2(v, u)``;
    we implement it by comparing ``|v/u|`` against pre-computed tangent
    thresholds, which is exactly the comparison tree a LUT realises.  This
    is the single definition of that tree — the scalar
    :func:`orientation_lut_label`, the hardware Orientation Computing unit
    and the batched ``hwexact`` backend all resolve labels through it, so
    the LUT cannot fork.
    """
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    quarter = num_bins // 4
    bin_width = 2.0 * math.pi / num_bins
    u_zero = us == 0.0
    v_zero = vs == 0.0
    safe_u = np.where(u_zero, 1.0, us)
    # thresholds are the tangents of the bin boundaries in the first quadrant;
    # a denormal-small u legitimately overflows the ratio to inf (arctan(inf)
    # is the correct quarter-turn), so silence only that warning
    with np.errstate(over="ignore"):
        base = np.arctan(np.abs(vs / safe_u))
    angle = np.where(
        us > 0,
        np.where(vs >= 0, base, 2.0 * math.pi - base),
        np.where(vs >= 0, math.pi - base, math.pi + base),
    )
    labels = np.rint(angle / bin_width).astype(np.int64) % num_bins
    labels = np.where(u_zero & ~v_zero, np.where(vs > 0, quarter, 3 * quarter), labels)
    return np.where(u_zero & v_zero, 0, labels)


def orientation_lut_label(u: float, v: float, num_bins: int = NUM_ORIENTATION_BINS) -> int:
    """Scalar :func:`orientation_lut_labels` (one centroid per call)."""
    return int(orientation_lut_labels(np.array([u]), np.array([v]), num_bins)[0])


def compute_orientation(
    image: GrayImage,
    x: int,
    y: int,
    radius: int = ORIENTATION_PATCH_RADIUS,
    num_bins: int = NUM_ORIENTATION_BINS,
) -> Tuple[int, float]:
    """Compute the orientation (bin, radians) of the keypoint at ``(x, y)``.

    Raises :class:`FeatureError` if the circular patch does not fit inside
    the image.
    """
    patch = image.patch(x, y, radius)
    u, v = intensity_centroid(patch)
    angle = orientation_angle(u, v)
    return discretize_orientation(angle, num_bins), angle


@dataclass(frozen=True)
class OrientationGrid:
    """Row-span table of the circular orientation patch.

    Every row ``dy`` of :func:`~repro.image.circular_mask` is one contiguous
    run of pixels, symmetric about the centre column, so the patch is fully
    described by its half-widths: row ``dy`` covers columns ``x - h(dy)`` to
    ``x + h(dy)``.  ``half_widths`` holds ``h`` for ``dy = -radius .. radius``
    as a ``(2 * radius + 1,)`` int64 array; :func:`intensity_centroids` turns
    each row into one span of a row-prefix table.
    """

    radius: int
    mask: np.ndarray
    half_widths: np.ndarray

    @classmethod
    def build(cls, radius: int) -> "OrientationGrid":
        if radius < 0:
            raise FeatureError("radius must be non-negative")
        mask = circular_mask(radius)
        half_widths = mask.sum(axis=1).astype(np.int64) // 2
        columns = np.arange(-radius, radius + 1, dtype=np.int64)
        spans = np.abs(columns)[None, :] <= half_widths[:, None]
        # the span kernel is only exact if each row is one symmetric run
        if not np.array_equal(spans, mask):
            raise FeatureError(
                f"circular mask of radius {radius} has a row that is not one "
                "contiguous run centred on the patch column"
            )
        return cls(radius=radius, mask=mask, half_widths=half_widths)


def intensity_centroids(
    image: GrayImage, xs: np.ndarray, ys: np.ndarray, grid: OrientationGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`intensity_centroid` of the ``grid.radius`` patches at ``(xs, ys)``.

    Accumulates the moments one patch row at a time, as the Orientation
    Computing unit does.  Two int64 row-prefix tables of the level, each
    with a leading zero column, give every row of every patch as one span
    difference: ``P0`` is the running sum of ``I`` along x and ``P1`` the
    running sum of ``x * I``.  For the span ``[x - h, x + h]`` of row
    ``dy`` the row sums are ``s0 = P0[x + h + 1] - P0[x - h]`` and
    ``s1 = P1[x + h + 1] - P1[x - h]``; the patch moments are
    ``total = sum(s0)``, ``wx = sum(s1) - x * total`` and
    ``wy = sum(dy * s0)``.  These are the exact integers the scalar path
    sums in float64 (every partial sum stays below 2**53), so the centroids
    equal it bit for bit.  Keypoints go through in chunks of
    :data:`CENTROID_CHUNK`.

    Every patch must fit inside the image (the backends filter borders
    beforehand).  Returns ``(us, vs)`` arrays of shape ``(K,)``; a patch of
    zero total weight has centroid ``(0, 0)``, as in the scalar path.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise FeatureError("xs and ys must be matching 1-D arrays")
    radius = grid.radius
    count = xs.size
    us = np.zeros(count, dtype=np.float64)
    vs = np.zeros(count, dtype=np.float64)
    if count == 0:
        return us, vs
    # flat indexing would silently wrap out-of-bounds patches; fail loudly
    # like the scalar image.patch does instead
    if (
        int(xs.min()) < radius
        or int(xs.max()) >= image.width - radius
        or int(ys.min()) < radius
        or int(ys.max()) >= image.height - radius
    ):
        raise FeatureError(
            f"orientation patch of radius {radius} exceeds image bounds for some keypoints"
        )
    height, width = image.shape
    stride = width + 1
    prefix0 = np.empty((height, stride), dtype=np.int64)
    prefix1 = np.empty((height, stride), dtype=np.int64)
    prefix0[:, 0] = 0
    prefix1[:, 0] = 0
    np.cumsum(image.pixels, axis=1, dtype=np.int64, out=prefix0[:, 1:])
    # x * I <= 255 * (width - 1) fits int32; the running sums are int64
    weighted = image.pixels * np.arange(width, dtype=np.int32)
    np.cumsum(weighted, axis=1, dtype=np.int64, out=prefix1[:, 1:])
    prefix0 = prefix0.reshape(-1)
    prefix1 = prefix1.reshape(-1)
    dys = np.arange(-radius, radius + 1, dtype=np.int64)
    lo_offsets = dys * stride - grid.half_widths
    hi_offsets = dys * stride + grid.half_widths + 1
    centers = ys * stride + xs
    for start in range(0, count, CENTROID_CHUNK):
        stop = min(count, start + CENTROID_CHUNK)
        chunk = centers[start:stop, None]
        lo = chunk + lo_offsets
        hi = chunk + hi_offsets
        row_sums = np.take(prefix0, hi) - np.take(prefix0, lo)
        totals = row_sums.sum(axis=1)
        wx = (np.take(prefix1, hi) - np.take(prefix1, lo)).sum(axis=1) - xs[start:stop] * totals
        wy = row_sums @ dys
        safe = totals > 0
        denominator = np.where(safe, totals, 1)
        us[start:stop] = np.where(safe, wx / denominator, 0.0)
        vs[start:stop] = np.where(safe, wy / denominator, 0.0)
    return us, vs


def compute_orientations(
    image: GrayImage,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: int = ORIENTATION_PATCH_RADIUS,
    num_bins: int = NUM_ORIENTATION_BINS,
    grid: OrientationGrid | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`compute_orientation`: :func:`intensity_centroids` plus binning.

    Returns ``(bins, angles)`` arrays of shape ``(K,)`` that are
    bit-identical to the scalar path.
    """
    if num_bins <= 0:
        raise FeatureError("num_bins must be positive")
    if grid is None or grid.radius != radius:
        grid = OrientationGrid.build(radius)
    us, vs = intensity_centroids(image, xs, ys, grid)
    two_pi = 2.0 * math.pi
    angles = np.arctan2(vs, us)
    angles = np.where(angles < 0, angles + two_pi, angles)
    bins = np.rint(np.mod(angles, two_pi) / (two_pi / num_bins)).astype(np.int64) % num_bins
    return bins, angles
