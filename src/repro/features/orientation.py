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
the one batched centroid kernel: it gathers every keypoint's square patch
out of a sliding-window view of the level and takes all three moments
(mass, x-moment, y-moment) of all patches in one float32 matrix product
against the masked weight table cached in an :class:`OrientationGrid`, so a
long-lived backend never rebuilds it.  Both batched backends read it:
:func:`compute_orientations` (the ``vectorized`` backend) bins its
centroids through ``atan2``, and the ``hwexact`` backend through the
quantized ratio LUT (:func:`repro.quant.kernels.orientation_bins_quantized`).
Every product and partial sum of the moments is an integer below
``2**22`` at the default radius, so the float32 product is exact in any
summation order and the batched centroids equal the scalar ones bit for
bit (asserted by the orientation, backend and hwexact parity tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import FeatureError
from ..image import GrayImage, circular_mask

#: Default radius of the circular patch used for the centroid (the paper's
#: descriptor tests live in a radius-15 patch).
ORIENTATION_PATCH_RADIUS: int = 15
#: Number of discrete orientation bins (32-fold RS-BRIEF symmetry).
NUM_ORIENTATION_BINS: int = 32
#: Width of one orientation bin in radians (11.25 degrees).
ORIENTATION_BIN_RAD: float = 2.0 * math.pi / NUM_ORIENTATION_BINS
#: Keypoints per centroid chunk (bounds the ``(K, (2r+1)**2)`` float64 patch
#: matrix: 2 MB at radius 15).
CENTROID_CHUNK: int = 256


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
    is the single definition of that tree — the hardware Orientation
    Computing unit and the batched ``hwexact`` engine both resolve labels
    through it (via :mod:`repro.quant.kernels`), so the LUT cannot fork.
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
    """Row-span table and moment weights of the circular orientation patch.

    Every row ``dy`` of :func:`~repro.image.circular_mask` is one contiguous
    run of pixels, symmetric about the centre column, so the patch is fully
    described by its half-widths: row ``dy`` covers columns ``x - h(dy)`` to
    ``x + h(dy)``, the span the hardware Orientation Computing unit adds in
    one cycle.  ``half_widths`` holds ``h`` for ``dy = -radius .. radius``
    as a ``(2 * radius + 1,)`` int64 array.  ``weights`` is the
    ``((2r+1)**2, 3)`` float64 table ``(mask, dx * mask, dy * mask)`` of
    those spans, flattened in row-major patch order:
    :func:`intensity_centroids` multiplies the patches by it.
    """

    radius: int
    mask: np.ndarray
    half_widths: np.ndarray
    weights: np.ndarray

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
        dys, dxs = np.meshgrid(columns, columns, indexing="ij")
        weights = np.stack([spans, dxs * spans, dys * spans], axis=-1)
        return cls(
            radius=radius,
            mask=mask,
            half_widths=half_widths,
            weights=weights.reshape(-1, 3).astype(np.float64),
        )


def intensity_centroids(
    image: GrayImage, xs: np.ndarray, ys: np.ndarray, grid: OrientationGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`intensity_centroid` of the ``grid.radius`` patches at ``(xs, ys)``.

    Each keypoint's ``(2r+1, 2r+1)`` patch is gathered out of a
    :func:`~numpy.lib.stride_tricks.sliding_window_view` of the level, and
    one float32 matrix product with ``grid.weights`` gives every patch's
    moments ``total = sum(mask * I)``, ``wx = sum(dx * mask * I)`` and
    ``wy = sum(dy * mask * I)``.  Every product and every partial sum is an
    integer of magnitude at most ``255 * max(r, 1) * (2r+1)**2``
    (``255 * 15 * 961 < 2**22`` at radius 15), which float32 holds exactly
    below ``2**24`` (float64, exact below ``2**53``, takes larger radii), so
    the moments are exact in any BLAS summation order: the same integers
    the scalar path sums, and the centroids, divided in float64, equal it
    bit for bit.  Keypoints go through in chunks of :data:`CENTROID_CHUNK`.

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
    # fancy indexing would silently wrap negative window indices; fail
    # loudly like the scalar image.patch does instead
    if (
        int(xs.min()) < radius
        or int(xs.max()) >= image.width - radius
        or int(ys.min()) < radius
        or int(ys.max()) >= image.height - radius
    ):
        raise FeatureError(
            f"orientation patch of radius {radius} exceeds image bounds for some keypoints"
        )
    side = 2 * radius + 1
    # float32 holds every partial sum exactly while the bound stays below 2**24
    dtype = np.float32 if 255 * max(radius, 1) * side * side < 2**24 else np.float64
    weights = grid.weights.astype(dtype)
    windows = sliding_window_view(image.pixels, (side, side))
    for start in range(0, count, CENTROID_CHUNK):
        stop = min(count, start + CENTROID_CHUNK)
        patches = windows[ys[start:stop] - radius, xs[start:stop] - radius]
        moments = (patches.reshape(stop - start, side * side).astype(dtype) @ weights).astype(
            np.float64
        )
        totals = moments[:, 0]
        safe = totals > 0
        denominator = np.where(safe, totals, 1.0)
        us[start:stop] = np.where(safe, moments[:, 1] / denominator, 0.0)
        vs[start:stop] = np.where(safe, moments[:, 2] / denominator, 0.0)
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
