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
the one batched centroid kernel: it gathers every patch of a keypoint array
in one fancy-indexing pass per chunk and reduces all centroids together,
with the circular-mask and coordinate tables cached in an
:class:`OrientationGrid` so a long-lived backend never rebuilds them.  Both
batched backends read it: :func:`compute_orientations` (the ``vectorized``
backend) bins its centroids through ``atan2``, and the ``hwexact`` backend
through the quantized ratio LUT
(:func:`repro.quant.kernels.orientation_bins_quantized`).  The masked
weights, coordinate products and their sums are exact integers in float64,
so the batched centroids equal the scalar ones bit for bit (asserted by the
backend and hwexact parity tests).
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
#: Keypoints per centroid gather chunk (bounds the ``(K, P*P)`` patch stack).
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
    """Precomputed circular-mask / coordinate tables for batched orientation.

    Building the mask and the ``xx`` / ``yy`` coordinate grids once per engine
    (instead of once per keypoint) is what makes the batched centroid a pure
    gather + reduce.  The tables are stored flattened in raster (C) order so
    the per-keypoint reduction visits patch pixels in exactly the order the
    scalar path does; ``mask_flat`` is kept as float64 ``0.0 / 1.0`` weights
    because ``uint8 * float64`` produces the same products as the scalar
    path's ``float64 * bool`` without materialising a float patch first.
    ``offsets_y`` / ``offsets_x`` are the ``(P, P)`` integer patch offsets
    (``flat_offsets`` is their row-major flattening against an image stride,
    see :func:`intensity_centroids`).
    """

    radius: int
    mask: np.ndarray
    mask_flat: np.ndarray
    xx_flat: np.ndarray
    yy_flat: np.ndarray
    offsets_y: np.ndarray
    offsets_x: np.ndarray

    @classmethod
    def build(cls, radius: int) -> "OrientationGrid":
        if radius < 0:
            raise FeatureError("radius must be non-negative")
        mask = circular_mask(radius)
        coords = np.arange(-radius, radius + 1, dtype=np.float64)
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        icoords = np.arange(-radius, radius + 1, dtype=np.int64)
        offsets_y, offsets_x = np.meshgrid(icoords, icoords, indexing="ij")
        return cls(
            radius=radius,
            mask=mask,
            mask_flat=mask.ravel().astype(np.float64),
            xx_flat=(xx * mask).ravel(),
            yy_flat=(yy * mask).ravel(),
            offsets_y=offsets_y,
            offsets_x=offsets_x,
        )

    def flat_offsets(self, row_stride: int) -> np.ndarray:
        """Patch offsets as flat indices into an image with ``row_stride`` columns."""
        return (self.offsets_y * row_stride + self.offsets_x).ravel()


def intensity_centroids(
    image: GrayImage, xs: np.ndarray, ys: np.ndarray, grid: OrientationGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`intensity_centroid` of the ``grid.radius`` patches at ``(xs, ys)``.

    Gathers the patch stack with one fancy-indexing pass per chunk of
    :data:`CENTROID_CHUNK` keypoints and reduces every centroid together.
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
    pixels = np.ascontiguousarray(image.pixels)
    flat_pixels = pixels.reshape(-1)
    flat_offsets = grid.flat_offsets(pixels.shape[1])
    centers = ys * pixels.shape[1] + xs
    for start in range(0, count, CENTROID_CHUNK):
        stop = min(count, start + CENTROID_CHUNK)
        # one gather for the whole chunk's patches, flattened in raster order
        patches = flat_pixels[centers[start:stop, None] + flat_offsets[None, :]]
        weights = patches * grid.mask_flat
        totals = weights.sum(axis=1)
        wx = (weights * grid.xx_flat).sum(axis=1)
        wy = (weights * grid.yy_flat).sum(axis=1)
        safe = totals > 0
        denominator = np.where(safe, totals, 1.0)
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
