"""BRIEF descriptor computation.

Given a smoothed image, a keypoint and a test-location pattern, the BRIEF
descriptor is the 256-bit string whose bit ``i`` is 1 iff the intensity at
the first location of test ``i`` exceeds the intensity at the second
location.  Two rotation-handling strategies are provided, matching the two
designs the paper compares:

* **Original ORB** (:class:`OriginalOrbDescriptorEngine`) -- look up a
  pre-rotated pattern for the feature's orientation (30 discrete angles) and
  evaluate the tests with those rotated locations.
* **RS-BRIEF** (:class:`RsBriefDescriptorEngine`) -- evaluate the tests with
  the fixed, rotationally symmetric pattern and then circularly shift the
  resulting descriptor by ``8 * orientation_bin`` bits (the BRIEF Rotator).

Both engines expose two entry points used by the extraction engines in
:mod:`repro.engines`: the scalar :meth:`describe` (one keypoint per call,
the reference path) and the batched :meth:`describe_batch`, which evaluates
the pattern for a whole keypoint array as one ``(K, 256)`` comparison
followed by a row-wise ``packbits`` and — for RS-BRIEF — a single byte-gather
rotation.  The batched path performs the exact same comparisons and byte
permutations and is bit-identical to the scalar path.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..config import DescriptorConfig
from ..errors import DescriptorError, FeatureError
from ..image import GrayImage
from .keypoint import Keypoint
from .orientation import NUM_ORIENTATION_BINS
from .patterns import BriefPattern, RotatedPatternLUT, original_brief_pattern
from .rs_brief import descriptor_rotation_table, rotate_descriptor_bytes, rs_brief_pattern


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an array of 0/1 bits into bytes, bit ``i`` into byte ``i // 8``."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size % 8 != 0:
        raise DescriptorError("bit array length must be a positive multiple of 8")
    return np.packbits(bits, bitorder="little")


def evaluate_pattern(
    image: GrayImage, x: int, y: int, pattern: BriefPattern
) -> np.ndarray:
    """Evaluate the BRIEF tests of ``pattern`` at keypoint ``(x, y)``.

    Returns the raw bit array (unpacked).  The image is expected to already
    be smoothed; locations are rounded to the nearest pixel, which is what
    the fixed-point hardware address generator does.
    """
    radius = int(np.ceil(pattern.max_radius()))
    if not image.contains(x, y, border=radius):
        raise FeatureError(
            f"keypoint ({x}, {y}) too close to the border for patch radius {radius}"
        )
    s_int, d_int = pattern.rounded()
    s_vals = image.pixels[y + s_int[:, 1], x + s_int[:, 0]].astype(np.int16)
    d_vals = image.pixels[y + d_int[:, 1], x + d_int[:, 0]].astype(np.int16)
    return (s_vals > d_vals).astype(np.uint8)


def evaluate_pattern_batch(
    image: GrayImage,
    xs: np.ndarray,
    ys: np.ndarray,
    s_int: np.ndarray,
    d_int: np.ndarray,
) -> np.ndarray:
    """Evaluate rounded BRIEF test locations for a whole keypoint batch.

    ``s_int`` / ``d_int`` are integer test locations, either shared across the
    batch (``(num_bits, 2)``) or per keypoint (``(K, num_bits, 2)``, the
    pre-rotated original-ORB case).  Returns the ``(K, num_bits)`` boolean bit
    matrix — the single batched comparison the vectorized engine packs into
    descriptors.  Callers must pre-filter keypoints to the pattern's border.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise FeatureError("xs and ys must be matching 1-D arrays")
    if xs.size:
        # flat indexing would silently wrap out-of-bounds locations; fail
        # loudly like the scalar evaluate_pattern does instead
        border_x = int(max(np.abs(s_int[..., 0]).max(), np.abs(d_int[..., 0]).max()))
        border_y = int(max(np.abs(s_int[..., 1]).max(), np.abs(d_int[..., 1]).max()))
        if (
            int(xs.min()) < border_x
            or int(xs.max()) >= image.width - border_x
            or int(ys.min()) < border_y
            or int(ys.max()) >= image.height - border_y
        ):
            raise FeatureError(
                "keypoints too close to the border for the pattern's test locations"
            )
    pixels = np.ascontiguousarray(image.pixels)
    stride = pixels.shape[1]
    centers = ys * stride + xs
    if s_int.ndim == 2:
        s_flat = centers[:, None] + (s_int[:, 1] * stride + s_int[:, 0])[None, :]
        d_flat = centers[:, None] + (d_int[:, 1] * stride + d_int[:, 0])[None, :]
    elif s_int.ndim == 3:
        s_flat = centers[:, None] + (s_int[:, :, 1] * stride + s_int[:, :, 0])
        d_flat = centers[:, None] + (d_int[:, :, 1] * stride + d_int[:, :, 0])
    else:
        raise DescriptorError("test locations must be (num_bits, 2) or (K, num_bits, 2)")
    flat = pixels.reshape(-1)
    return flat[s_flat] > flat[d_flat]


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`pack_bits`: ``(K, num_bits)`` bits to ``(K, num_bits/8)`` bytes."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] % 8 != 0:
        raise DescriptorError("bit matrix must be (K, num_bits) with num_bits % 8 == 0")
    return np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")


class DescriptorEngine(Protocol):
    """Common interface of the two descriptor strategies."""

    config: DescriptorConfig

    def describe(self, smoothed: GrayImage, keypoint: Keypoint) -> np.ndarray:
        """Return the packed descriptor bytes for ``keypoint``."""
        ...

    def describe_batch(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        orientation_bins: np.ndarray,
        orientation_rads: np.ndarray,
    ) -> np.ndarray:
        """Return packed descriptors ``(K, num_bytes)`` for a keypoint batch."""
        ...

    def patch_radius(self) -> int:
        """Return the border margin required around a keypoint."""
        ...


class RsBriefDescriptorEngine:
    """Descriptor engine using the rotationally symmetric RS-BRIEF pattern."""

    def __init__(self, config: DescriptorConfig | None = None) -> None:
        self.config = config or DescriptorConfig()
        self.pattern = rs_brief_pattern(self.config)
        self._radius = int(np.ceil(self.pattern.max_radius()))
        # batch-path tables, built once per engine and reused for every frame
        self._s_int, self._d_int = self.pattern.rounded()
        self._rotation_table = descriptor_rotation_table(
            self.config.num_bytes, NUM_ORIENTATION_BINS
        )

    def patch_radius(self) -> int:
        return self._radius

    def describe(self, smoothed: GrayImage, keypoint: Keypoint) -> np.ndarray:
        """Compute the descriptor and rotate it by the keypoint orientation.

        The tests are always evaluated with the unrotated pattern; the
        orientation is applied as a byte-wise circular shift, exactly what the
        hardware BRIEF Rotator does.
        """
        if keypoint.orientation_bin is None:
            raise FeatureError("keypoint orientation must be computed before description")
        bits = evaluate_pattern(smoothed, keypoint.x, keypoint.y, self.pattern)
        packed = pack_bits(bits)
        return rotate_descriptor_bytes(packed, keypoint.orientation_bin)

    def describe_batch(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        orientation_bins: np.ndarray,
        orientation_rads: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`describe`: one ``(K, 256)`` comparison + packbits.

        The whole batch is evaluated against the single unrotated pattern and
        every descriptor is rotated by its own orientation through one
        byte-gather (the batched BRIEF Rotator).  ``orientation_rads`` is
        unused here — RS-BRIEF only needs the discrete bin.
        """
        bins = np.asarray(orientation_bins, dtype=np.int64)
        if bins.size == 0:
            return np.zeros((0, self.config.num_bytes), dtype=np.uint8)
        bits = evaluate_pattern_batch(smoothed, xs, ys, self._s_int, self._d_int)
        packed = pack_bit_matrix(bits)
        gather = self._rotation_table[bins % NUM_ORIENTATION_BINS]
        return np.take_along_axis(packed, gather, axis=1)


class OriginalOrbDescriptorEngine:
    """Descriptor engine using the original ORB pattern with a 30-angle LUT."""

    def __init__(
        self,
        config: DescriptorConfig | None = None,
        num_lut_angles: int = 30,
    ) -> None:
        self.config = config or DescriptorConfig()
        base = original_brief_pattern(
            num_bits=self.config.num_bits,
            patch_radius=self.config.patch_radius,
            seed=self.config.seed,
        )
        self.lut = RotatedPatternLUT(base, num_angles=num_lut_angles)
        self._radius = int(np.ceil(base.max_radius())) + 1

    def patch_radius(self) -> int:
        return self._radius

    def describe(self, smoothed: GrayImage, keypoint: Keypoint) -> np.ndarray:
        """Look up the pre-rotated pattern for the orientation and evaluate it."""
        if keypoint.orientation_rad is None:
            raise FeatureError("keypoint orientation must be computed before description")
        pattern = self.lut.pattern_for_angle(keypoint.orientation_rad)
        bits = evaluate_pattern(smoothed, keypoint.x, keypoint.y, pattern)
        return pack_bits(bits)

    def describe_batch(
        self,
        smoothed: GrayImage,
        xs: np.ndarray,
        ys: np.ndarray,
        orientation_bins: np.ndarray,
        orientation_rads: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`describe` via the pre-rotated pattern stack.

        Every keypoint selects its LUT entry from the stacked
        ``(num_angles, 256, 2)`` rounded-location ROM, so the whole batch is
        still one gather + one ``(K, 256)`` comparison.  ``orientation_bins``
        is unused — original ORB selects patterns by continuous angle.
        """
        rads = np.asarray(orientation_rads, dtype=np.float64)
        if rads.size == 0:
            return np.zeros((0, self.config.num_bits // 8), dtype=np.uint8)
        s_stack, d_stack = self.lut.rounded_stack()
        indices = self.lut.angle_indices(rads)
        bits = evaluate_pattern_batch(smoothed, xs, ys, s_stack[indices], d_stack[indices])
        return pack_bit_matrix(bits)


def make_descriptor_engine(
    use_rs_brief: bool, config: DescriptorConfig | None = None
) -> DescriptorEngine:
    """Factory returning the requested descriptor engine."""
    if use_rs_brief:
        return RsBriefDescriptorEngine(config)
    return OriginalOrbDescriptorEngine(config)
