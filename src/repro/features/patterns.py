"""BRIEF test-location patterns.

A BRIEF descriptor is defined by two sets of 256 test locations
``L_S = (S_1 ... S_256)`` and ``L_D = (D_1 ... D_256)`` sampled around the
keypoint; bit ``i`` of the descriptor is 1 iff ``I(S_i) > I(D_i)`` on the
smoothed image.  This module provides

* :class:`BriefPattern` -- an immutable container of the location pairs,
* :func:`original_brief_pattern` -- the classic random Gaussian-sampled
  pattern used by ORB,
* :func:`rotated_pattern` -- exact rotation of a pattern by an angle
  (equation (2) of the paper),
* :class:`RotatedPatternLUT` -- the 30-angle pre-rotated lookup table used by
  the original ORB implementation (the baseline whose hardware cost RS-BRIEF
  removes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import DescriptorError

#: Number of discrete angles used by original ORB's pre-rotated pattern LUT.
ORB_LUT_ANGLES: int = 30


@dataclass(frozen=True)
class BriefPattern:
    """An ordered set of BRIEF test-location pairs.

    Attributes
    ----------
    s_locations, d_locations:
        ``(N, 2)`` arrays of ``(x, y)`` offsets from the keypoint centre for
        the first and second location of each test.
    patch_radius:
        All locations are guaranteed to lie within this radius.
    """

    s_locations: np.ndarray
    d_locations: np.ndarray
    patch_radius: int

    def __post_init__(self) -> None:
        s = np.asarray(self.s_locations, dtype=np.float64)
        d = np.asarray(self.d_locations, dtype=np.float64)
        if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
            raise DescriptorError(
                f"pattern locations must be matching (N, 2) arrays, got {s.shape} and {d.shape}"
            )
        if s.shape[0] == 0:
            raise DescriptorError("pattern must contain at least one test pair")
        limit = self.patch_radius + 1e-6
        if np.abs(s).max() > limit or np.abs(d).max() > limit:
            raise DescriptorError("pattern locations exceed the declared patch radius")
        object.__setattr__(self, "s_locations", s)
        object.__setattr__(self, "d_locations", d)

    @property
    def num_bits(self) -> int:
        return int(self.s_locations.shape[0])

    def rounded(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return integer-rounded locations (what the hardware addresses use)."""
        return (
            np.rint(self.s_locations).astype(np.int64),
            np.rint(self.d_locations).astype(np.int64),
        )

    def max_radius(self) -> float:
        """Return the largest Euclidean distance of any test location."""
        all_locations = np.vstack([self.s_locations, self.d_locations])
        return float(np.sqrt((all_locations**2).sum(axis=1)).max())


def _sample_gaussian_locations(
    count: int, patch_radius: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` locations from an isotropic Gaussian, clipped to the patch."""
    sigma = patch_radius / 2.0
    locations = np.empty((count, 2), dtype=np.float64)
    filled = 0
    while filled < count:
        batch = rng.normal(0.0, sigma, size=(count * 2, 2))
        radii = np.sqrt((batch**2).sum(axis=1))
        inside = batch[radii <= patch_radius]
        take = min(count - filled, inside.shape[0])
        locations[filled : filled + take] = inside[:take]
        filled += take
    return locations


def original_brief_pattern(
    num_bits: int = 256, patch_radius: int = 15, seed: int = 2019
) -> BriefPattern:
    """Return the classic random BRIEF pattern (Gaussian-sampled pairs).

    This is the baseline pattern of the original ORB descriptor; eSLAM's
    RS-BRIEF replaces it with a rotationally symmetric construction.
    """
    if num_bits <= 0:
        raise DescriptorError("num_bits must be positive")
    rng = np.random.default_rng(seed)
    s = _sample_gaussian_locations(num_bits, patch_radius, rng)
    d = _sample_gaussian_locations(num_bits, patch_radius, rng)
    return BriefPattern(s, d, patch_radius)


def rotated_pattern(pattern: BriefPattern, angle_rad: float) -> BriefPattern:
    """Rotate every test location of ``pattern`` by ``angle_rad``.

    Implements equation (2): ``x' = x cos(t) - y sin(t)``,
    ``y' = y cos(t) + x sin(t)``.
    """
    cos_a, sin_a = math.cos(angle_rad), math.sin(angle_rad)
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    return BriefPattern(
        pattern.s_locations @ rotation.T,
        pattern.d_locations @ rotation.T,
        # rotation preserves radii, but rounding can push a location a hair
        # past the original bound; keep a one-pixel guard
        pattern.patch_radius,
    )


class RotatedPatternLUT:
    """Pre-rotated BRIEF patterns at discrete angles (original ORB approach).

    Original ORB discretises orientation into :data:`ORB_LUT_ANGLES` values
    (every 12 degrees) and stores one rotated copy of the pattern per angle.
    eSLAM's criticism is that storing 30 patterns of 512 locations each is a
    significant FPGA memory cost; the class exposes :meth:`storage_locations`
    so the hardware-cost ablation can quantify that.
    """

    def __init__(
        self,
        base_pattern: BriefPattern,
        num_angles: int = ORB_LUT_ANGLES,
    ) -> None:
        if num_angles <= 0:
            raise DescriptorError("num_angles must be positive")
        self.base_pattern = base_pattern
        self.num_angles = num_angles
        self._patterns = [
            rotated_pattern(base_pattern, 2.0 * math.pi * i / num_angles)
            for i in range(num_angles)
        ]

    def angle_index(self, angle_rad: float) -> int:
        """Return the LUT index nearest to ``angle_rad``."""
        two_pi = 2.0 * math.pi
        return int(round((angle_rad % two_pi) / (two_pi / self.num_angles))) % self.num_angles

    def pattern_for_angle(self, angle_rad: float) -> BriefPattern:
        """Return the pre-rotated pattern closest to ``angle_rad``."""
        return self._patterns[self.angle_index(angle_rad)]

    def rounded_stack(self) -> Tuple[np.ndarray, np.ndarray]:
        """All pre-rotated patterns as ``(num_angles, num_bits, 2)`` int arrays.

        This is the batch-gather view of the LUT: the vectorized compute
        backend indexes it with a per-keypoint angle index to evaluate every
        keypoint's rotated pattern in a single fancy-indexing pass.  Built
        lazily and cached, mirroring the on-chip ROM the hardware keeps.
        """
        cached = getattr(self, "_rounded_stack", None)
        if cached is None:
            s_stack = np.stack([p.rounded()[0] for p in self._patterns])
            d_stack = np.stack([p.rounded()[1] for p in self._patterns])
            cached = (s_stack, d_stack)
            self._rounded_stack = cached
        return cached

    def angle_indices(self, angles_rad: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`angle_index` for an array of angles."""
        two_pi = 2.0 * math.pi
        angles = np.mod(np.asarray(angles_rad, dtype=np.float64), two_pi)
        return np.rint(angles / (two_pi / self.num_angles)).astype(np.int64) % self.num_angles

    def storage_locations(self) -> int:
        """Total number of (x, y) locations the LUT must store on chip."""
        return self.num_angles * 2 * self.base_pattern.num_bits

    def __len__(self) -> int:
        return self.num_angles
