"""RS-BRIEF: the 32-fold rotationally symmetric BRIEF pattern.

This is the paper's core algorithmic contribution.  Instead of sampling 256
independent test pairs, RS-BRIEF samples only ``seed_pairs`` (8) pairs and
replicates them at 32 rotations of 11.25 degrees each, producing a 256-pair
pattern that is invariant (as a *set*) under rotation by any multiple of
11.25 degrees.  Rotating the descriptor to a feature's orientation therefore
never requires rotating test locations: it reduces to a circular shift of the
descriptor bits by ``seed_pairs * orientation_bin`` positions, which in
hardware is a barrel shifter instead of a 30-pattern lookup table.

Bit layout
----------
Bit ``i = g * 32 + r`` of the descriptor corresponds to seed pair ``g``
rotated by ``r * 11.25`` degrees... **No** -- the layout chosen here groups
bits by rotation first: bit ``i = r * seed_pairs + g`` is seed pair ``g``
rotated by ``r`` steps.  With this layout, rotating the pattern by one
symmetry step advances every test to the bit 8 positions later, so applying a
feature orientation of ``n`` bins is exactly the circular shift of the
descriptor by ``8 * n`` bits described in Section 3.1 ("the BRIEF Rotator
moves the 8*n bits from the beginning of the descriptor to the end").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import DescriptorConfig
from ..errors import DescriptorError
from .patterns import BriefPattern, _sample_gaussian_locations


@dataclass(frozen=True)
class RsBriefSeed:
    """The seed locations from which the full RS-BRIEF pattern is generated."""

    s_seed: np.ndarray
    d_seed: np.ndarray
    patch_radius: int

    def __post_init__(self) -> None:
        s = np.asarray(self.s_seed, dtype=np.float64)
        d = np.asarray(self.d_seed, dtype=np.float64)
        if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
            raise DescriptorError("seed locations must be matching (N, 2) arrays")
        object.__setattr__(self, "s_seed", s)
        object.__setattr__(self, "d_seed", d)

    @property
    def num_pairs(self) -> int:
        return int(self.s_seed.shape[0])


def generate_seed(config: DescriptorConfig | None = None) -> RsBriefSeed:
    """Sample the ``seed_pairs`` Gaussian-distributed seed location pairs."""
    cfg = config or DescriptorConfig()
    rng = np.random.default_rng(cfg.seed)
    # keep the seed locations inside a slightly smaller radius so that all
    # 32 rotated copies stay inside the descriptor patch after rounding
    inner_radius = cfg.patch_radius - 1
    s = _sample_gaussian_locations(cfg.seed_pairs, inner_radius, rng)
    d = _sample_gaussian_locations(cfg.seed_pairs, inner_radius, rng)
    return RsBriefSeed(s, d, cfg.patch_radius)


def rs_brief_pattern(
    config: DescriptorConfig | None = None, seed: RsBriefSeed | None = None
) -> BriefPattern:
    """Build the full 32-fold rotationally symmetric pattern from a seed.

    The returned pattern has ``symmetry * seed_pairs`` test pairs ordered so
    that bit ``r * seed_pairs + g`` is seed pair ``g`` rotated by
    ``r * (360 / symmetry)`` degrees.
    """
    cfg = config or DescriptorConfig()
    if seed is None:
        seed = generate_seed(cfg)
    if seed.num_pairs != cfg.seed_pairs:
        raise DescriptorError(
            f"seed has {seed.num_pairs} pairs but config expects {cfg.seed_pairs}"
        )
    s_all = np.zeros((cfg.num_bits, 2), dtype=np.float64)
    d_all = np.zeros((cfg.num_bits, 2), dtype=np.float64)
    step = 2.0 * math.pi / cfg.symmetry
    for r in range(cfg.symmetry):
        angle = r * step
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
        start = r * cfg.seed_pairs
        s_all[start : start + cfg.seed_pairs] = seed.s_seed @ rotation.T
        d_all[start : start + cfg.seed_pairs] = seed.d_seed @ rotation.T
    return BriefPattern(s_all, d_all, cfg.patch_radius)


def rotate_descriptor_bytes(descriptor: np.ndarray, orientation_bin: int) -> np.ndarray:
    """Rotate a packed RS-BRIEF descriptor by whole bytes.

    With 8 seed pairs, one orientation bin corresponds to exactly one byte of
    the 32-byte descriptor, so the hardware rotator is a byte-wise barrel
    shifter.  The first ``orientation_bin`` bytes move to the end.
    """
    descriptor = np.asarray(descriptor, dtype=np.uint8)
    if descriptor.ndim != 1:
        raise DescriptorError("descriptor must be a 1-D byte array")
    shift = orientation_bin % descriptor.size
    return np.roll(descriptor, -shift)


def descriptor_rotation_table(num_bytes: int, num_bins: int) -> np.ndarray:
    """Byte-gather table realising :func:`rotate_descriptor_bytes` for batches.

    Row ``b`` holds the source byte index for every output byte of a
    descriptor rotated by orientation bin ``b``:
    ``rotated[i] = descriptor[table[b, i]]``.  Applying the BRIEF Rotator to a
    whole ``(K, num_bytes)`` descriptor block is then a single
    ``take_along_axis`` with ``table[bins]`` — the batched equivalent of the
    hardware barrel shifter.
    """
    if num_bytes <= 0 or num_bins <= 0:
        raise DescriptorError("num_bytes and num_bins must be positive")
    shifts = np.arange(num_bins, dtype=np.int64) % num_bytes
    return (np.arange(num_bytes, dtype=np.int64)[None, :] + shifts[:, None]) % num_bytes


def pattern_symmetry_error(pattern: BriefPattern, symmetry: int, seed_pairs: int) -> float:
    """Measure how far ``pattern`` is from exact ``symmetry``-fold symmetry.

    Rotating the full pattern by one symmetry step should map test ``i`` onto
    test ``i + seed_pairs`` (cyclically).  Returns the maximum Euclidean
    mismatch over all tests; an exactly symmetric pattern returns ~0.  Used
    by property-based tests and by the Figure-2 benchmark to verify the
    constructed pattern really is 32-fold symmetric.
    """
    step = 2.0 * math.pi / symmetry
    cos_a, sin_a = math.cos(step), math.sin(step)
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    rotated_s = pattern.s_locations @ rotation.T
    rotated_d = pattern.d_locations @ rotation.T
    expected_s = np.roll(pattern.s_locations, -seed_pairs, axis=0)
    expected_d = np.roll(pattern.d_locations, -seed_pairs, axis=0)
    err_s = np.sqrt(((rotated_s - expected_s) ** 2).sum(axis=1)).max()
    err_d = np.sqrt(((rotated_d - expected_d) ** 2).sum(axis=1)).max()
    return float(max(err_s, err_d))
