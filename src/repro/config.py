"""Global configuration dataclasses shared across the eSLAM reproduction.

The defaults mirror the configuration evaluated in the paper:

* 640 x 480 input images (TUM RGB-D resolution),
* a 4-layer image pyramid built by nearest-neighbour downsampling,
* FAST-9/16 keypoints scored with Harris corner response,
* 256-bit descriptors built from the 32-fold rotationally symmetric
  RS-BRIEF pattern (8 + 8 seed locations),
* a 1024-entry max-heap that keeps the best-Harris features per frame,
* a 100 MHz accelerator clock and a 767 MHz ARM Cortex-A9 host clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .registry import unknown_name_message

#: Names of the extraction engines (:mod:`repro.engines`)
#: ``ExtractorConfig.engine`` accepts.
ENGINES: Tuple[str, ...] = ("reference", "vectorized", "hwexact")


@dataclass(frozen=True)
class PyramidConfig:
    """Configuration of the image pyramid used for scale invariance.

    Every level is built up front by :class:`repro.pyramid.PyramidProvider`
    (see ``docs/pyramid.md``).
    """

    num_levels: int = 4
    scale_factor: float = 1.2

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ValueError("pyramid must have at least one level")
        if self.scale_factor < 1.0:
            raise ValueError("scale_factor must be >= 1.0 (downsampling pyramid)")

    def level_scale(self, level: int) -> float:
        """Return the downscale factor applied at ``level`` (level 0 is 1.0)."""
        if level < 0 or level >= self.num_levels:
            raise ValueError(f"level {level} outside [0, {self.num_levels})")
        return self.scale_factor**level


@dataclass(frozen=True)
class FastConfig:
    """Configuration of the FAST segment-test detector."""

    threshold: int = 20
    arc_length: int = 9
    border: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.arc_length <= 16:
            raise ValueError("arc_length must be in [1, 16]")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass(frozen=True)
class DescriptorConfig:
    """Configuration of the BRIEF / RS-BRIEF descriptor."""

    num_bits: int = 256
    patch_radius: int = 15
    seed_pairs: int = 8
    symmetry: int = 32
    seed: int = 2019

    def __post_init__(self) -> None:
        if self.seed_pairs * self.symmetry != self.num_bits:
            raise ValueError(
                "num_bits must equal seed_pairs * symmetry "
                f"({self.seed_pairs} * {self.symmetry} != {self.num_bits})"
            )

    @property
    def num_bytes(self) -> int:
        return self.num_bits // 8


@dataclass(frozen=True)
class ExtractorConfig:
    """Configuration of the full ORB extractor (software and hardware model).

    ``engine`` selects one of :data:`ENGINES`, the extraction engine
    (:mod:`repro.engines`) that detects (FAST + Harris + NMS) on every
    pyramid level, then smooths, orients and describes the kept keypoints:

    * ``"vectorized"`` (default) -- bit-sliced FAST / sparse-Harris detection
      and per-level batched orientation and description;
    * ``"reference"`` -- dense per-stage detection and the per-keypoint
      scalar path, kept as bit-exact ground truth for ``"vectorized"``;
    * ``"hwexact"`` -- the FPGA model's fixed-point arithmetic (integer
      Harris, 8-bit smoother, quantized orientation ratio LUT), bit-identical
      to :mod:`repro.hw` extraction (see ``docs/hwexact.md``); requires
      ``use_rs_brief``.
    """

    image_width: int = 640
    image_height: int = 480
    pyramid: PyramidConfig = field(default_factory=PyramidConfig)
    fast: FastConfig = field(default_factory=FastConfig)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    max_features: int = 1024
    use_rs_brief: bool = True
    rescheduled_workflow: bool = True
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if self.max_features <= 0:
            raise ValueError("max_features must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.engine not in ENGINES:
            raise ValueError(
                unknown_name_message("extraction engine", str(self.engine), ENGINES)
            )
        if self.engine == "hwexact" and not self.use_rs_brief:
            raise ValueError(
                "the hwexact engine models the accelerator datapath, which "
                "implements RS-BRIEF only; set use_rs_brief=True"
            )

    @property
    def image_shape(self) -> Tuple[int, int]:
        return (self.image_height, self.image_width)


@dataclass(frozen=True)
class MatcherConfig:
    """Configuration of descriptor matching."""

    max_hamming_distance: int = 64
    ratio_threshold: float = 0.85
    cross_check: bool = False

    def __post_init__(self) -> None:
        if self.max_hamming_distance < 0:
            raise ValueError("max_hamming_distance must be non-negative")
        if not 0.0 < self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must lie in (0, 1]")


@dataclass(frozen=True)
class TrackerConfig:
    """Configuration of the SLAM tracking front-end."""

    min_matches: int = 12
    ransac_iterations: int = 128
    ransac_threshold_px: float = 3.0
    pose_iterations: int = 15
    keyframe_translation_m: float = 0.08
    keyframe_rotation_rad: float = 0.12
    map_point_ttl_frames: int = 30
    max_map_points: int = 20000


@dataclass(frozen=True)
class SlamConfig:
    """Top-level configuration of the SLAM system."""

    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Configuration of the FPGA accelerator cycle model."""

    clock_hz: float = 100e6
    axi_data_bytes: int = 8
    axi_burst_length: int = 16
    axi_latency_cycles: int = 20
    cache_line_columns: int = 8
    cache_lines: int = 3
    heap_capacity: int = 1024
    matcher_parallelism: int = 4


DEFAULT_SLAM_CONFIG = SlamConfig()
DEFAULT_ACCELERATOR_CONFIG = AcceleratorConfig()
