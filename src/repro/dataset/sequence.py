"""Synthetic RGB-D sequences in the style of the TUM benchmark.

A :class:`RgbdSequence` bundles rendered grayscale images, dense depth maps,
timestamps and the ground-truth trajectory for one synthetic "TUM-like"
sequence.  :func:`make_sequence` builds the five sequences evaluated in the
paper (fr1/xyz, fr1/desk, fr1/room, fr2/xyz, fr2/rpy) from the matching scene
and trajectory generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from ..errors import DatasetError
from ..geometry import PinholeCamera, Pose
from ..image import GrayImage
from .scene import PlanarScene, RenderedView, room_scene, wall_scene
from .trajectories import SEQUENCE_BUILDERS, TrajectoryProfile, build_trajectory


@dataclass(frozen=True)
class RgbdFrame:
    """One synchronised RGB-D frame with its ground-truth pose."""

    index: int
    timestamp: float
    image: GrayImage
    depth: np.ndarray
    ground_truth_pose: Pose  # world-to-camera

    def depth_at(self, x: float, y: float) -> float:
        """Nearest-neighbour depth lookup at pixel ``(x, y)`` (0 if invalid)."""
        xi, yi = int(round(x)), int(round(y))
        if not (0 <= yi < self.depth.shape[0] and 0 <= xi < self.depth.shape[1]):
            return 0.0
        return float(self.depth[yi, xi])


@dataclass
class RgbdSequence:
    """A full synthetic sequence: frames, camera and ground truth."""

    name: str
    camera: PinholeCamera
    frames: List[RgbdFrame] = field(default_factory=list)
    frame_rate_hz: float = 30.0

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[RgbdFrame]:
        return iter(self.frames)

    def __getitem__(self, index: int) -> RgbdFrame:
        return self.frames[index]

    def ground_truth_poses(self) -> List[Pose]:
        return [frame.ground_truth_pose for frame in self.frames]

    def timestamps(self) -> np.ndarray:
        return np.array([frame.timestamp for frame in self.frames])


@dataclass(frozen=True)
class SequenceSpec:
    """Parameters controlling synthetic sequence generation."""

    name: str
    num_frames: int = 40
    image_width: int = 640
    image_height: int = 480
    frame_rate_hz: float = 30.0
    depth_noise_std_m: float = 0.0
    image_noise_std: float = 0.0
    seed: int = 0


def _scene_for(name: str) -> PlanarScene:
    """Pick the scene type that keeps texture in view for the given motion."""
    if name in ("fr1/room", "fr1/desk"):
        return room_scene()
    return wall_scene()


def _scaled_camera(spec: SequenceSpec, base: PinholeCamera) -> PinholeCamera:
    """Scale the TUM intrinsics if a reduced resolution was requested."""
    if spec.image_width == base.width and spec.image_height == base.height:
        return base
    factor = spec.image_width / base.width
    expected_height = int(round(base.height * factor))
    if expected_height != spec.image_height:
        raise DatasetError(
            "image_width/image_height must preserve the 4:3 TUM aspect ratio"
        )
    return base.scaled(factor)


def make_sequence(
    spec: SequenceSpec,
    scene: Optional[PlanarScene] = None,
    camera: Optional[PinholeCamera] = None,
) -> RgbdSequence:
    """Render the named synthetic sequence.

    Parameters
    ----------
    spec:
        Sequence name (one of the five TUM-style names), length, resolution
        and optional sensor-noise levels.
    scene, camera:
        Override the default scene / intrinsics (defaults follow the TUM
        calibration of the corresponding freiburg set).
    """
    if spec.name not in SEQUENCE_BUILDERS:
        raise DatasetError(
            f"unknown sequence '{spec.name}'; available: {sorted(SEQUENCE_BUILDERS)}"
        )
    if spec.num_frames < 2:
        raise DatasetError("a sequence needs at least 2 frames")
    base_camera = camera or (
        PinholeCamera.tum_freiburg2() if spec.name.startswith("fr2") else PinholeCamera.tum_freiburg1()
    )
    cam = _scaled_camera(spec, base_camera)
    scene = scene or _scene_for(spec.name)
    profile: TrajectoryProfile = build_trajectory(
        spec.name, spec.num_frames, spec.frame_rate_hz
    )
    rng = np.random.default_rng(spec.seed)
    frames: List[RgbdFrame] = []
    for index, pose in enumerate(profile.poses):
        view: RenderedView = scene.render(cam, pose)
        image = view.image
        depth = view.depth
        if spec.image_noise_std > 0:
            noisy = image.as_float() + rng.normal(0.0, spec.image_noise_std, image.shape)
            image = GrayImage(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))
        if spec.depth_noise_std_m > 0:
            noise = rng.normal(0.0, spec.depth_noise_std_m, depth.shape)
            depth = np.where(depth > 0, np.maximum(depth + noise, 1e-3), 0.0)
        frames.append(
            RgbdFrame(
                index=index,
                timestamp=index / spec.frame_rate_hz,
                image=image,
                depth=depth,
                ground_truth_pose=pose,
            )
        )
    return RgbdSequence(
        name=spec.name, camera=cam, frames=frames, frame_rate_hz=spec.frame_rate_hz
    )
