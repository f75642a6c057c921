"""Ground-truth trajectory generators.

The paper evaluates on five TUM sequences whose motions have distinct
characters: ``fr1/xyz`` and ``fr2/xyz`` are translation-dominated, ``fr2/rpy``
is rotation-dominated, ``fr1/desk`` sweeps over a desk with mixed motion and
``fr1/room`` loops through an office.  These generators produce ground-truth
camera trajectories with the same characters, expressed as world-to-camera
:class:`~repro.geometry.Pose` sequences at a fixed frame rate.

All generators keep per-frame motion small (a few millimetres / milliradians)
so frame-to-frame tracking is well-conditioned, just as the 30 Hz TUM capture
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..errors import DatasetError
from ..geometry import Pose, rotation_from_euler


@dataclass(frozen=True)
class TrajectoryProfile:
    """A named ground-truth trajectory."""

    name: str
    poses: tuple
    frame_rate_hz: float = 30.0

    def __len__(self) -> int:
        return len(self.poses)

    def timestamps(self) -> np.ndarray:
        return np.arange(len(self.poses)) / self.frame_rate_hz


def _camera_pose(position: np.ndarray, roll: float, pitch: float, yaw: float) -> Pose:
    """Build a world-to-camera pose from a camera position and orientation.

    ``position`` is the camera centre in world coordinates; the rotation is
    the camera-to-world orientation built from roll/pitch/yaw.  The returned
    pose is the world-to-camera transform used throughout the library.
    """
    rotation_cw = rotation_from_euler(roll, pitch, yaw)  # camera-to-world
    rotation_wc = rotation_cw.T
    translation = -rotation_wc @ np.asarray(position, dtype=np.float64)
    return Pose(rotation_wc, translation)


def xyz_trajectory(
    num_frames: int = 60,
    amplitude_m: float = 0.25,
    periods: float = 1.5,
) -> List[Pose]:
    """Translation-only sinusoidal motion along x, y and z (fr1/xyz style)."""
    if num_frames < 2:
        raise DatasetError("trajectory needs at least 2 frames")
    poses = []
    for k in range(num_frames):
        phase = 2.0 * math.pi * periods * k / num_frames
        position = np.array(
            [
                amplitude_m * math.sin(phase),
                0.5 * amplitude_m * math.sin(2.0 * phase),
                0.3 * amplitude_m * (1.0 - math.cos(phase)),
            ]
        )
        poses.append(_camera_pose(position, 0.0, 0.0, 0.0))
    return poses


def rpy_trajectory(
    num_frames: int = 60,
    amplitude_rad: float = 0.12,
    periods: float = 1.5,
) -> List[Pose]:
    """Rotation-only oscillation about roll, pitch and yaw (fr2/rpy style)."""
    if num_frames < 2:
        raise DatasetError("trajectory needs at least 2 frames")
    poses = []
    for k in range(num_frames):
        phase = 2.0 * math.pi * periods * k / num_frames
        roll = amplitude_rad * math.sin(phase)
        pitch = 0.6 * amplitude_rad * math.sin(2.0 * phase)
        yaw = 0.8 * amplitude_rad * (1.0 - math.cos(phase))
        poses.append(_camera_pose(np.zeros(3), roll, pitch, yaw))
    return poses


def desk_trajectory(
    num_frames: int = 80,
    sweep_m: float = 0.5,
    yaw_sweep_rad: float = 0.35,
) -> List[Pose]:
    """Mixed translation + yaw sweep over a desk-like workspace (fr1/desk style)."""
    if num_frames < 2:
        raise DatasetError("trajectory needs at least 2 frames")
    poses = []
    for k in range(num_frames):
        s = k / (num_frames - 1)
        # ease-in-out lateral sweep with a gentle bob in height and depth
        lateral = sweep_m * (0.5 - 0.5 * math.cos(math.pi * s)) - sweep_m / 2.0
        position = np.array(
            [
                lateral,
                0.05 * math.sin(2.0 * math.pi * s),
                0.15 * math.sin(math.pi * s),
            ]
        )
        yaw = yaw_sweep_rad * (s - 0.5)
        pitch = 0.08 * math.sin(2.0 * math.pi * s)
        poses.append(_camera_pose(position, 0.0, pitch, yaw))
    return poses


def room_trajectory(
    num_frames: int = 100,
    radius_m: float = 0.8,
    yaw_total_rad: float = math.pi / 2.0,
) -> List[Pose]:
    """Arc through a room with continuous yaw (fr1/room style loop segment)."""
    if num_frames < 2:
        raise DatasetError("trajectory needs at least 2 frames")
    poses = []
    for k in range(num_frames):
        s = k / (num_frames - 1)
        angle = yaw_total_rad * s
        position = np.array(
            [
                radius_m * math.sin(angle),
                0.04 * math.sin(4.0 * math.pi * s),
                radius_m * (1.0 - math.cos(angle)),
            ]
        )
        poses.append(_camera_pose(position, 0.0, 0.0, angle))
    return poses


#: Mapping from TUM-style sequence names to (trajectory builder, recommended scene).
SEQUENCE_BUILDERS: Dict[str, Callable[[int], List[Pose]]] = {
    "fr1/xyz": lambda n: xyz_trajectory(num_frames=n),
    "fr2/xyz": lambda n: xyz_trajectory(num_frames=n, amplitude_m=0.18, periods=1.0),
    "fr1/desk": lambda n: desk_trajectory(num_frames=n),
    "fr1/room": lambda n: room_trajectory(num_frames=n),
    "fr2/rpy": lambda n: rpy_trajectory(num_frames=n),
}


def build_trajectory(name: str, num_frames: int, frame_rate_hz: float = 30.0) -> TrajectoryProfile:
    """Build the named trajectory profile (one of :data:`SEQUENCE_BUILDERS`)."""
    if name not in SEQUENCE_BUILDERS:
        raise DatasetError(
            f"unknown sequence '{name}'; available: {sorted(SEQUENCE_BUILDERS)}"
        )
    poses = SEQUENCE_BUILDERS[name](num_frames)
    return TrajectoryProfile(name=name, poses=tuple(poses), frame_rate_hz=frame_rate_hz)
