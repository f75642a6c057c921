"""TUM RGB-D trajectory file format.

Ground-truth and estimated trajectories in the TUM benchmark are text files
with one line per pose::

    timestamp tx ty tz qx qy qz qw

where ``(tx, ty, tz)`` is the camera position in the world frame and the
quaternion is the camera-to-world orientation.  This module reads and writes
that format and converts to/from the library's world-to-camera
:class:`~repro.geometry.Pose` representation, so trajectories produced here
can be checked with the standard TUM evaluation tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np

from ..errors import DatasetError
from ..geometry import Pose, rotation_from_quaternion, quaternion_from_rotation


@dataclass(frozen=True)
class TrajectoryEntry:
    """One timestamped pose in TUM convention (camera-to-world)."""

    timestamp: float
    position: np.ndarray
    quaternion: np.ndarray  # (qx, qy, qz, qw)

    def to_world_to_camera(self) -> Pose:
        """Convert to the library's world-to-camera pose."""
        rotation_cw = rotation_from_quaternion(self.quaternion)
        rotation_wc = rotation_cw.T
        translation = -rotation_wc @ np.asarray(self.position, dtype=np.float64)
        return Pose(rotation_wc, translation)

    @classmethod
    def from_world_to_camera(cls, timestamp: float, pose: Pose) -> "TrajectoryEntry":
        rotation_cw = pose.rotation.T
        position = pose.camera_center()
        return cls(
            timestamp=timestamp,
            position=position,
            quaternion=quaternion_from_rotation(rotation_cw),
        )


def format_trajectory(
    timestamps: Sequence[float], poses: Sequence[Pose]
) -> str:
    """Serialise world-to-camera poses as TUM trajectory text."""
    if len(timestamps) != len(poses):
        raise DatasetError("timestamps and poses must have the same length")
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for timestamp, pose in zip(timestamps, poses):
        entry = TrajectoryEntry.from_world_to_camera(timestamp, pose)
        tx, ty, tz = entry.position
        qx, qy, qz, qw = entry.quaternion
        lines.append(
            f"{timestamp:.6f} {tx:.6f} {ty:.6f} {tz:.6f} "
            f"{qx:.6f} {qy:.6f} {qz:.6f} {qw:.6f}"
        )
    return "\n".join(lines) + "\n"


def parse_trajectory(text: str) -> List[TrajectoryEntry]:
    """Parse TUM trajectory text into timestamped entries."""
    entries: List[TrajectoryEntry] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise DatasetError(
                f"line {line_number}: expected 8 fields, got {len(fields)}"
            )
        try:
            values = [float(field) for field in fields]
        except ValueError as exc:
            raise DatasetError(f"line {line_number}: non-numeric field") from exc
        entries.append(
            TrajectoryEntry(
                timestamp=values[0],
                position=np.array(values[1:4]),
                quaternion=np.array(values[4:8]),
            )
        )
    return entries


def write_trajectory(
    path: str | Path, timestamps: Sequence[float], poses: Sequence[Pose]
) -> None:
    """Write world-to-camera poses to ``path`` in TUM format."""
    Path(path).write_text(format_trajectory(timestamps, poses))
