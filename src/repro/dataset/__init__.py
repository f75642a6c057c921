"""Dataset substrate: synthetic TUM-style RGB-D sequences and trajectory I/O."""

from .scene import PlanarScene, RenderedView, TexturedPlane, room_scene, wall_scene
from .trajectories import (
    SEQUENCE_BUILDERS,
    TrajectoryProfile,
    build_trajectory,
    desk_trajectory,
    room_trajectory,
    rpy_trajectory,
    xyz_trajectory,
)
from .sequence import (
    RgbdFrame,
    RgbdSequence,
    SequenceSpec,
    make_sequence,
)
from .tum import (
    TrajectoryEntry,
    format_trajectory,
    parse_trajectory,
    write_trajectory,
)

__all__ = [
    "PlanarScene",
    "TexturedPlane",
    "RenderedView",
    "wall_scene",
    "room_scene",
    "SEQUENCE_BUILDERS",
    "TrajectoryProfile",
    "build_trajectory",
    "xyz_trajectory",
    "rpy_trajectory",
    "desk_trajectory",
    "room_trajectory",
    "RgbdFrame",
    "RgbdSequence",
    "SequenceSpec",
    "make_sequence",
    "TrajectoryEntry",
    "format_trajectory",
    "parse_trajectory",
    "write_trajectory",
]
