"""Map points: 3-D landmarks with binary descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MapError


@dataclass(frozen=True)
class MapPoint:
    """A snapshot of one landmark of the global map.

    :class:`~repro.slam.GlobalMap` stores its points as arrays and returns
    a ``MapPoint`` from ``get`` / ``add_point``.  The snapshot is frozen:
    match bookkeeping goes through ``GlobalMap.record_matches``, so no
    caller can update a copy by mistake.

    Attributes
    ----------
    point_id:
        Unique identifier assigned by the map.
    position:
        World-frame 3-D coordinates.
    descriptor:
        Representative 256-bit descriptor (32 bytes) of the landmark.
    created_frame:
        Index of the key frame that created the point.
    last_matched_frame:
        Index of the most recent frame that matched this point; map updating
        deletes points that have not been matched for a long period.
    times_matched:
        Number of frames that matched this point (a simple quality measure).
    """

    point_id: int
    position: np.ndarray
    descriptor: np.ndarray
    created_frame: int
    last_matched_frame: int = field(default=-1)
    times_matched: int = 0

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64).reshape(3)
        descriptor = np.asarray(self.descriptor, dtype=np.uint8)
        if descriptor.ndim != 1 or descriptor.size == 0:
            raise MapError("map point descriptor must be a non-empty byte vector")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "descriptor", descriptor)
        if self.last_matched_frame < 0:
            object.__setattr__(self, "last_matched_frame", self.created_frame)

    def frames_since_match(self, current_frame: int) -> int:
        """Number of frames since the point was last matched."""
        return max(0, current_frame - self.last_matched_frame)
