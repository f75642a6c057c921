"""The global map: insertion, lookup and culling of map points.

Map updating in eSLAM runs only on key frames: new 3-D points observed in the
key frame are added to the global map, and points that have not been matched
for a long period are deleted to keep the map bounded (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MapError
from .map_point import MapPoint

#: Per-point arrays of :class:`GlobalMap`; row ``r`` of each is one point.
_COLUMNS = (
    "_ids",
    "_positions",
    "_descriptors",
    "_created",
    "_last_matched",
    "_times_matched",
)


@dataclass
class MapUpdateStats:
    """Bookkeeping of one map-updating step (consumed by runtime models)."""

    points_added: int = 0
    points_deleted: int = 0
    points_total: int = 0


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class GlobalMap:
    """All landmarks, stored as one row per point in contiguous arrays.

    The arrays are point ids, positions ``(M, 3)``, descriptors ``(M, B)``,
    created frame, last matched frame and times matched.  Ids only grow and
    culling keeps the survivors in order, so the rows stay in ascending id
    order without any sort: the order the matcher's argmin breaks ties by.
    The software matcher and the hardware BRIEF Matcher model both read the
    whole map at once through :meth:`descriptor_matrix`.
    """

    def __init__(self, max_points: int = 20000) -> None:
        if max_points <= 0:
            raise MapError("max_points must be positive")
        self.max_points = max_points
        self._next_id = 0
        self._ids = np.zeros(0, dtype=np.int64)
        self._positions = np.zeros((0, 3), dtype=np.float64)
        self._descriptors = np.zeros((0, 32), dtype=np.uint8)
        self._created = np.zeros(0, dtype=np.int64)
        self._last_matched = np.zeros(0, dtype=np.int64)
        self._times_matched = np.zeros(0, dtype=np.int64)

    # -- basic container protocol -----------------------------------------
    def __len__(self) -> int:
        return int(self._ids.size)

    def _row(self, point_id: int) -> int | None:
        row = int(np.searchsorted(self._ids, point_id))
        if row < self._ids.size and self._ids[row] == point_id:
            return row
        return None

    def __contains__(self, point_id: int) -> bool:
        return self._row(point_id) is not None

    def get(self, point_id: int) -> MapPoint:
        """A snapshot of one point; later map updates do not change it."""
        row = self._row(point_id)
        if row is None:
            raise MapError(f"map point {point_id} does not exist")
        return MapPoint(
            point_id=int(self._ids[row]),
            position=self._positions[row].copy(),
            descriptor=self._descriptors[row].copy(),
            created_frame=int(self._created[row]),
            last_matched_frame=int(self._last_matched[row]),
            times_matched=int(self._times_matched[row]),
        )

    # -- insertion -----------------------------------------------------------
    def add_point(
        self, position: np.ndarray, descriptor: np.ndarray, created_frame: int
    ) -> MapPoint:
        """Create a new landmark; returns a snapshot of the created point."""
        if len(self) >= self.max_points:
            raise MapError(f"map is full (max_points={self.max_points})")
        point = MapPoint(self._next_id, position, descriptor, created_frame)
        self.add_points(point.position[np.newaxis], point.descriptor[np.newaxis], created_frame)
        return point

    def add_points(
        self, positions: np.ndarray, descriptors: np.ndarray, created_frame: int
    ) -> np.ndarray:
        """Append ``(K, 3)`` positions and ``(K, B)`` descriptors as new points.

        Rows beyond ``max_points`` are dropped.  Returns the ids of the
        points created, in row order.
        """
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if (
            descriptors.ndim != 2
            or descriptors.shape[0] != positions.shape[0]
            or descriptors.shape[1] == 0
        ):
            raise MapError("descriptors must be one non-empty byte row per position")
        if not len(self):
            self._descriptors = np.zeros((0, descriptors.shape[1]), dtype=np.uint8)
        elif descriptors.shape[1] != self._descriptors.shape[1]:
            raise MapError(
                f"descriptors of {descriptors.shape[1]} bytes do not fit a map "
                f"of {self._descriptors.shape[1]}-byte descriptors"
            )
        count = min(positions.shape[0], self.max_points - len(self))
        ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        frames = np.full(count, created_frame, dtype=np.int64)
        self._next_id += count
        self._ids = np.concatenate([self._ids, ids])
        self._positions = np.concatenate([self._positions, positions[:count]])
        self._descriptors = np.concatenate([self._descriptors, descriptors[:count]])
        self._created = np.concatenate([self._created, frames])
        self._last_matched = np.concatenate([self._last_matched, frames])
        self._times_matched = np.concatenate(
            [self._times_matched, np.zeros(count, dtype=np.int64)]
        )
        return ids

    # -- dense views ------------------------------------------------------------
    # Read-only views of the stored arrays: no copy.  An add or a cull
    # replaces the arrays, so a view describes the map until the next one.
    def descriptor_matrix(self) -> np.ndarray:
        """All descriptors ``(M, B)`` in ascending point-id order."""
        return _read_only(self._descriptors)

    def position_matrix(self) -> np.ndarray:
        """All positions ``(M, 3)`` in ascending point-id order."""
        return _read_only(self._positions)

    def point_ids(self) -> np.ndarray:
        """Point ids in the row order of the dense matrices."""
        return _read_only(self._ids)

    # -- match bookkeeping / culling --------------------------------------------
    def record_matches(self, rows: np.ndarray, frame_index: int) -> None:
        """Record that the points at matrix ``rows`` matched in ``frame_index``.

        A row listed twice counts twice.  Raises :class:`MapError`, with
        nothing written, if a row is out of range or ``frame_index`` is
        older than a point's last match.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= len(self):
            raise MapError(f"map rows must lie in [0, {len(self)})")
        if frame_index < self._last_matched[rows].max():
            raise MapError("frames must be processed in increasing order")
        self._last_matched[rows] = frame_index
        np.add.at(self._times_matched, rows, 1)

    def cull(self, current_frame: int, ttl_frames: int) -> int:
        """Delete points unmatched for more than ``ttl_frames``; return count."""
        if ttl_frames <= 0:
            raise MapError("ttl_frames must be positive")
        keep = current_frame - self._last_matched <= ttl_frames
        removed = len(self) - int(np.count_nonzero(keep))
        if removed:
            for name in _COLUMNS:
                setattr(self, name, getattr(self, name)[keep])
        return removed
