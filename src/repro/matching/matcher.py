"""Brute-force descriptor matching.

Feature matching in eSLAM compares every descriptor of the current frame with
every descriptor of the global map and keeps the minimum-distance candidate
(Section 3.2).  The software matcher reproduces that behaviour and adds the
standard quality filters (maximum distance, Lowe ratio test, cross-check)
used to reject ambiguous matches before pose estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import MatcherConfig
from ..errors import DescriptorError
from .hamming import as_descriptor_matrix, distance_tiles


@dataclass(frozen=True)
class Match:
    """A single descriptor correspondence.

    ``query_index`` indexes the current-frame descriptor set, ``train_index``
    the reference (map) descriptor set, and ``distance`` is their Hamming
    distance in bits.
    """

    query_index: int
    train_index: int
    distance: int


@dataclass
class MatchStatistics:
    """Aggregate statistics of one matching pass (used by runtime models)."""

    num_queries: int = 0
    num_candidates: int = 0
    distance_evaluations: int = 0
    accepted: int = 0
    rejected_distance: int = 0
    rejected_ratio: int = 0
    rejected_cross_check: int = 0


@dataclass(frozen=True)
class MatchArrays:
    """Accepted correspondences as parallel arrays (the matcher hot path).

    The array form of a ``List[Match]``: row ``i`` of the three arrays is
    one accepted correspondence.  Consumers that only gather by index (pose
    estimation, map updates) can use the arrays directly; ``to_matches``
    materialises the per-correspondence objects for the object API.
    """

    query_indices: np.ndarray
    train_indices: np.ndarray
    distances: np.ndarray

    @property
    def size(self) -> int:
        return int(self.query_indices.size)

    @classmethod
    def empty(cls) -> "MatchArrays":
        return cls(
            query_indices=np.zeros(0, dtype=np.int64),
            train_indices=np.zeros(0, dtype=np.int64),
            distances=np.zeros(0, dtype=np.int64),
        )

    def to_matches(self) -> List[Match]:
        """Materialise :class:`Match` objects (identical to the object API)."""
        return [
            Match(query_index=int(qi), train_index=int(ti), distance=int(d))
            for qi, ti, d in zip(
                self.query_indices.tolist(),
                self.train_indices.tolist(),
                self.distances.tolist(),
            )
        ]


class BruteForceMatcher:
    """Exhaustive Hamming matcher with optional ratio and cross-check filters."""

    def __init__(self, config: MatcherConfig | None = None) -> None:
        self.config = config or MatcherConfig()
        self.last_stats = MatchStatistics()

    def match(
        self,
        query_descriptors: np.ndarray,
        train_descriptors: np.ndarray,
    ) -> List[Match]:
        """Match every query descriptor against the train set.

        Returns at most one match per query descriptor; matches that fail the
        distance, ratio or cross-check criteria are dropped.  Thin object
        wrapper over :meth:`match_arrays` — identical output and statistics.
        """
        return self.match_arrays(query_descriptors, train_descriptors).to_matches()

    def match_arrays(
        self,
        query_descriptors: np.ndarray,
        train_descriptors: np.ndarray,
    ) -> MatchArrays:
        """Array fast path of :meth:`match`: no per-``Match`` construction.

        One fused pass over the distance tiles keeps, per query, the best
        and second-best distance and the argmin (and, with cross-check, the
        reverse argmin per train row), so the ``N x M`` distance matrix is
        never built.  Every quality filter then runs as one array pass per
        criterion; the rejection counters tally exactly like the old
        per-query loop (distance first, then ratio, then cross-check), and
        the accepted rows come back as :class:`MatchArrays` so hot paths
        never build per-correspondence Python objects.
        """
        query = np.asarray(query_descriptors, dtype=np.uint8)
        train = np.asarray(train_descriptors, dtype=np.uint8)
        stats = MatchStatistics(
            num_queries=int(query.shape[0]) if query.ndim == 2 else 0,
            num_candidates=int(train.shape[0]) if train.ndim == 2 else 0,
        )
        self.last_stats = stats
        if query.size == 0 or train.size == 0:
            return MatchArrays.empty()
        if query.ndim != 2 or train.ndim != 2:
            raise DescriptorError("descriptor sets must be 2-D (N, bytes) arrays")
        ratio_test = self.config.ratio_threshold < 1.0 and train.shape[0] >= 2
        best = _reduce_distance_tiles(
            query, train, second_best=ratio_test, reverse_best=self.config.cross_check
        )
        stats.distance_evaluations = query.shape[0] * train.shape[0]
        query_range = np.arange(query.shape[0])
        alive = best.distance <= self.config.max_hamming_distance
        stats.rejected_distance = int(np.count_nonzero(~alive))
        passes_ratio = self._ratio_test_mask(best.distance, best.second_distance)
        stats.rejected_ratio = int(np.count_nonzero(alive & ~passes_ratio))
        alive &= passes_ratio
        if self.config.cross_check:
            mutual = best.reverse_train[best.train] == query_range
            stats.rejected_cross_check = int(np.count_nonzero(alive & ~mutual))
            alive &= mutual
        accepted = np.nonzero(alive)[0].astype(np.int64)
        stats.accepted = int(accepted.size)
        return MatchArrays(
            query_indices=accepted,
            train_indices=best.train[accepted],
            distances=best.distance[accepted].astype(np.int64),
        )

    def _ratio_test_mask(
        self, best_distance: np.ndarray, second_distance: np.ndarray | None
    ) -> np.ndarray:
        """Lowe ratio test for every query row at once.

        A second-best of 0 always fails; ``second_distance`` is ``None``
        when the test is disabled or there is only one candidate, and then
        every row passes.
        """
        if second_distance is None:
            return np.ones(best_distance.shape[0], dtype=bool)
        second = second_distance.astype(np.float64)
        return (second > 0) & (best_distance <= self.config.ratio_threshold * second)


@dataclass(frozen=True)
class _TileReduction:
    """Per-query (and optionally per-train) reductions of the distance set.

    ``train``/``distance`` are every query row's argmin (first index on
    ties, as ``np.argmin``) and its distance.  ``second_distance`` is the
    row minimum with the argmin *position* masked out, so a duplicate of
    the best distance counts as second-best.  ``reverse_train`` is every
    train column's argmin over the queries (lowest query index on ties).
    """

    train: np.ndarray
    distance: np.ndarray
    second_distance: np.ndarray | None
    reverse_train: np.ndarray | None


#: Fills the masked argmin position before the second-best row minimum;
#: above every distance the int16 accumulator can hold.
_MASKED_DISTANCE = np.iinfo(np.int16).max


def _reduce_distance_tiles(
    query: np.ndarray, train: np.ndarray, *, second_best: bool, reverse_best: bool
) -> _TileReduction:
    """Reduce the query x train distances tile by tile (never the full matrix).

    Bit-identical to ``np.argmin`` / masked ``min`` over the full matrix:
    rows reduce within one tile, and a train column's running minimum is
    replaced only by a strictly smaller one from a later tile, so the lowest
    query index keeps a tie.
    """
    num_queries, num_train = query.shape[0], train.shape[0]
    best_train = np.empty(num_queries, dtype=np.int64)
    best_distance = np.empty(num_queries, dtype=np.int16)
    second = np.empty(num_queries, dtype=np.int16) if second_best else None
    reverse_train = np.zeros(num_train, dtype=np.int64) if reverse_best else None
    column_min = np.full(num_train, np.iinfo(np.int32).max, dtype=np.int32)
    for start, block in distance_tiles(query, train):
        height = block.shape[0]
        stop = start + height
        rows = np.arange(height)
        tile_best = block.argmin(axis=1)
        best_train[start:stop] = tile_best
        best_distance[start:stop] = block[rows, tile_best]
        if reverse_train is not None:
            # (distance << 16 | row) keys: one min over the rows yields a
            # column's minimum distance and, on ties, its lowest row
            keys = np.left_shift(block, 16, dtype=np.int32)
            keys |= rows.astype(np.int32)[:, np.newaxis]
            tile_keys = keys.min(axis=0)
            tile_min = tile_keys >> 16
            improved = tile_min < column_min
            column_min[improved] = tile_min[improved]
            reverse_train[improved] = (tile_keys[improved] & 0xFFFF) + start
        if second is not None:
            block[rows, tile_best] = _MASKED_DISTANCE
            second[start:stop] = block.min(axis=1)
    return _TileReduction(
        train=best_train,
        distance=best_distance,
        second_distance=second,
        reverse_train=reverse_train,
    )


def match_minimum_distance(
    query_descriptors: np.ndarray, train_descriptors: np.ndarray
) -> List[Match]:
    """Pure minimum-distance matching with no filters.

    This is exactly what the hardware BRIEF Matcher computes: for every
    current-frame descriptor, the index of the global-map descriptor with the
    minimum Hamming distance.  Filters are applied later on the host.
    """
    query = as_descriptor_matrix(query_descriptors, "query descriptors")
    train = as_descriptor_matrix(train_descriptors, "train descriptors")
    if query.size == 0 or train.size == 0:
        return []
    best = _reduce_distance_tiles(query, train, second_best=False, reverse_best=False)
    return [
        Match(query_index=qi, train_index=ti, distance=d)
        for qi, (ti, d) in enumerate(zip(best.train.tolist(), best.distance.tolist()))
    ]


def filter_matches_by_distance(matches: Sequence[Match], max_distance: int) -> List[Match]:
    """Return the subset of ``matches`` whose distance is within ``max_distance``."""
    return [m for m in matches if m.distance <= max_distance]
