"""Descriptor matching: brute force, or through a projection window.

Feature matching in eSLAM compares every descriptor of the current frame with
every descriptor of the global map and keeps the minimum-distance candidate
(Section 3.2).  The software matcher reproduces that behaviour and adds the
standard quality filters (maximum distance, Lowe ratio test) used to reject
ambiguous matches before pose estimation.

Given the frame's feature pixels and the map points' pixels projected under
a pose prior, :meth:`BruteForceMatcher.match_arrays` searches by projection
instead, as ORB-SLAM2's tracking does: the image is split into a fixed
:data:`WINDOW_GRID` of cells over the features' extent, and each cell's
features meet, as dense tiles, only the map points that project into the
cell's box grown by :data:`WINDOW_RADIUS_PX`.  The tracker matches every
frame that way and falls back to the whole-map search when the window loses
the frame.  Either way the statistics count the brute-force pairs, which
the platform models charge (see :class:`MatchStatistics`);
``docs/matching.md`` has the details.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..config import MatcherConfig
from ..errors import DescriptorError
from .hamming import (
    TileScratch,
    as_descriptor_matrix,
    descriptor_words,
    distance_tiles,
    word_tiles,
)


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
    """Aggregate statistics of one matching pass (used by runtime models).

    ``distance_evaluations`` is always ``num_queries * num_candidates``, the
    pairs a brute-force search evaluates, also for a windowed pass that
    evaluates a fraction of them: the ARM and i7 runtime models and the
    paper's BRIEF Matcher charge that count.
    """

    num_queries: int = 0
    num_candidates: int = 0
    distance_evaluations: int = 0
    accepted: int = 0
    rejected_distance: int = 0
    rejected_ratio: int = 0


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
    """Exhaustive Hamming matcher with distance and ratio filters."""

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
        distance or ratio criteria are dropped.  Thin object
        wrapper over :meth:`match_arrays` — identical output and statistics.
        """
        return self.match_arrays(query_descriptors, train_descriptors).to_matches()

    def match_arrays(
        self,
        query_descriptors: np.ndarray,
        train_descriptors: np.ndarray,
        query_pixels: np.ndarray | None = None,
        train_pixels: np.ndarray | None = None,
    ) -> MatchArrays:
        """Array fast path of :meth:`match`: no per-``Match`` construction.

        One fused pass over the distance tiles keeps, per query, the best
        and second-best distance and the argmin, so the ``N x M`` distance
        matrix is never built.  Every quality filter then runs as one array
        pass per criterion; the rejection counters tally exactly like the old
        per-query loop (distance first, then ratio), and
        the accepted rows come back as :class:`MatchArrays` so hot paths
        never build per-correspondence Python objects.

        With ``query_pixels`` ``(N, 2)`` and ``train_pixels`` ``(M, 2)`` the
        search is windowed: each query is compared only with the train rows
        whose pixel lies in its image cell's box (:data:`WINDOW_GRID`,
        :data:`WINDOW_RADIUS_PX`); a NaN train pixel lies in no box.  Without
        them every query is compared with every train row.
        ``last_stats.distance_evaluations`` is ``N * M`` either way: it counts
        the brute-force pairs that the platform models charge, not the pairs
        the window evaluated.
        """
        if (query_pixels is None) != (train_pixels is None):
            raise DescriptorError("query_pixels and train_pixels go together")
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
        if query_pixels is None:
            best = _reduce_distance_tiles(query, train, second_best=ratio_test)
        else:
            best = _reduce_windowed(
                query, train, query_pixels, train_pixels, second_best=ratio_test
            )
        stats.distance_evaluations = query.shape[0] * train.shape[0]
        # a windowed query whose box held no train row has no best at all
        alive = (best.distance <= self.config.max_hamming_distance) & (
            best.distance < _MASKED_DISTANCE
        )
        stats.rejected_distance = int(np.count_nonzero(~alive))
        passes_ratio = self._ratio_test_mask(best.distance, best.second_distance)
        stats.rejected_ratio = int(np.count_nonzero(alive & ~passes_ratio))
        alive &= passes_ratio
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
        every row passes.  A row whose window held one candidate has no
        second-best either (:data:`_MASKED_DISTANCE`) and passes.
        """
        if second_distance is None:
            return np.ones(best_distance.shape[0], dtype=bool)
        second = second_distance.astype(np.float64)
        passes = (second > 0) & (best_distance <= self.config.ratio_threshold * second)
        return passes | (second_distance == _MASKED_DISTANCE)


@dataclass(frozen=True)
class _TileReduction:
    """Per-query reductions of the distance set.

    ``train``/``distance`` are every query row's argmin (first index on
    ties, as ``np.argmin``) and its distance.  ``second_distance`` is the
    row minimum with the argmin *position* masked out, so a duplicate of
    the best distance counts as second-best.
    """

    train: np.ndarray
    distance: np.ndarray
    second_distance: np.ndarray | None


#: Fills the masked argmin position before the second-best row minimum;
#: above every distance the int16 accumulator can hold.  A windowed query
#: with no candidate reads it as its best distance, one with a single
#: candidate as its second-best.
_MASKED_DISTANCE = np.iinfo(np.int16).max

#: Columns and rows of the windowed search's image grid, laid over the
#: extent of the query pixels.  Finer grids evaluate fewer pairs but pay
#: a fixed numpy cost per cell: on the perfbench sequences 16x12 took
#: about twice the FM time of 8x6, and 4x3 read level with it.
WINDOW_GRID = (8, 6)

#: Pixels by which each grid cell's box grows to collect train pixels:
#: every train row within this distance (per axis) of a query is compared
#: with it.
WINDOW_RADIUS_PX = 16.0


def _reduce_tiles(
    tiles: Iterator[Tuple[int, np.ndarray]],
    best_train: np.ndarray,
    best_distance: np.ndarray,
    second: np.ndarray | None,
) -> None:
    """Write each tile's row argmin, minimum and second-best into the outputs.

    Bit-identical to ``np.argmin`` / masked ``min`` over the full matrix,
    because every query row reduces within one tile.
    """
    for start, block in tiles:
        height = block.shape[0]
        stop = start + height
        rows = np.arange(height)
        tile_best = block.argmin(axis=1)
        best_train[start:stop] = tile_best
        best_distance[start:stop] = block[rows, tile_best]
        if second is not None:
            block[rows, tile_best] = _MASKED_DISTANCE
            second[start:stop] = block.min(axis=1)


def _reduce_distance_tiles(
    query: np.ndarray, train: np.ndarray, *, second_best: bool
) -> _TileReduction:
    """Reduce the query x train distances tile by tile (never the full matrix)."""
    num_queries = query.shape[0]
    best_train = np.empty(num_queries, dtype=np.int64)
    best_distance = np.empty(num_queries, dtype=np.int16)
    second = np.empty(num_queries, dtype=np.int16) if second_best else None
    _reduce_tiles(distance_tiles(query, train), best_train, best_distance, second)
    return _TileReduction(train=best_train, distance=best_distance, second_distance=second)


def _reduce_windowed(
    query: np.ndarray,
    train: np.ndarray,
    query_pixels: np.ndarray,
    train_pixels: np.ndarray,
    *,
    second_best: bool,
) -> _TileReduction:
    """Reduce each grid cell's queries against the train rows in its box.

    The descriptors are checked and viewed as words once; the queries are
    sorted by cell once, so a cell's rows are one slice, and only its train
    columns are gathered.  Every cell's dense tiles share one
    :class:`TileScratch`.  Within a cell the reduction is the brute-force
    one over the cell's train subset, in ascending train order, so ties
    still break to the lowest train row.
    """
    query_words, train_columns = descriptor_words(query, train)
    query_xy = np.asarray(query_pixels, dtype=np.float64).reshape(query.shape[0], 2)
    train_xy = np.asarray(train_pixels, dtype=np.float64).reshape(train.shape[0], 2)
    columns, rows = WINDOW_GRID
    x_edges = np.linspace(query_xy[:, 0].min(), query_xy[:, 0].max(), columns + 1)
    y_edges = np.linspace(query_xy[:, 1].min(), query_xy[:, 1].max(), rows + 1)
    column = np.clip(np.searchsorted(x_edges, query_xy[:, 0], side="right") - 1, 0, columns - 1)
    row = np.clip(np.searchsorted(y_edges, query_xy[:, 1], side="right") - 1, 0, rows - 1)
    cell = row * columns + column
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell[order], np.arange(columns * rows + 1))
    sorted_words = query_words[order]
    # NaN compares false, so a train row without a pixel joins no box
    in_column = [
        (train_xy[:, 0] >= x_edges[c] - WINDOW_RADIUS_PX)
        & (train_xy[:, 0] <= x_edges[c + 1] + WINDOW_RADIUS_PX)
        for c in range(columns)
    ]
    in_row = [
        (train_xy[:, 1] >= y_edges[r] - WINDOW_RADIUS_PX)
        & (train_xy[:, 1] <= y_edges[r + 1] + WINDOW_RADIUS_PX)
        for r in range(rows)
    ]
    num_queries = query.shape[0]
    best_train = np.zeros(num_queries, dtype=np.int64)
    best_distance = np.full(num_queries, _MASKED_DISTANCE, dtype=np.int16)
    second = np.full(num_queries, _MASKED_DISTANCE, dtype=np.int16) if second_best else None
    scratch = TileScratch()
    for index in range(columns * rows):
        lo, hi = bounds[index], bounds[index + 1]
        if lo == hi:
            continue
        subset = np.flatnonzero(in_column[index % columns] & in_row[index // columns])
        if subset.size == 0:
            continue
        _reduce_tiles(
            word_tiles(sorted_words[lo:hi], train_columns[:, subset], scratch),
            best_train[lo:hi],
            best_distance[lo:hi],
            second[lo:hi] if second is not None and subset.size >= 2 else None,
        )
        best_train[lo:hi] = subset[best_train[lo:hi]]
    unsorted = np.empty_like(order)
    unsorted[order] = np.arange(num_queries)
    return _TileReduction(
        train=best_train[unsorted],
        distance=best_distance[unsorted],
        second_distance=second[unsorted] if second is not None else None,
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
    best = _reduce_distance_tiles(query, train, second_best=False)
    return [
        Match(query_index=qi, train_index=ti, distance=d)
        for qi, (ti, d) in enumerate(zip(best.train.tolist(), best.distance.tolist()))
    ]
