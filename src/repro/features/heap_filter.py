"""Feature filtering with a bounded max-heap.

The Heap module in the ORB Extractor stores descriptors, coordinates and
Harris scores of streaming features and guarantees that only the 1024
features with the best Harris scores are kept.  In the rescheduled workflow
the heap performs the *Filtering* step after descriptors have already been
computed.

A bounded "keep the K largest" structure is most naturally a **min-heap of
size K** keyed on score: a new feature replaces the root when it beats the
current minimum.  The paper calls the module a max-heap (it retains maximal
scores); :class:`BoundedScoreHeap` implements the retention semantics and
additionally counts the comparisons performed, which the hardware cycle
model uses for its heap-insertion cost.

The software extractor does not stream through the heap: :func:`select_top`
is its closed form, returning the same retained rows and the same
statistics from one stable argsort plus a blockwise count.  The scalar
hardware model (:class:`~repro.hw.orb_extractor.units.FeatureHeapUnit`)
keeps offering to :class:`BoundedScoreHeap` one feature at a time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Generic, Iterable, List, Tuple, TypeVar

import numpy as np

from ..errors import FeatureError

T = TypeVar("T")


@dataclass
class HeapStatistics:
    """Operation counts accumulated by the heap (consumed by the cycle model)."""

    insertions: int = 0
    replacements: int = 0
    rejections: int = 0
    comparisons: int = 0

    def total_offered(self) -> int:
        return self.insertions + self.replacements + self.rejections


@dataclass
class BoundedScoreHeap(Generic[T]):
    """Keep the ``capacity`` items with the largest scores.

    Items are arbitrary payloads (feature records); scores are floats.  Ties
    are broken in favour of the earlier-inserted item, matching streaming
    hardware where an equal-scoring later feature does not evict an earlier
    one.
    """

    capacity: int
    _heap: List[Tuple[float, int, T]] = field(default_factory=list)
    _counter: "itertools.count[int]" = field(default_factory=itertools.count)
    stats: HeapStatistics = field(default_factory=HeapStatistics)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise FeatureError("heap capacity must be positive")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    def min_score(self) -> float:
        """Return the smallest retained score (the eviction threshold)."""
        if not self._heap:
            raise FeatureError("heap is empty")
        return self._heap[0][0]

    def offer(self, score: float, item: T) -> bool:
        """Offer an item; return True if it is retained.

        A full heap retains the item only if its score strictly exceeds the
        current minimum; the displaced minimum is discarded.
        """
        # ``-next(counter)`` makes earlier items win ties: for equal scores the
        # earlier item has a larger tiebreaker and therefore is *not* the root.
        order = -next(self._counter)
        if not self.is_full:
            heapq.heappush(self._heap, (score, order, item))
            self.stats.insertions += 1
            self.stats.comparisons += max(1, len(self._heap).bit_length())
            return True
        self.stats.comparisons += 1
        if score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, order, item))
            self.stats.replacements += 1
            self.stats.comparisons += max(1, self.capacity.bit_length())
            return True
        self.stats.rejections += 1
        return False

    def extend(self, scored_items: Iterable[Tuple[float, T]]) -> None:
        """Offer every ``(score, item)`` pair in order."""
        for score, item in scored_items:
            self.offer(score, item)

    def items_by_score(self) -> List[T]:
        """Return retained items sorted by descending score (stable for ties)."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], -entry[1]))
        return [item for _, _, item in ordered]

    def scores(self) -> List[float]:
        """Return retained scores in descending order."""
        return sorted((score for score, _, _ in self._heap), reverse=True)


def select_top(scores: np.ndarray, capacity: int) -> Tuple[np.ndarray, HeapStatistics]:
    """Rows a :class:`BoundedScoreHeap` keeps when offered ``scores`` in order.

    Returns ``(rows, stats)``: ``rows`` are the ``capacity`` best indices by
    (score descending, offer order ascending), in the order of
    :meth:`BoundedScoreHeap.items_by_score`, and ``stats`` equals the heap's
    :class:`HeapStatistics` after the same offers.  The first ``capacity``
    offers are insertions; a later offer is a replacement iff fewer than
    ``capacity`` earlier offers score at least as high (it then beats the
    heap minimum), and a rejection otherwise.
    """
    if capacity <= 0:
        raise FeatureError("heap capacity must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise FeatureError("scores must be a 1-D array")
    rows = np.argsort(-scores, kind="stable")[:capacity]
    insertions = min(capacity, scores.size)
    replacements = _count_replacements(scores, capacity)
    stats = HeapStatistics(
        insertions=insertions,
        replacements=replacements,
        rejections=scores.size - insertions - replacements,
        # as BoundedScoreHeap.offer counts them: a sift per insertion into a
        # heap of size k, one root comparison per offer once full, and a
        # full-depth sift per replacement
        comparisons=sum(size.bit_length() for size in range(1, insertions + 1))
        + (scores.size - insertions)
        + replacements * capacity.bit_length(),
    )
    return rows, stats


def _count_replacements(scores: np.ndarray, capacity: int, block: int = 256) -> int:
    """How many offers after the first ``capacity`` beat the heap minimum.

    Offer ``i`` beats it iff fewer than ``capacity`` earlier scores are
    ``>= scores[i]``.  Offers are counted a block at a time against ``best``,
    the ``capacity`` highest earlier scores kept sorted.  A score at most
    ``best[0]`` loses outright; for the rest, the earlier scores ``>=`` them
    are the ones in ``best`` plus the earlier such scores of the block.
    """
    best = np.sort(scores[:capacity])
    replacements = 0
    for start in range(capacity, scores.size, block):
        chunk = scores[start : start + block]
        contenders = chunk[chunk > best[0]]
        earlier = capacity - np.searchsorted(best, contenders, side="left")
        earlier += np.tril(contenders[None, :] >= contenders[:, None], k=-1).sum(axis=1)
        replacements += int(np.count_nonzero(earlier < capacity))
        best = np.sort(np.concatenate([best, contenders]))[-capacity:]
    return replacements


def top_k_by_score(scored_items: Iterable[Tuple[float, T]], k: int) -> List[T]:
    """Reference implementation: keep the ``k`` best items by full sort.

    Used by tests to validate that :class:`BoundedScoreHeap` retains exactly
    the same set (streaming vs batch filtering must agree).  Ties are broken
    in favour of earlier items, as in the heap.
    """
    if k <= 0:
        raise FeatureError("k must be positive")
    indexed = [(score, index, item) for index, (score, item) in enumerate(scored_items)]
    indexed.sort(key=lambda entry: (-entry[0], entry[1]))
    return [item for _, _, item in indexed[:k]]
