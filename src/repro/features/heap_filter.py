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
additionally counts the comparisons performed.  That count is reported as
the extraction profile's ``heap_comparisons``; the hardware cycle model
does not read it (it charges the heap by the retained features it drains
and, in the original workflow, ``log2(capacity)`` steps per keypoint).

The software extractor does not stream through the heap: :func:`select_top`
returns the same retained rows and the same statistics from one partition
plus a sort of the kept rows, the closed-form sift depths of the
insertions, and one ``heapq`` pass over the bare scores for the
replacements.  The scalar hardware model
(:class:`~repro.hw.orb_extractor.units.FeatureHeapUnit`) keeps offering to
:class:`BoundedScoreHeap` one feature at a time.
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
    offers are insertions; a later offer is a replacement iff it beats the
    heap minimum (:func:`_count_replacements`), and a rejection otherwise.
    """
    if capacity <= 0:
        raise FeatureError("heap capacity must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise FeatureError("scores must be a 1-D array")
    rows = _best_rows(scores, capacity)
    insertions = min(capacity, scores.size)
    replacements = _count_replacements(scores, capacity)
    stats = HeapStatistics(
        insertions=insertions,
        replacements=replacements,
        rejections=scores.size - insertions - replacements,
        # as BoundedScoreHeap.offer counts them: a sift per insertion into a
        # heap of size k, one root comparison per offer once full, and a
        # full-depth sift per replacement
        comparisons=_bit_length_sum(insertions)
        + (scores.size - insertions)
        + replacements * capacity.bit_length(),
    )
    return rows, stats


def _best_rows(scores: np.ndarray, capacity: int) -> np.ndarray:
    """The ``capacity`` best rows by (score descending, row ascending).

    The ``capacity``-th highest score splits the rows: every row above it is
    kept, and the earliest rows equal to it fill what is left, so only the
    kept rows are sorted (stably, by descending score).
    """
    if scores.size > capacity:
        cutoff = np.partition(scores, scores.size - capacity)[scores.size - capacity]
        above = np.flatnonzero(scores > cutoff)
        tied = np.flatnonzero(scores == cutoff)[: capacity - above.size]
        kept = np.sort(np.concatenate([above, tied]))
    else:
        kept = np.arange(scores.size)
    return kept[np.argsort(-scores[kept], kind="stable")]


def _bit_length_sum(count: int) -> int:
    """``sum(k.bit_length() for k in range(1, count + 1))`` in closed form.

    ``k`` has at least ``b`` bits iff ``k >= 2**(b - 1)``, so with
    ``L = count.bit_length()`` the sum is
    ``sum_{b=1..L} (count - 2**(b - 1) + 1) = L * (count + 1) - (2**L - 1)``.
    """
    length = count.bit_length()
    return length * (count + 1) - ((1 << length) - 1)


def _count_replacements(scores: np.ndarray, capacity: int) -> int:
    """How many offers after the first ``capacity`` beat the heap minimum.

    Only the scores decide it (an offer replaces iff it strictly beats the
    minimum, whichever tied entry holds it), so this runs the heap on the
    bare scores: a list ``heapq`` min-heap of floats, seeded with the
    first ``capacity`` scores in sorted order (a valid heap).  Offers at or
    below the seed minimum can never replace and are dropped first.
    """
    if scores.size <= capacity:
        return 0
    heap = np.sort(scores[:capacity]).tolist()
    later = scores[capacity:]
    replacements = 0
    for score in later[later > heap[0]].tolist():
        if score > heap[0]:
            heapq.heapreplace(heap, score)
            replacements += 1
    return replacements

