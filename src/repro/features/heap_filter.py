"""Feature filtering with a bounded max-heap.

The Heap module in the ORB Extractor stores descriptors, coordinates and
Harris scores of streaming features and guarantees that only the 1024
features with the best Harris scores are kept.  In the rescheduled workflow
the heap performs the *Filtering* step after descriptors have already been
computed.

A bounded "keep the K largest" structure is most naturally a **min-heap of
size K** keyed on score: a new feature replaces the root when it beats the
current minimum.  The paper calls the module a max-heap (it retains maximal
scores).  The streaming heap also counts the comparisons it performs; that
count is reported as the extraction profile's ``heap_comparisons``, and the
hardware cycle model does not read it (it charges the heap by the retained
features it drains and, in the original workflow, ``log2(capacity)`` steps
per keypoint).

The extractor does not stream through a heap: :func:`select_top` returns
the rows and statistics of the streaming heap from one partition plus a
sort of the kept rows, the closed-form sift depths of the insertions, and
one ``heapq`` pass over the bare scores for the replacements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import FeatureError


@dataclass
class HeapStatistics:
    """Operation counts of the streaming heap: insertions, replacements,
    rejections and comparator steps."""

    insertions: int = 0
    replacements: int = 0
    rejections: int = 0
    comparisons: int = 0


def select_top(scores: np.ndarray, capacity: int) -> Tuple[np.ndarray, HeapStatistics]:
    """Rows a bounded min-heap of ``capacity`` keeps when offered ``scores`` in order.

    The heap keeps an offer while it has room, and once full replaces its
    minimum by an offer that strictly beats it; ties go to the earlier
    offer.  Returns ``(rows, stats)``: ``rows`` are the ``capacity`` best
    indices by (score descending, offer order ascending), and ``stats``
    counts what that heap does.  The first ``capacity`` offers are
    insertions, each a sift up a heap of its new size; a later offer is a
    replacement iff it beats the heap minimum (:func:`_count_replacements`),
    and a rejection otherwise.  Every later offer costs one comparison with
    the root, and a replacement a sift down the full depth.
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
        # a sift per insertion into a heap of size k, one root comparison
        # per offer once full, and a full-depth sift per replacement
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

