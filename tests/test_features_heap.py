"""Tests for the bounded score heap (the feature-filtering Heap module)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FeatureError
from repro.features import BoundedScoreHeap


def top_k_by_score(scored_items, k):
    """Oracle: the ``k`` best items by one full sort, earlier items first on
    ties, as the streaming heap must keep them."""
    indexed = [(score, index, item) for index, (score, item) in enumerate(scored_items)]
    indexed.sort(key=lambda entry: (-entry[0], entry[1]))
    return [item for _, _, item in indexed[:k]]


class TestBoundedScoreHeap:
    def test_keeps_all_when_under_capacity(self):
        heap = BoundedScoreHeap(capacity=10)
        for i in range(5):
            assert heap.offer(float(i), f"item{i}")
        assert len(heap) == 5

    def test_keeps_only_best_when_full(self):
        heap = BoundedScoreHeap(capacity=3)
        for i in range(10):
            heap.offer(float(i), i)
        assert sorted(heap.items_by_score()) == [7, 8, 9]

    def test_items_sorted_by_descending_score(self):
        heap = BoundedScoreHeap(capacity=4)
        for score, item in [(3.0, "c"), (1.0, "a"), (4.0, "d"), (2.0, "b")]:
            heap.offer(score, item)
        assert heap.items_by_score() == ["d", "c", "b", "a"]

    def test_equal_scores_keep_earlier_item(self):
        heap = BoundedScoreHeap(capacity=1)
        heap.offer(5.0, "first")
        retained = heap.offer(5.0, "second")
        assert retained is False
        assert heap.items_by_score() == ["first"]

    def test_statistics_counts(self):
        heap = BoundedScoreHeap(capacity=2)
        heap.offer(1.0, "a")
        heap.offer(2.0, "b")
        heap.offer(3.0, "c")  # replacement
        heap.offer(0.5, "d")  # rejection
        assert heap.stats.insertions == 2
        assert heap.stats.replacements == 1
        assert heap.stats.rejections == 1
        assert heap.stats.comparisons > 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(FeatureError):
            BoundedScoreHeap(capacity=0)

    def test_extend(self):
        heap = BoundedScoreHeap(capacity=2)
        heap.extend([(1.0, "a"), (3.0, "c"), (2.0, "b")])
        assert heap.items_by_score() == ["c", "b"]

    def test_scores_descending(self):
        heap = BoundedScoreHeap(capacity=5)
        heap.extend([(float(i % 7), i) for i in range(20)])
        scores = heap.scores()
        assert scores == sorted(scores, reverse=True)


class TestEquivalenceWithSort:
    @settings(max_examples=50, deadline=None)
    @given(
        scores=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
        capacity=st.integers(min_value=1, max_value=64),
    )
    def test_heap_matches_sort_reference(self, scores, capacity):
        """Streaming heap filtering retains exactly the same set as batch sorting."""
        items = list(range(len(scores)))
        heap = BoundedScoreHeap(capacity=capacity)
        heap.extend(zip(scores, items))
        expected = top_k_by_score(zip(scores, items), capacity)
        assert heap.items_by_score() == expected
