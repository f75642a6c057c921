"""Descriptor matching: Hamming distance and brute-force matchers."""

from .hamming import hamming_distance
from .matcher import (
    BruteForceMatcher,
    Match,
    MatchArrays,
    MatchStatistics,
    match_minimum_distance,
)

__all__ = [
    "hamming_distance",
    "BruteForceMatcher",
    "Match",
    "MatchArrays",
    "MatchStatistics",
    "match_minimum_distance",
]
