"""Descriptor matching: Hamming distance and brute-force matchers."""

from .matcher import (
    BruteForceMatcher,
    Match,
    MatchArrays,
    MatchStatistics,
    match_minimum_distance,
)

__all__ = [
    "BruteForceMatcher",
    "Match",
    "MatchArrays",
    "MatchStatistics",
    "match_minimum_distance",
]
