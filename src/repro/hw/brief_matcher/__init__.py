"""BRIEF Matcher accelerator: distance computation, comparator and caches."""

from .units import (
    DescriptorCacheUnit,
    DistanceComputingUnit,
    MatchRecord,
    ResultCacheUnit,
)
from .matcher_accel import BriefMatcherAccelerator, MatcherLatencyReport

__all__ = [
    "DistanceComputingUnit",
    "DescriptorCacheUnit",
    "ResultCacheUnit",
    "MatchRecord",
    "BriefMatcherAccelerator",
    "MatcherLatencyReport",
]
