"""ORB Extractor accelerator: caches, datapath units and the integrated model."""

from .image_cache import (
    CacheLineState,
    FsmTransition,
    PingPongImageCache,
    stream_image_through_cache,
)
from .units import BriefComputingUnit, BriefRotatorUnit, OrientationUnit
from .extractor import (
    FEATURE_RECORD_BYTES,
    ExtractorLatencyReport,
    OrbExtractorAccelerator,
)

__all__ = [
    "PingPongImageCache",
    "CacheLineState",
    "FsmTransition",
    "stream_image_through_cache",
    "OrientationUnit",
    "BriefComputingUnit",
    "BriefRotatorUnit",
    "FEATURE_RECORD_BYTES",
    "ExtractorLatencyReport",
    "OrbExtractorAccelerator",
]
