"""ORB Extractor accelerator: caches, datapath units and the integrated model."""

from .image_cache import (
    CacheLineState,
    FsmTransition,
    PingPongImageCache,
    stream_image_through_cache,
)
from .units import (
    BriefComputingUnit,
    BriefRotatorUnit,
    FastDetectionUnit,
    FeatureHeapUnit,
    HeapEntry,
    ImageSmootherUnit,
    OrientationUnit,
)
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
    "FastDetectionUnit",
    "ImageSmootherUnit",
    "OrientationUnit",
    "BriefComputingUnit",
    "BriefRotatorUnit",
    "FeatureHeapUnit",
    "HeapEntry",
    "FEATURE_RECORD_BYTES",
    "ExtractorLatencyReport",
    "OrbExtractorAccelerator",
]
