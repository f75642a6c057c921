"""Extraction engines for the ORB extractor.

See :mod:`repro.engines.base` for the interface; the three engines are
``reference``, ``vectorized`` and the fixed-point ``hwexact``.
``docs/engines.md`` and ``docs/hwexact.md`` document the architecture.
"""

from .base import DescribedBatch, ExtractionEngine
from .hwexact import HwExactEngine
from .reference import ReferenceEngine
from .vectorized import VectorizedEngine

__all__ = [
    "DescribedBatch",
    "ExtractionEngine",
    "HwExactEngine",
    "ReferenceEngine",
    "VectorizedEngine",
]
