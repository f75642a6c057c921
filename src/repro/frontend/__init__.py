"""Detection front-end engines for the ORB extractor.

See :mod:`repro.frontend.base` for the interface; the three engines are
``reference``, ``vectorized`` and the fixed-point ``hwexact``.
``docs/frontend.md`` and ``docs/hwexact.md`` document the architecture.
"""

from .base import DetectionEngine
from .hwexact import HwExactEngine
from .reference import ReferenceEngine
from .vectorized import VectorizedEngine

__all__ = [
    "DetectionEngine",
    "HwExactEngine",
    "ReferenceEngine",
    "VectorizedEngine",
]
