"""Keypoint compute backends for the ORB extractor.

See :mod:`repro.backends.base` for the interface; the three backends are
``reference``, ``vectorized`` and the fixed-point ``hwexact``.
``docs/backends.md`` and ``docs/hwexact.md`` document the architecture.
"""

from .base import DescribedBatch, KeypointBackend
from .hwexact import HwExactBackend
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend

__all__ = [
    "DescribedBatch",
    "KeypointBackend",
    "HwExactBackend",
    "ReferenceBackend",
    "VectorizedBackend",
]
