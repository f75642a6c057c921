"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


@dataclass(frozen=True)
class JobAttempt:
    """One failed attempt at serving a frame (crash, stall, lost worker).

    ``worker_id`` is the worker that owned the attempt, ``reason`` states
    why the attempt ended and ``elapsed_s`` measures from the original
    submission to the failure.
    """

    worker_id: int
    reason: str
    elapsed_s: float


class JobFailed(ReproError):
    """A served frame definitively failed after its retry budget.

    Unlike a transport-level :class:`ReproError`, the failure is
    *structured*: :attr:`attempts` carries the full per-attempt history
    (which worker, why, and when), so callers can distinguish an
    exhausted retry budget from a permanently failed worker.
    """

    def __init__(self, message: str, attempts: Sequence[JobAttempt] = ()) -> None:
        super().__init__(message)
        self.attempts: Tuple[JobAttempt, ...] = tuple(attempts)

    def __str__(self) -> str:  # attempt history rides along in logs
        base = super().__str__()
        if not self.attempts:
            return base
        history = "; ".join(
            f"attempt {index + 1}: worker {attempt.worker_id} "
            f"{attempt.reason} after {attempt.elapsed_s:.3f}s"
            for index, attempt in enumerate(self.attempts)
        )
        return f"{base} [{history}]"


class ImageError(ReproError):
    """Raised for invalid image shapes, dtypes or out-of-range accesses."""


class FeatureError(ReproError):
    """Raised when feature detection or description receives invalid input."""


class DescriptorError(FeatureError):
    """Raised for malformed descriptors or incompatible descriptor pairs."""


class GeometryError(ReproError):
    """Raised for degenerate geometric configurations (e.g. singular poses)."""


class TrackingError(ReproError):
    """Raised when the SLAM tracker cannot localise a frame."""


class MapError(ReproError):
    """Raised for invalid map operations (duplicate ids, missing points)."""


class DatasetError(ReproError):
    """Raised for malformed datasets, sequences or trajectory files."""


class HardwareModelError(ReproError):
    """Raised by the FPGA accelerator model for invalid configurations."""


class PlatformModelError(ReproError):
    """Raised by the platform runtime / power models."""
