"""Cycle accounting primitives for the accelerator model.

The eSLAM accelerator is modelled at *cycle-approximate* granularity: each
hardware unit reports how many clock cycles it spends on a given workload,
and the top-level modules combine those counts according to the streaming /
pipelined schedule described in Section 3.  :class:`CycleBreakdown` is the
common currency: a named bag of cycle counts that can be merged sequentially
(stages run back to back) or in parallel (stages overlap and the slowest
dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import HardwareModelError


@dataclass
class CycleBreakdown:
    """Named cycle counts for one hardware activity.

    The breakdown keeps per-component counts (useful for reports) and exposes
    the total.  Combining breakdowns follows hardware composition rules:

    * :meth:`sequential` -- activities one after another: totals add.
    * :meth:`overlapped` -- activities running concurrently: the maximum
      dominates, but per-component detail is preserved under prefixed names.
    """

    components: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, cycles: float) -> "CycleBreakdown":
        """Add ``cycles`` under ``name`` (accumulating if it already exists)."""
        if cycles < 0:
            raise HardwareModelError(f"cycle count for '{name}' must be non-negative")
        self.components[name] = self.components.get(name, 0.0) + float(cycles)
        return self

    @property
    def total(self) -> float:
        return float(sum(self.components.values()))

    def scaled(self, factor: float) -> "CycleBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        if factor < 0:
            raise HardwareModelError("scale factor must be non-negative")
        return CycleBreakdown({k: v * factor for k, v in self.components.items()})

    def to_seconds(self, clock_hz: float) -> float:
        """Convert the total cycle count to seconds at ``clock_hz``."""
        if clock_hz <= 0:
            raise HardwareModelError("clock frequency must be positive")
        return self.total / clock_hz

    def to_milliseconds(self, clock_hz: float) -> float:
        return self.to_seconds(clock_hz) * 1e3

    def merge_from(self, other: "CycleBreakdown", prefix: str = "") -> "CycleBreakdown":
        """In-place accumulation of another breakdown's components."""
        for name, cycles in other.components.items():
            self.add(f"{prefix}{name}" if prefix else name, cycles)
        return self
