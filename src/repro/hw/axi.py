"""AXI bus and SDRAM transfer model.

The ORB Extractor and BRIEF Matcher read their inputs from SDRAM and write
their outputs back over an AXI interface (Figures 3, 4 and 6).  The model
here accounts for the cycles spent on burst transfers: each burst pays a
fixed address/latency overhead plus one cycle per data beat, and a transfer
of ``n`` bytes is split into as many maximum-length bursts as needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AcceleratorConfig
from ..errors import HardwareModelError


@dataclass
class AxiTransferStats:
    """Byte/beat/burst counts of one logical transfer."""

    bytes_transferred: int
    beats: int
    bursts: int
    cycles: float


class AxiPort:
    """One AXI master port with the accelerator's burst parameters.

    Parameters come from :class:`~repro.config.AcceleratorConfig`:
    ``axi_data_bytes`` per beat, ``axi_burst_length`` beats per burst and
    ``axi_latency_cycles`` of fixed overhead per burst (address phase plus
    memory-controller latency).
    """

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig()

    # -- transfer cost ------------------------------------------------------
    def transfer_stats(self, num_bytes: int) -> AxiTransferStats:
        """Return the cost of moving ``num_bytes`` in one direction."""
        if num_bytes < 0:
            raise HardwareModelError("transfer size must be non-negative")
        if num_bytes == 0:
            return AxiTransferStats(0, 0, 0, 0.0)
        beat_bytes = self.config.axi_data_bytes
        beats = (num_bytes + beat_bytes - 1) // beat_bytes
        burst_len = self.config.axi_burst_length
        bursts = (beats + burst_len - 1) // burst_len
        cycles = float(beats + bursts * self.config.axi_latency_cycles)
        return AxiTransferStats(num_bytes, beats, bursts, cycles)

    def streaming_read_cycles(self, num_bytes: int, compute_cycles: float) -> float:
        """Cycles for a read that overlaps with ``compute_cycles`` of processing.

        When the computation keeps up with the stream (compute slower than the
        bus), the transfer is fully hidden and only the first-burst fill
        latency remains visible.  When the bus is the bottleneck, the read
        time dominates.
        """
        stats = self.transfer_stats(num_bytes)
        fill_latency = float(self.config.axi_latency_cycles + self.config.axi_burst_length)
        if stats.cycles <= compute_cycles:
            return fill_latency
        return stats.cycles - compute_cycles + fill_latency


class SdramModel:
    """A byte-addressable SDRAM sized for frames, pyramids and map data.

    The model tracks occupancy of the buffers the accelerator uses (input
    image, pyramid levels, feature results, map descriptors) and validates
    that the configuration fits the off-chip memory; transfer timing is
    handled by :class:`AxiPort`.
    """

    def __init__(self, capacity_bytes: int = 1 << 30) -> None:
        if capacity_bytes <= 0:
            raise HardwareModelError("SDRAM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._allocations: dict[str, int] = {}

    def allocate(self, name: str, num_bytes: int) -> None:
        """Reserve a named buffer; raises if the memory would overflow."""
        if num_bytes < 0:
            raise HardwareModelError("allocation size must be non-negative")
        if name in self._allocations:
            raise HardwareModelError(f"buffer '{name}' already allocated")
        if self.used_bytes + num_bytes > self.capacity_bytes:
            raise HardwareModelError(
                f"SDRAM overflow: {self.used_bytes + num_bytes} > {self.capacity_bytes}"
            )
        self._allocations[name] = num_bytes

    @property
    def used_bytes(self) -> int:
        return sum(self._allocations.values())

