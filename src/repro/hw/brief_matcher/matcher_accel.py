"""Integrated BRIEF Matcher accelerator model.

Feature matching starts after ORB extraction finishes: the current frame's
descriptors arrive directly from the ORB Extractor while the global map's
descriptors are fetched from SDRAM over AXI, every query descriptor is
compared against every map descriptor by the Distance Computing module, the
Comparator keeps the minimum, and the results are written back to SDRAM
(Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...config import AcceleratorConfig
from ...matching import Match, match_minimum_distance
from ..axi import AxiPort
from ..cycles import CycleBreakdown
from .units import (
    DescriptorCacheUnit,
    DistanceComputingUnit,
    MatchRecord,
    ResultCacheUnit,
)


@dataclass
class MatcherLatencyReport:
    """Latency of one matching pass through the BRIEF Matcher."""

    cycles: CycleBreakdown
    clock_hz: float
    num_queries: int
    num_map_points: int

    @property
    def total_cycles(self) -> float:
        return self.cycles.total

    @property
    def latency_ms(self) -> float:
        return self.cycles.to_milliseconds(self.clock_hz)


class BriefMatcherAccelerator:
    """Cycle-approximate model of the FPGA BRIEF Matcher."""

    DESCRIPTOR_BYTES: int = 32

    def __init__(self, accel_config: AcceleratorConfig | None = None) -> None:
        self.accel_config = accel_config or AcceleratorConfig()
        self.axi = AxiPort(self.accel_config, name="brief_matcher")
        self.distance_unit = DistanceComputingUnit(
            descriptor_bytes=self.DESCRIPTOR_BYTES,
            lanes=self.accel_config.matcher_parallelism,
        )
        self.descriptor_cache = DescriptorCacheUnit(
            frame_capacity=self.accel_config.heap_capacity
        )
        self.result_cache = ResultCacheUnit(capacity=self.accel_config.heap_capacity)

    # -- functional ------------------------------------------------------------
    def match(
        self, frame_descriptors: np.ndarray, map_descriptors: np.ndarray
    ) -> tuple[List[Match], MatcherLatencyReport]:
        """Match the frame against the map; return matches and latency."""
        frame = np.asarray(frame_descriptors, dtype=np.uint8)
        global_map = np.asarray(map_descriptors, dtype=np.uint8)
        self.descriptor_cache.load_frame_descriptors(frame)
        self.descriptor_cache.load_map_descriptors(global_map)
        matches = match_minimum_distance(frame, global_map)
        self.result_cache.clear()
        for match in matches:
            self.result_cache.store(
                MatchRecord(match.query_index, match.train_index, match.distance)
            )
        report = self.latency_for(frame.shape[0] if frame.ndim == 2 else 0,
                                  global_map.shape[0] if global_map.ndim == 2 else 0)
        return matches, report

    # -- timing ------------------------------------------------------------------
    def latency_for(self, num_queries: int, num_map_points: int) -> MatcherLatencyReport:
        """Cycle model for a matching pass of the given size."""
        breakdown = CycleBreakdown()
        # map descriptors stream in from SDRAM; the distance computation can
        # start as soon as the first burst lands, so only the non-overlapped
        # portion of the transfer is visible
        map_bytes = num_map_points * self.DESCRIPTOR_BYTES
        compute = self.distance_unit.cycles_for(num_queries, num_map_points)
        breakdown.add("axi_map_read_visible", self.axi.streaming_read_cycles(map_bytes, compute))
        breakdown.add("distance_compute", compute)
        # the comparator tracks the running minimum in the same cycle as the
        # distance emerges from the adder tree; only its pipeline depth shows
        breakdown.add("comparator_drain", float(self.distance_unit.adder_tree_depth()))
        writeback_bytes = num_queries * ResultCacheUnit.RESULT_RECORD_BYTES
        breakdown.add("axi_writeback", self.axi.transfer_stats(writeback_bytes).cycles)
        return MatcherLatencyReport(
            cycles=breakdown,
            clock_hz=self.accel_config.clock_hz,
            num_queries=num_queries,
            num_map_points=num_map_points,
        )
