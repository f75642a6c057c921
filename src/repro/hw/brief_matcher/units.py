"""Datapath units of the BRIEF Matcher (Figure 6).

The matcher compares every current-frame descriptor against every global-map
descriptor: the Distance Computing module XORs two 256-bit descriptors and
popcounts the result with an adder tree, and the Comparator tracks the
running minimum distance and its index.  The Descriptor Cache and Result
Cache buffer inputs/outputs between AXI transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...errors import HardwareModelError
from ...matching.hamming import hamming_distance


class DistanceComputingUnit:
    """256-bit XOR + popcount adder tree.

    One descriptor pair per cycle per lane; ``lanes`` parallel trees process
    several map descriptors simultaneously (the parallelisation knob of the
    accelerator configuration).
    """

    def __init__(self, descriptor_bytes: int = 32, lanes: int = 4) -> None:
        if descriptor_bytes <= 0 or lanes <= 0:
            raise HardwareModelError("descriptor_bytes and lanes must be positive")
        self.descriptor_bytes = descriptor_bytes
        self.lanes = lanes
        self.pairs_evaluated = 0

    def distance(self, descriptor_a: np.ndarray, descriptor_b: np.ndarray) -> int:
        """Hamming distance of one descriptor pair (functional reference)."""
        a = np.asarray(descriptor_a, dtype=np.uint8)
        b = np.asarray(descriptor_b, dtype=np.uint8)
        if a.size != self.descriptor_bytes or b.size != self.descriptor_bytes:
            raise HardwareModelError(
                f"descriptors must be {self.descriptor_bytes} bytes"
            )
        self.pairs_evaluated += 1
        return hamming_distance(a, b)

    def cycles_for(self, num_queries: int, num_candidates: int) -> float:
        """Total cycles to evaluate the full distance matrix."""
        if num_queries < 0 or num_candidates < 0:
            raise HardwareModelError("counts must be non-negative")
        return float(num_queries) * float(num_candidates) / self.lanes

    def adder_tree_depth(self) -> int:
        """Pipeline depth of the popcount adder tree (log2 of bit count)."""
        return int(np.ceil(np.log2(self.descriptor_bytes * 8)))


@dataclass
class MatchRecord:
    """Best-match output of the comparator for one query descriptor."""

    query_index: int
    best_index: int
    best_distance: int


class DescriptorCacheUnit:
    """On-chip buffer for current-frame and global-map descriptors."""

    def __init__(self, frame_capacity: int = 1024, map_capacity: int = 8192) -> None:
        if frame_capacity <= 0 or map_capacity <= 0:
            raise HardwareModelError("cache capacities must be positive")
        self.frame_capacity = frame_capacity
        self.map_capacity = map_capacity

    def load_frame_descriptors(self, descriptors: np.ndarray) -> None:
        if len(descriptors) > self.frame_capacity:
            raise HardwareModelError(
                f"{len(descriptors)} frame descriptors exceed capacity {self.frame_capacity}"
            )

    def load_map_descriptors(self, descriptors: np.ndarray) -> None:
        if len(descriptors) > self.map_capacity:
            raise HardwareModelError(
                f"{len(descriptors)} map descriptors exceed capacity {self.map_capacity}"
            )


class ResultCacheUnit:
    """Buffer of match results awaiting write-back to SDRAM."""

    RESULT_RECORD_BYTES: int = 8  # query index, best index, distance

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise HardwareModelError("capacity must be positive")
        self.capacity = capacity
        self.records: List[MatchRecord] = []

    def store(self, record: MatchRecord) -> None:
        if len(self.records) >= self.capacity:
            raise HardwareModelError("result cache overflow")
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()
