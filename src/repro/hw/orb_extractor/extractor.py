"""Integrated ORB Extractor accelerator model.

Combines the datapath units of :mod:`repro.hw.orb_extractor.units`, the
ping-pong caches and the AXI port into a model of the whole ORB Extractor
(Figure 4), following the rescheduled streaming workflow of Section 3.1:

* the front end (FAST detection, Harris, smoothing, NMS) consumes one pixel
  per clock cycle as the image streams through the ping-pong caches,
* descriptors and orientations are computed for every detected keypoint in a
  pipeline that overlaps the pixel stream (stalling only if keypoints arrive
  faster than the descriptor units can drain them),
* the heap filters the streamed features down to the best 1024, and
* the results are written back over AXI when the pyramid finishes.

The functional output is produced by an :class:`~repro.features.OrbExtractor`
with the configured engine; the cycle count is derived from the same
extraction profile, so the model's latency responds to
the actual workload (image size, pyramid depth, keypoint density) rather than
being a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...config import AcceleratorConfig, ExtractorConfig
from ...errors import HardwareModelError
from ...features import ExtractionResult, OrbExtractor
from ...image import GrayImage, ImagePyramid
from ..axi import AxiPort
from ..cycles import CycleBreakdown
from .units import BriefComputingUnit, BriefRotatorUnit, OrientationUnit

#: Bytes written back to SDRAM per retained feature: 32-byte descriptor,
#: 4-byte packed coordinates/level and 4-byte Harris score.
FEATURE_RECORD_BYTES: int = 40


@dataclass
class ExtractorLatencyReport:
    """Latency of one frame through the ORB Extractor accelerator."""

    cycles: CycleBreakdown
    clock_hz: float
    features: int
    keypoints_detected: int
    pixels_processed: int
    workflow: str

    @property
    def total_cycles(self) -> float:
        return self.cycles.total

    @property
    def latency_ms(self) -> float:
        return self.cycles.to_milliseconds(self.clock_hz)


class OrbExtractorAccelerator:
    """Cycle-approximate model of the FPGA ORB Extractor."""

    def __init__(
        self,
        extractor_config: ExtractorConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
    ) -> None:
        self.extractor_config = extractor_config or ExtractorConfig()
        self.accel_config = accel_config or AcceleratorConfig()
        if not self.extractor_config.use_rs_brief:
            raise HardwareModelError(
                "the accelerator implements RS-BRIEF; the original ORB descriptor "
                "requires the 30-pattern LUT the paper explicitly avoids"
            )
        self._reference = OrbExtractor(self.extractor_config)
        self.axi = AxiPort(self.accel_config)
        self.orientation_unit = OrientationUnit()
        self.brief_unit = BriefComputingUnit(self.extractor_config.descriptor)
        self.heap_capacity = self.extractor_config.max_features

    # -- functional + timing ----------------------------------------------------
    def extract(self, image: GrayImage) -> tuple[ExtractionResult, ExtractorLatencyReport]:
        """Extract features and report the modelled accelerator latency."""
        result = self._reference.extract(image)
        report = self.latency_from_profile(
            image,
            keypoints_after_nms=result.profile.keypoints_after_nms,
            descriptors_computed=result.profile.descriptors_computed,
            features_retained=result.profile.features_retained,
        )
        return result, report

    # -- cycle model ----------------------------------------------------------
    def latency_from_profile(
        self,
        image: GrayImage,
        keypoints_after_nms: int,
        descriptors_computed: Optional[int] = None,
        features_retained: Optional[int] = None,
    ) -> ExtractorLatencyReport:
        """Build the cycle breakdown for a known workload.

        This entry point lets the platform models reuse measured workloads
        from the functional SLAM run without re-running extraction.
        """
        descriptors_computed = (
            keypoints_after_nms if descriptors_computed is None else descriptors_computed
        )
        features_retained = (
            min(self.heap_capacity, descriptors_computed)
            if features_retained is None
            else features_retained
        )
        pyramid = ImagePyramid(image, self.extractor_config.pyramid)
        if self.extractor_config.rescheduled_workflow:
            cycles = self._rescheduled_cycles(
                pyramid, descriptors_computed, features_retained
            )
            workflow = "rescheduled"
        else:
            cycles = self._original_workflow_cycles(
                pyramid, keypoints_after_nms, features_retained
            )
            workflow = "original"
        return ExtractorLatencyReport(
            cycles=cycles,
            clock_hz=self.accel_config.clock_hz,
            features=features_retained,
            keypoints_detected=keypoints_after_nms,
            pixels_processed=pyramid.total_pixels(),
            workflow=workflow,
        )

    def _per_level_stream_cycles(self, pyramid: ImagePyramid) -> List[CycleBreakdown]:
        """Front-end streaming cost of each pyramid level."""
        levels = []
        columns_per_line = self.accel_config.cache_line_columns
        prefill_lines = self.accel_config.cache_lines - 1
        for level in pyramid:
            height, width = level.image.shape
            breakdown = CycleBreakdown()
            # ping-pong cache pre-fill: two cache lines of columns before the
            # datapath can start (Figure 5 initialisation)
            breakdown.add("cache_prefill", prefill_lines * columns_per_line * height)
            # one pixel per cycle through FAST/Harris/smoother/NMS
            breakdown.add("pixel_stream", height * width)
            # window pipeline drain at the end of the level
            breakdown.add("pipeline_drain", height)
            levels.append(breakdown)
        return levels

    def _descriptor_pipeline_stall(
        self, total_stream_cycles: float, descriptors_computed: int
    ) -> float:
        """Stall cycles when descriptor computation cannot keep up with detection."""
        per_feature = max(
            self.brief_unit.cycles_per_feature(),
            self.orientation_unit.cycles_per_feature(),
        ) + BriefRotatorUnit.cycles_per_feature()
        demand = descriptors_computed * per_feature
        return max(0.0, demand - total_stream_cycles)

    def _rescheduled_cycles(
        self,
        pyramid: ImagePyramid,
        descriptors_computed: int,
        features_retained: int,
    ) -> CycleBreakdown:
        """Streaming (detect -> describe -> filter) schedule."""
        total = CycleBreakdown()
        level_breakdowns = self._per_level_stream_cycles(pyramid)
        for index, level_breakdown in enumerate(level_breakdowns):
            total.merge_from(level_breakdown, prefix=f"level{index}.")
        stream_total = total.total
        # AXI read of the level-0 image overlaps the stream; only the fill
        # latency and any bandwidth shortfall are visible.
        level0_bytes = pyramid.level(0).image.num_pixels
        total.add("axi_read_visible", self.axi.streaming_read_cycles(level0_bytes, stream_total))
        # descriptor pipeline (orientation + BRIEF + rotator) overlaps the
        # stream; only the excess demand stalls the front end
        total.add(
            "descriptor_stall",
            self._descriptor_pipeline_stall(stream_total, descriptors_computed),
        )
        # heap insertions are pipelined with the descriptor stream; the final
        # drain and the result write-back are exposed
        total.add("heap_flush", float(features_retained))
        writeback = self.axi.transfer_stats(features_retained * FEATURE_RECORD_BYTES)
        total.add("axi_writeback", writeback.cycles)
        return total

    def _original_workflow_cycles(
        self,
        pyramid: ImagePyramid,
        keypoints_detected: int,
        features_retained: int,
    ) -> CycleBreakdown:
        """Original (detect -> filter -> describe) schedule used for the ablation.

        Descriptor computation cannot start until all keypoints are detected
        and filtered, and each retained keypoint's pixel patch must be
        re-fetched because the streaming caches no longer hold it.
        """
        total = CycleBreakdown()
        level_breakdowns = self._per_level_stream_cycles(pyramid)
        for index, level_breakdown in enumerate(level_breakdowns):
            total.merge_from(level_breakdown, prefix=f"detect.level{index}.")
        level0_bytes = pyramid.level(0).image.num_pixels
        total.add(
            "axi_read_visible",
            self.axi.streaming_read_cycles(level0_bytes, total.total),
        )
        # filtering: selection of the best N among M detected keypoints
        total.add(
            "filter",
            float(keypoints_detected) * max(1, self.heap_capacity.bit_length()),
        )
        # descriptor pass: patch refetch + orientation + BRIEF, fully serial
        patch_diameter = 2 * self.extractor_config.descriptor.patch_radius + 1
        patch_bytes = patch_diameter * patch_diameter
        refetch = self.axi.transfer_stats(patch_bytes)
        per_feature = (
            refetch.cycles
            + self.orientation_unit.cycles_per_feature()
            + self.brief_unit.cycles_per_feature()
            + BriefRotatorUnit.cycles_per_feature()
        )
        total.add("describe_serial", features_retained * per_feature)
        writeback = self.axi.transfer_stats(features_retained * FEATURE_RECORD_BYTES)
        total.add("axi_writeback", writeback.cycles)
        return total

    # -- memory footprint (rescheduling ablation) --------------------------------
    def on_chip_buffer_bytes(self, rescheduled: bool, image_height: int = 480) -> int:
        """On-chip buffering required by the chosen workflow.

        The streaming workflow only needs the three ping-pong caches (image,
        score, smoothened image), each ``cache_lines`` lines of
        ``cache_line_columns`` columns.  The original workflow must keep the
        smoothened image of a whole level (plus the candidate keypoint list)
        alive until filtering completes, because descriptors are computed
        afterwards.
        """
        line_bytes = self.accel_config.cache_line_columns * image_height
        ping_pong = 3 * self.accel_config.cache_lines * line_bytes
        if rescheduled:
            return ping_pong
        level0_pixels = (
            self.extractor_config.image_width * self.extractor_config.image_height
        )
        candidate_record_bytes = 8  # x, y, level, score
        # worst-case candidate count: one per 3x3 NMS cell
        worst_candidates = level0_pixels // 9
        return ping_pong + level0_pixels + worst_candidates * candidate_record_bytes
