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

The functional output is produced by the software reference extractor with
the rescheduled workflow (bit-identical descriptors); the cycle count is
derived from the same extraction profile, so the model's latency responds to
the actual workload (image size, pyramid depth, keypoint density) rather than
being a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ...config import AcceleratorConfig, ExtractorConfig
from ...errors import HardwareModelError
from ...features import ExtractionResult, FeatureArrays, OrbExtractor
from ...features.nms import suppress_keypoints
from ...features.orb import ExtractionProfile
from ...features.orientation import ORIENTATION_BIN_RAD
from ...image import GrayImage, ImagePyramid, within_border
from ..axi import AxiPort
from ..cycles import CycleBreakdown
from .units import (
    BriefComputingUnit,
    BriefRotatorUnit,
    FastDetectionUnit,
    FeatureHeapUnit,
    HeapEntry,
    ImageSmootherUnit,
    NmsUnit,
    OrientationUnit,
)

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
        self.axi = AxiPort(self.accel_config, name="orb_extractor")
        self.fast_unit = FastDetectionUnit(self.extractor_config.fast)
        self.smoother_unit = ImageSmootherUnit()
        self.nms_unit = NmsUnit()
        self.orientation_unit = OrientationUnit()
        self.brief_unit = BriefComputingUnit(self.extractor_config.descriptor)
        self.rotator_unit = BriefRotatorUnit()
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

    def latency_for_image(self, image: GrayImage) -> ExtractorLatencyReport:
        """Latency model only (runs the reference extractor for the workload)."""
        _, report = self.extract(image)
        return report

    def extract_quantized(
        self, image: GrayImage
    ) -> tuple[ExtractionResult, ExtractorLatencyReport]:
        """Quantized functional extraction, driven unit by unit.

        Runs the actual fixed-point datapath: every interior 7x7 window
        through :class:`~.units.FastDetectionUnit` (integer Harris
        accumulators), raster-order NMS on the quantized scores, the 8-bit
        fixed-point :class:`~.units.ImageSmootherUnit`, per-feature
        :class:`~.units.OrientationUnit` (Q6.10 ratio LUT) and
        :class:`~.units.BriefComputingUnit` + :class:`~.units.BriefRotatorUnit`,
        filtered through the :class:`~.units.FeatureHeapUnit`.

        The output is bit-identical to the batched ``hwexact`` engine pair
        (``ExtractorConfig(engine="hwexact")``) —
        asserted by ``tests/test_hwexact_parity.py`` — because both sides
        share the arithmetic kernels of :mod:`repro.quant`; this scalar
        orchestration is the cross-check that the batched engines really
        compute what the streaming hardware would.  Requires a FAST border
        of at least 3 (the hardware never evaluates a partial window).
        """
        config = self.extractor_config
        if config.fast.border < 3:
            raise HardwareModelError(
                "the hardware window pipeline needs a FAST border of at least 3"
            )
        pyramid = ImagePyramid(image, config.pyramid)
        profile = ExtractionProfile(workflow="rescheduled")
        profile.pixels_processed = pyramid.total_pixels()
        descriptor_border = max(
            config.fast.border,
            int(np.ceil(self.brief_unit.pattern.max_radius())) + 1,
            config.descriptor.patch_radius + 1,
        )
        heap = FeatureHeapUnit(capacity=self.heap_capacity)
        patch_radius = config.descriptor.patch_radius
        for level in pyramid:
            level_image = level.image
            smoothed = self.smoother_unit.smooth_image(level_image)
            xs, ys, scores = self._detect_level_quantized(level_image, profile)
            if not xs:
                profile.per_level_keypoints.append(0)
                continue
            keep = suppress_keypoints(
                list(zip(xs, ys)), scores, level_image.shape, radius=1
            )
            survivors = [
                index
                for index in keep
                if within_border(
                    np.int64(xs[index]),
                    np.int64(ys[index]),
                    level_image.shape,
                    descriptor_border,
                )
            ]
            profile.keypoints_after_nms += len(survivors)
            profile.per_level_keypoints.append(len(survivors))
            for index in survivors:
                x, y = xs[index], ys[index]
                patch = smoothed.patch(x, y, patch_radius)
                orientation_bin = self.orientation_unit.orientation_bin(patch)
                descriptor = self.rotator_unit.rotate(
                    self.brief_unit.describe(patch), orientation_bin
                )
                profile.descriptors_computed += 1
                heap.offer(
                    HeapEntry(
                        x=x,
                        y=y,
                        level=level.level,
                        score=scores[index],
                        descriptor=descriptor,
                        orientation_bin=orientation_bin,
                    )
                )
        profile.heap_comparisons = heap.comparisons
        arrays = self._retained_arrays(heap.retained())
        profile.features_retained = len(arrays)
        result = ExtractionResult(arrays, profile)
        report = self.latency_from_profile(
            image,
            keypoints_after_nms=profile.keypoints_after_nms,
            descriptors_computed=profile.descriptors_computed,
            features_retained=profile.features_retained,
        )
        return result, report

    def _detect_level_quantized(
        self, level_image: GrayImage, profile: ExtractionProfile
    ) -> tuple[List[int], List[int], List[float]]:
        """FAST + quantized Harris over every complete window of one level."""
        height, width = level_image.shape
        border = self.extractor_config.fast.border
        pixels = level_image.pixels
        xs: List[int] = []
        ys: List[int] = []
        scores: List[float] = []
        detected = 0
        for y in range(border, height - border):
            for x in range(border, width - border):
                window = pixels[y - 3 : y + 4, x - 3 : x + 4]
                is_corner, score = self.fast_unit.evaluate_window(window)
                if not is_corner:
                    continue
                detected += 1
                if score > 0:
                    xs.append(x)
                    ys.append(y)
                    scores.append(score)
        profile.keypoints_detected += detected
        return xs, ys, scores

    def _retained_arrays(self, entries: List[HeapEntry]) -> FeatureArrays:
        """The heap's retained records as the extraction result's columns."""
        if not entries:
            return FeatureArrays.empty()
        bins = np.array([entry.orientation_bin for entry in entries], dtype=np.int64)
        return FeatureArrays.from_level_columns(
            self.extractor_config.pyramid,
            descriptors=np.stack([entry.descriptor for entry in entries]),
            levels=np.array([entry.level for entry in entries], dtype=np.int64),
            xs=np.array([entry.x for entry in entries], dtype=np.int64),
            ys=np.array([entry.y for entry in entries], dtype=np.int64),
            scores=np.array([entry.score for entry in entries], dtype=np.float64),
            orientation_bins=bins,
            orientation_rads=bins * ORIENTATION_BIN_RAD,
        )

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
