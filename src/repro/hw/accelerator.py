"""Top-level eSLAM FPGA accelerator model (Figure 3).

Composes the ORB Extractor, the BRIEF Matcher and the Image Resizing module
behind a shared AXI/SDRAM interface, producing per-frame functional outputs
(features, matches) together with the modelled FPGA latency of the feature
extraction (FE) and feature matching (FM) stages that feed the heterogeneous
pipeline model in :mod:`repro.platforms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import AcceleratorConfig, ExtractorConfig
from ..features import ExtractionResult
from ..image import GrayImage
from ..matching import Match
from .axi import SdramModel
from .brief_matcher import BriefMatcherAccelerator, MatcherLatencyReport
from .orb_extractor import ExtractorLatencyReport, OrbExtractorAccelerator
from .resizer import ImageResizerModule
from .resources import DeviceCapacity, ResourceModel, ResourceReport


@dataclass
class AcceleratorFrameReport:
    """Everything the accelerator produced for one frame."""

    extraction: ExtractionResult
    matches: List[Match]
    extractor_report: ExtractorLatencyReport
    matcher_report: Optional[MatcherLatencyReport]

    @property
    def feature_extraction_ms(self) -> float:
        return self.extractor_report.latency_ms

    @property
    def feature_matching_ms(self) -> float:
        if self.matcher_report is None:
            return 0.0
        return self.matcher_report.latency_ms


class EslamAccelerator:
    """The FPGA portion of eSLAM: extractor + matcher + resizer."""

    def __init__(
        self,
        extractor_config: ExtractorConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
        sdram_capacity_bytes: int = 1 << 30,
    ) -> None:
        self.extractor_config = extractor_config or ExtractorConfig()
        self.accel_config = accel_config or AcceleratorConfig()
        self.extractor = OrbExtractorAccelerator(self.extractor_config, self.accel_config)
        self.matcher = BriefMatcherAccelerator(self.accel_config)
        self.resizer = ImageResizerModule(self.extractor_config.pyramid, self.accel_config)
        self.sdram = SdramModel(sdram_capacity_bytes)
        self._reserve_sdram_buffers()

    def _reserve_sdram_buffers(self) -> None:
        """Allocate the off-chip buffers the accelerator expects to exist."""
        image_bytes = self.extractor_config.image_width * self.extractor_config.image_height
        self.sdram.allocate("input_image", image_bytes)
        self.sdram.allocate("pyramid", image_bytes)  # downsampled levels fit in one frame
        self.sdram.allocate(
            "feature_results", self.extractor_config.max_features * 40
        )
        self.sdram.allocate("map_descriptors", 32 * 65536)
        self.sdram.allocate("match_results", self.extractor_config.max_features * 8)

    # -- per-frame processing -----------------------------------------------------
    def process_frame(
        self,
        image: GrayImage,
        map_descriptors: Optional[np.ndarray] = None,
    ) -> AcceleratorFrameReport:
        """Run FE (and FM when a map is supplied) for one frame."""
        extraction, extractor_report = self.extractor.extract(image)
        matches: List[Match] = []
        matcher_report: Optional[MatcherLatencyReport] = None
        if map_descriptors is not None and np.asarray(map_descriptors).size > 0:
            matches, matcher_report = self.matcher.match(
                extraction.descriptor_matrix(), map_descriptors
            )
        return AcceleratorFrameReport(
            extraction=extraction,
            matches=matches,
            extractor_report=extractor_report,
            matcher_report=matcher_report,
        )

    # -- analytic latencies (no image needed) ---------------------------------------
    def feature_extraction_latency_ms(
        self,
        keypoints_after_nms: int,
        descriptors_computed: Optional[int] = None,
        pixels_processed: Optional[int] = None,
    ) -> float:
        """FE latency for a given keypoint load on a blank frame.

        The frame is the configured one, or, given ``pixels_processed`` (the
        pixels of all pyramid levels, as a workload counts them), the frame of
        the configured aspect ratio whose pyramid holds that many pixels.
        """
        blank = GrayImage.zeros(*self.frame_shape(pixels_processed))
        report = self.extractor.latency_from_profile(
            blank,
            keypoints_after_nms=keypoints_after_nms,
            descriptors_computed=descriptors_computed,
        )
        return report.latency_ms

    def frame_shape(self, pixels_processed: Optional[int] = None) -> Tuple[int, int]:
        """``(height, width)`` of the frame whose pyramid has ``pixels_processed`` pixels.

        Without a pixel count this is the configured frame.  Every pyramid
        level shrinks both sides by the scale factor, so the pyramid holds
        ``sum(scale**(-2 * level))`` frames' worth of pixels.
        """
        height = self.extractor_config.image_height
        width = self.extractor_config.image_width
        if pixels_processed is None:
            return height, width
        pyramid = self.extractor_config.pyramid
        frames = sum(pyramid.level_scale(level) ** -2 for level in range(pyramid.num_levels))
        side = math.sqrt(pixels_processed / (frames * height * width))
        return max(1, round(height * side)), max(1, round(width * side))

    def feature_matching_latency_ms(self, num_features: int, num_map_points: int) -> float:
        """FM latency for the given matching workload."""
        return self.matcher.latency_for(num_features, num_map_points).latency_ms

    # -- resources --------------------------------------------------------------------
    def resource_report(self, device: DeviceCapacity | None = None) -> ResourceReport:
        """Estimated FPGA resource utilisation (Table 1)."""
        model = ResourceModel(
            extractor_config=self.extractor_config,
            accel_config=self.accel_config,
            device=device or DeviceCapacity.xc7z045(),
        )
        return model.estimate()
