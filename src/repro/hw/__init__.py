"""FPGA accelerator model: cycle accounting, datapath units, resources."""

from .cycles import CycleBreakdown
from .axi import AxiPort, AxiTransferStats, SdramModel
from .bram import BRAM36_BITS, BramRequirement, line_buffer_requirement, total_bram36
from .resources import DeviceCapacity, ModuleResources, ResourceModel, ResourceReport
from .accelerator import AcceleratorFrameReport, EslamAccelerator
from .orb_extractor import (
    ExtractorLatencyReport,
    OrbExtractorAccelerator,
    PingPongImageCache,
    stream_image_through_cache,
)
from .brief_matcher import BriefMatcherAccelerator, MatcherLatencyReport

__all__ = [
    "CycleBreakdown",
    "AxiPort",
    "AxiTransferStats",
    "SdramModel",
    "BramRequirement",
    "BRAM36_BITS",
    "line_buffer_requirement",
    "total_bram36",
    "DeviceCapacity",
    "ModuleResources",
    "ResourceModel",
    "ResourceReport",
    "AcceleratorFrameReport",
    "EslamAccelerator",
    "ExtractorLatencyReport",
    "OrbExtractorAccelerator",
    "PingPongImageCache",
    "stream_image_through_cache",
    "BriefMatcherAccelerator",
    "MatcherLatencyReport",
]
