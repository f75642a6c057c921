"""Platform models: runtime, power, pipeline scheduling and comparisons."""

from .spec import ARM_CORTEX_A9, ESLAM, INTEL_I7, PlatformKind, PlatformSpec
from .workload import NOMINAL_WORKLOAD, FrameWorkload
from .runtime import (
    PAPER_STAGE_RUNTIMES_MS,
    CpuRuntimeModel,
    EslamRuntimeModel,
    StageRuntimes,
    runtime_model_for,
)
from .pipeline import FrameTiming, PipelineModel, PipelineScheduleEntry
from .comparison import PlatformComparison
from .sensitivity import (
    SensitivityAnalysis,
    SweepPoint,
    eslam_accelerator_resolution_latency,
)

__all__ = [
    "SensitivityAnalysis",
    "SweepPoint",
    "eslam_accelerator_resolution_latency",
    "PlatformSpec",
    "PlatformKind",
    "ARM_CORTEX_A9",
    "INTEL_I7",
    "ESLAM",
    "FrameWorkload",
    "NOMINAL_WORKLOAD",
    "CpuRuntimeModel",
    "EslamRuntimeModel",
    "StageRuntimes",
    "runtime_model_for",
    "PAPER_STAGE_RUNTIMES_MS",
    "FrameTiming",
    "PipelineModel",
    "PipelineScheduleEntry",
    "PlatformComparison",
]
