"""Sensitivity analysis of the platform models.

The paper evaluates one operating point (640x480, 4-level pyramid, 1024
features, ~1500-point map).  These sweeps answer the natural follow-up
questions a user of the system would ask -- how do frame rate and energy move
as the map grows, as the feature budget changes, or as the input resolution
scales -- using exactly the same models that reproduce Tables 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..config import ExtractorConfig
from ..errors import PlatformModelError
from .pipeline import PipelineModel
from .runtime import CpuRuntimeModel, EslamRuntimeModel
from .spec import ARM_CORTEX_A9, ESLAM, INTEL_I7
from .workload import NOMINAL_WORKLOAD, FrameWorkload


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sensitivity sweep."""

    parameter: float
    runtime_ms: Dict[str, float]
    frame_rate_fps: Dict[str, float]
    energy_per_frame_mj: Dict[str, float]


class SensitivityAnalysis:
    """Parameter sweeps over the combined runtime + pipeline models."""

    def __init__(self, keyframe_ratio: float = 0.25) -> None:
        if not 0.0 <= keyframe_ratio <= 1.0:
            raise PlatformModelError("keyframe_ratio must be within [0, 1]")
        self.keyframe_ratio = keyframe_ratio
        self._models = {
            ARM_CORTEX_A9.name: CpuRuntimeModel(ARM_CORTEX_A9),
            INTEL_I7.name: CpuRuntimeModel(INTEL_I7),
            ESLAM.name: EslamRuntimeModel(),
        }
        self._pipelines = {
            name: PipelineModel(spec)
            for name, spec in (
                (ARM_CORTEX_A9.name, ARM_CORTEX_A9),
                (INTEL_I7.name, INTEL_I7),
                (ESLAM.name, ESLAM),
            )
        }

    # -- core evaluation -----------------------------------------------------------
    def evaluate(self, workload: FrameWorkload, parameter: float) -> SweepPoint:
        """Evaluate every platform at one workload point."""
        runtime: Dict[str, float] = {}
        fps: Dict[str, float] = {}
        energy: Dict[str, float] = {}
        for name, model in self._models.items():
            stages = model.stage_runtimes(workload)
            averages = self._pipelines[name].average_timing(stages, self.keyframe_ratio)
            runtime[name] = averages["runtime_ms"]
            fps[name] = averages["frame_rate_fps"]
            energy[name] = averages["energy_per_frame_mj"]
        return SweepPoint(parameter, runtime, fps, energy)

    # -- sweeps -----------------------------------------------------------------------
    def map_size_sweep(self, map_sizes: Sequence[int] = (500, 1000, 1500, 3000, 6000)) -> List[SweepPoint]:
        """How the global-map size moves frame rate (matching is O(N*M))."""
        return [
            self.evaluate(NOMINAL_WORKLOAD.with_map_points(size), float(size))
            for size in map_sizes
        ]

    def feature_budget_sweep(
        self, budgets: Sequence[int] = (256, 512, 1024, 2048)
    ) -> List[SweepPoint]:
        """How the retained-feature budget (heap capacity N) moves the numbers."""
        points = []
        for budget in budgets:
            workload = FrameWorkload(
                pixels_processed=NOMINAL_WORKLOAD.pixels_processed,
                descriptors_computed=max(budget * 2, NOMINAL_WORKLOAD.descriptors_computed),
                features_retained=budget,
                map_points=NOMINAL_WORKLOAD.map_points,
                distance_evaluations=budget * NOMINAL_WORKLOAD.map_points,
                ransac_iterations=NOMINAL_WORKLOAD.ransac_iterations,
                correspondences=min(budget, NOMINAL_WORKLOAD.correspondences),
                lm_iterations=NOMINAL_WORKLOAD.lm_iterations,
                lm_observations=min(budget, NOMINAL_WORKLOAD.lm_observations),
                map_points_added=NOMINAL_WORKLOAD.map_points_added,
                map_points_culled_scan=NOMINAL_WORKLOAD.map_points_culled_scan,
            )
            points.append(self.evaluate(workload, float(budget)))
        return points

    # -- derived metrics ------------------------------------------------------------
    @staticmethod
    def real_time_limit(points: Sequence[SweepPoint], platform: str, fps: float = 30.0) -> float | None:
        """Largest swept parameter at which ``platform`` still reaches ``fps``.

        Returns ``None`` if the platform never reaches the target within the sweep.
        """
        feasible = [p.parameter for p in points if p.frame_rate_fps[platform] >= fps]
        return max(feasible) if feasible else None


def eslam_accelerator_resolution_latency(scales: Sequence[float] = (0.5, 1.0, 1.5)) -> Dict[float, float]:
    """FE latency of the accelerator cycle model at several input resolutions."""
    from ..hw import EslamAccelerator
    from ..image import GrayImage

    latencies: Dict[float, float] = {}
    for scale in scales:
        width = int(640 * scale)
        height = int(480 * scale)
        accel = EslamAccelerator(
            extractor_config=ExtractorConfig(image_width=width, image_height=height)
        )
        blank = GrayImage.zeros(height, width)
        keypoints = int(2000 * scale * scale)
        latencies[scale] = accel.extractor.latency_from_profile(
            blank, keypoints_after_nms=keypoints, descriptors_computed=keypoints
        ).latency_ms
    return latencies
