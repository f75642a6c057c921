"""Per-stage runtime models for the three platforms (Table 2).

The software baselines of the paper run the full pipeline on an ARM
Cortex-A9 or an Intel i7; eSLAM offloads feature extraction (FE) and feature
matching (FM) to the FPGA while pose estimation (PE), pose optimisation (PO)
and map updating (MU) stay on the ARM host.

Because the physical boards are not available, each CPU stage is modelled as
``runtime = sum(coefficient_i * workload_i)``.  The coefficients are
calibrated once from the paper's Table 2 anchors at the nominal workload
(:data:`~repro.platforms.workload.NOMINAL_WORKLOAD`), after which runtimes
respond to the *actual* workload of a frame: more keypoints, a bigger map or
more LM iterations increase the corresponding stage time proportionally.
The eSLAM FE/FM stages use the accelerator cycle model instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import AcceleratorConfig, ExtractorConfig
from ..errors import PlatformModelError
from ..hw.accelerator import EslamAccelerator
from .spec import ARM_CORTEX_A9, ESLAM, INTEL_I7, PlatformSpec
from .workload import NOMINAL_WORKLOAD, FrameWorkload

#: Per-stage runtimes (milliseconds) reported in Table 2 at the nominal workload.
PAPER_STAGE_RUNTIMES_MS: Dict[str, Dict[str, float]] = {
    "ARM Cortex-A9": {
        "feature_extraction": 291.6,
        "feature_matching": 246.2,
        "pose_estimation": 9.2,
        "pose_optimization": 8.7,
        "map_updating": 9.9,
    },
    "Intel i7-4700MQ": {
        "feature_extraction": 32.5,
        "feature_matching": 19.7,
        "pose_estimation": 0.9,
        "pose_optimization": 0.5,
        "map_updating": 1.2,
    },
    "eSLAM": {
        # FE/FM come from the accelerator model; PE/PO/MU run on the same ARM host.
        "feature_extraction": 9.1,
        "feature_matching": 4.0,
        "pose_estimation": 9.2,
        "pose_optimization": 8.7,
        "map_updating": 9.9,
    },
}

#: Fraction of CPU feature-extraction time spent in the per-pixel front end
#: (FAST + Harris + smoothing) versus the per-keypoint descriptor path.
_FE_PIXEL_FRACTION = 0.65


@dataclass(frozen=True)
class StageRuntimes:
    """Per-stage runtimes of one frame on one platform (milliseconds)."""

    feature_extraction: float
    feature_matching: float
    pose_estimation: float
    pose_optimization: float
    map_updating: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "feature_extraction": self.feature_extraction,
            "feature_matching": self.feature_matching,
            "pose_estimation": self.pose_estimation,
            "pose_optimization": self.pose_optimization,
            "map_updating": self.map_updating,
        }

    @property
    def front_end_ms(self) -> float:
        """FE + FM (the part eSLAM accelerates)."""
        return self.feature_extraction + self.feature_matching

    @property
    def back_end_ms(self) -> float:
        """PE + PO (always on the host)."""
        return self.pose_estimation + self.pose_optimization


class CpuRuntimeModel:
    """Workload-proportional runtime model for a software (CPU-only) platform."""

    def __init__(self, platform: PlatformSpec) -> None:
        if platform.name not in PAPER_STAGE_RUNTIMES_MS:
            raise PlatformModelError(f"no calibration anchors for platform '{platform.name}'")
        self.platform = platform
        anchors = PAPER_STAGE_RUNTIMES_MS[platform.name]
        nominal = NOMINAL_WORKLOAD
        # feature extraction: pixel-proportional front end + keypoint-proportional
        # descriptor path
        self._fe_per_pixel_ms = (
            anchors["feature_extraction"] * _FE_PIXEL_FRACTION / nominal.pixels_processed
        )
        self._fe_per_descriptor_ms = (
            anchors["feature_extraction"]
            * (1.0 - _FE_PIXEL_FRACTION)
            / nominal.descriptors_computed
        )
        # feature matching: proportional to descriptor-pair evaluations
        self._fm_per_distance_ms = anchors["feature_matching"] / nominal.distance_evaluations
        # pose estimation: proportional to RANSAC iterations x correspondences
        self._pe_per_iteration_point_ms = anchors["pose_estimation"] / (
            nominal.ransac_iterations * nominal.correspondences
        )
        # pose optimisation: proportional to LM iterations x observations
        self._po_per_iteration_obs_ms = anchors["pose_optimization"] / (
            nominal.lm_iterations * nominal.lm_observations
        )
        # map updating: proportional to points added plus the cull scan
        self._mu_per_point_ms = anchors["map_updating"] / (
            nominal.map_points_added + nominal.map_points_culled_scan
        )

    def stage_runtimes(self, workload: FrameWorkload) -> StageRuntimes:
        """Per-stage runtimes (ms) for the given workload on this platform."""
        return StageRuntimes(
            feature_extraction=(
                self._fe_per_pixel_ms * workload.pixels_processed
                + self._fe_per_descriptor_ms * workload.descriptors_computed
            ),
            feature_matching=self._fm_per_distance_ms * workload.distance_evaluations,
            pose_estimation=self._pe_per_iteration_point_ms
            * workload.ransac_iterations
            * workload.correspondences,
            pose_optimization=self._po_per_iteration_obs_ms
            * workload.lm_iterations
            * workload.lm_observations,
            map_updating=self._mu_per_point_ms
            * (workload.map_points_added + workload.map_points_culled_scan),
        )


class EslamRuntimeModel:
    """Runtime model of the heterogeneous eSLAM system.

    FE and FM latencies come from the FPGA accelerator cycle model; PE, PO
    and MU reuse the ARM Cortex-A9 CPU model because those stages run
    unchanged on the embedded host.
    """

    def __init__(
        self,
        extractor_config: ExtractorConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
    ) -> None:
        self.platform = ESLAM
        self.accelerator = EslamAccelerator(extractor_config, accel_config)
        self._host_model = CpuRuntimeModel(ARM_CORTEX_A9)

    def stage_runtimes(self, workload: FrameWorkload) -> StageRuntimes:
        host = self._host_model.stage_runtimes(workload)
        fe_ms = self.accelerator.feature_extraction_latency_ms(
            keypoints_after_nms=workload.descriptors_computed,
            descriptors_computed=workload.descriptors_computed,
            pixels_processed=workload.pixels_processed,
        )
        fm_ms = self.accelerator.feature_matching_latency_ms(
            num_features=workload.features_retained,
            num_map_points=workload.map_points,
        )
        return StageRuntimes(
            feature_extraction=fe_ms,
            feature_matching=fm_ms,
            pose_estimation=host.pose_estimation,
            pose_optimization=host.pose_optimization,
            map_updating=host.map_updating,
        )


def runtime_model_for(platform: PlatformSpec):
    """Factory returning the right runtime model for a platform spec."""
    if platform.name == ESLAM.name:
        return EslamRuntimeModel()
    if platform.name in (ARM_CORTEX_A9.name, INTEL_I7.name):
        return CpuRuntimeModel(platform)
    raise PlatformModelError(f"unsupported platform '{platform.name}'")
