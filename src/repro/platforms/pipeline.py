"""Parallelised pipeline and frame-rate model (Figure 7, Table 3).

On the CPU-only platforms every stage runs sequentially, so a frame takes
``FE + FM + PE + PO`` (plus ``MU`` for key frames).  eSLAM overlaps the FPGA
and the ARM host:

* **Normal frames** -- while the ARM runs PE and PO for frame N, the FPGA
  runs FE and FM for frame N+1.  The steady-state frame time is therefore
  ``max(FE + FM, PE + PO)``.
* **Key frames** -- MU must finish before the matcher may start (the map it
  matches against is being rewritten), so only FE overlaps with PE + PO and
  the frame time is ``FM + PE + PO + MU``.

Energy per frame is platform power times frame time, exactly the arithmetic
behind Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import PlatformModelError
from .runtime import StageRuntimes
from .spec import PlatformKind, PlatformSpec


@dataclass(frozen=True)
class FrameTiming:
    """Frame time, frame rate and energy for one frame class on one platform."""

    platform: str
    frame_kind: str  # "normal" or "key"
    runtime_ms: float
    frame_rate_fps: float
    power_w: float
    energy_per_frame_mj: float


@dataclass(frozen=True)
class PipelineScheduleEntry:
    """One bar of the Figure-7 style schedule (for visualisation/benchmarks)."""

    resource: str  # "FPGA" or "ARM"
    stage: str
    start_ms: float
    end_ms: float


class PipelineModel:
    """Computes frame time / frame rate / energy for a platform and stage set."""

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform

    # -- frame time ----------------------------------------------------------
    def frame_time_ms(self, stages: StageRuntimes, is_keyframe: bool) -> float:
        """Steady-state per-frame latency under the platform's schedule."""
        if self.platform.kind is PlatformKind.CPU_ONLY:
            total = stages.front_end_ms + stages.back_end_ms
            if is_keyframe:
                total += stages.map_updating
            return total
        # heterogeneous eSLAM schedule (Figure 7)
        if is_keyframe:
            return (
                stages.feature_matching
                + stages.pose_estimation
                + stages.pose_optimization
                + stages.map_updating
            )
        return max(stages.front_end_ms, stages.back_end_ms)

    def frame_timing(self, stages: StageRuntimes, is_keyframe: bool) -> FrameTiming:
        """Frame time plus derived frame rate and energy per frame."""
        runtime_ms = self.frame_time_ms(stages, is_keyframe)
        if runtime_ms <= 0:
            raise PlatformModelError("frame runtime must be positive")
        return FrameTiming(
            platform=self.platform.name,
            frame_kind="key" if is_keyframe else "normal",
            runtime_ms=runtime_ms,
            frame_rate_fps=1000.0 / runtime_ms,
            power_w=self.platform.power_w,
            energy_per_frame_mj=self.platform.power_w * runtime_ms,
        )

    # -- average over a mix of normal and key frames ------------------------------
    def average_timing(
        self, stages: StageRuntimes, keyframe_ratio: float
    ) -> Dict[str, float]:
        """Average runtime / frame rate / energy for a given key-frame ratio."""
        if not 0.0 <= keyframe_ratio <= 1.0:
            raise PlatformModelError("keyframe_ratio must be within [0, 1]")
        normal = self.frame_timing(stages, is_keyframe=False)
        key = self.frame_timing(stages, is_keyframe=True)
        runtime = (
            keyframe_ratio * key.runtime_ms + (1.0 - keyframe_ratio) * normal.runtime_ms
        )
        return {
            "runtime_ms": runtime,
            "frame_rate_fps": 1000.0 / runtime,
            "energy_per_frame_mj": self.platform.power_w * runtime,
        }

    # -- Figure 7 schedule -------------------------------------------------------
    def schedule(self, stages: StageRuntimes, is_keyframe: bool) -> List[PipelineScheduleEntry]:
        """Build the Gantt-style schedule of one steady-state frame.

        For CPU-only platforms everything is a single serial track labelled
        by the platform name.  For eSLAM the FPGA and ARM tracks are laid out
        per Figure 7; for key frames the matcher is delayed until map
        updating completes.
        """
        entries: List[PipelineScheduleEntry] = []
        if self.platform.kind is PlatformKind.CPU_ONLY:
            cursor = 0.0
            order = [
                ("feature_extraction", stages.feature_extraction),
                ("feature_matching", stages.feature_matching),
                ("pose_estimation", stages.pose_estimation),
                ("pose_optimization", stages.pose_optimization),
            ]
            if is_keyframe:
                order.append(("map_updating", stages.map_updating))
            for stage_name, duration in order:
                entries.append(
                    PipelineScheduleEntry(self.platform.name, stage_name, cursor, cursor + duration)
                )
                cursor += duration
            return entries
        # eSLAM: the ARM processes frame N while the FPGA prepares frame N+1
        arm_cursor = 0.0
        for stage_name, duration in (
            ("pose_estimation", stages.pose_estimation),
            ("pose_optimization", stages.pose_optimization),
        ):
            entries.append(PipelineScheduleEntry("ARM", stage_name, arm_cursor, arm_cursor + duration))
            arm_cursor += duration
        if is_keyframe:
            entries.append(
                PipelineScheduleEntry(
                    "ARM", "map_updating", arm_cursor, arm_cursor + stages.map_updating
                )
            )
            mu_end = arm_cursor + stages.map_updating
            entries.append(
                PipelineScheduleEntry("FPGA", "feature_extraction", 0.0, stages.feature_extraction)
            )
            entries.append(
                PipelineScheduleEntry(
                    "FPGA",
                    "feature_matching",
                    mu_end,
                    mu_end + stages.feature_matching,
                )
            )
        else:
            entries.append(
                PipelineScheduleEntry("FPGA", "feature_extraction", 0.0, stages.feature_extraction)
            )
            entries.append(
                PipelineScheduleEntry(
                    "FPGA",
                    "feature_matching",
                    stages.feature_extraction,
                    stages.feature_extraction + stages.feature_matching,
                )
            )
        return entries
