"""SLAM core: frames, map, tracking, full system and trajectory evaluation."""

from .frame import Frame
from .map_point import MapPoint
from .map import GlobalMap, MapUpdateStats
from .keyframe import KeyframeDecision, KeyframePolicy
from .tracker import StageWorkload, Tracker, TrackingResult
from .evaluation import (
    AteResult,
    RpeResult,
    absolute_trajectory_error,
    camera_centers,
    relative_pose_error,
    umeyama_alignment,
)
from .system import SlamRunResult, SlamSystem, stable_frame_id
from .visualization import ascii_scatter, error_bars, matching_summary, trajectory_top_view

__all__ = [
    "ascii_scatter",
    "trajectory_top_view",
    "error_bars",
    "matching_summary",
    "Frame",
    "MapPoint",
    "GlobalMap",
    "MapUpdateStats",
    "KeyframeDecision",
    "KeyframePolicy",
    "StageWorkload",
    "Tracker",
    "TrackingResult",
    "AteResult",
    "RpeResult",
    "absolute_trajectory_error",
    "relative_pose_error",
    "camera_centers",
    "umeyama_alignment",
    "SlamRunResult",
    "SlamSystem",
    "stable_frame_id",
]
