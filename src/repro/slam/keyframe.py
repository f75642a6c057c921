"""Key-frame selection policy.

Key frames are frames whose camera translation or rotation relative to the
previous key frame exceeds a threshold (Section 2.1).  Map updating only runs
on key frames, which also changes the accelerator pipeline schedule (Fig. 7),
so the policy exposes the observed key-frame rate for the platform models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import TrackerConfig
from ..geometry import Pose


@dataclass
class KeyframeDecision:
    """Outcome of the key-frame test for one frame."""

    is_keyframe: bool
    translation_m: float
    rotation_rad: float
    reason: str


class KeyframePolicy:
    """Threshold-based key-frame selection.

    The first tracked frame is always a key frame (it bootstraps the map).
    Subsequent frames become key frames when they have moved more than
    ``keyframe_translation_m`` metres or rotated more than
    ``keyframe_rotation_rad`` radians since the last key frame.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._last_keyframe_pose: Optional[Pose] = None
        self.num_keyframes = 0
        self.num_frames = 0

    def evaluate(self, pose: Pose) -> KeyframeDecision:
        """Evaluate (and record) the key-frame decision for a tracked pose."""
        self.num_frames += 1
        if self._last_keyframe_pose is None:
            self._accept(pose)
            return KeyframeDecision(True, 0.0, 0.0, "first frame")
        translation = pose.translation_distance(self._last_keyframe_pose)
        rotation = pose.rotation_angle(self._last_keyframe_pose)
        if translation > self.config.keyframe_translation_m:
            self._accept(pose)
            return KeyframeDecision(True, translation, rotation, "translation threshold")
        if rotation > self.config.keyframe_rotation_rad:
            self._accept(pose)
            return KeyframeDecision(True, translation, rotation, "rotation threshold")
        return KeyframeDecision(False, translation, rotation, "below thresholds")

    def _accept(self, pose: Pose) -> None:
        self._last_keyframe_pose = pose
        self.num_keyframes += 1

    @property
    def keyframe_ratio(self) -> float:
        """Fraction of processed frames that became key frames."""
        if self.num_frames == 0:
            return 0.0
        return self.num_keyframes / self.num_frames
