"""Tests for the ground-truth trajectory generators."""

import numpy as np
import pytest

from repro.dataset import (
    SEQUENCE_BUILDERS,
    build_trajectory,
    desk_trajectory,
    room_trajectory,
    rpy_trajectory,
    xyz_trajectory,
)
from repro.errors import DatasetError
from repro.geometry import Pose


def _max_step_translation(poses):
    return max(
        poses[i].translation_distance(poses[i + 1]) for i in range(len(poses) - 1)
    )


def _max_step_rotation(poses):
    return max(
        poses[i].rotation_angle(poses[i + 1]) for i in range(len(poses) - 1)
    )


class TestXyzTrajectory:
    def test_length(self):
        assert len(xyz_trajectory(num_frames=30)) == 30

    def test_translation_only(self):
        poses = xyz_trajectory(num_frames=30)
        assert _max_step_rotation(poses) == pytest.approx(0.0, abs=1e-12)
        assert _max_step_translation(poses) > 0

    def test_starts_at_origin(self):
        poses = xyz_trajectory(num_frames=30)
        assert np.allclose(poses[0].camera_center(), np.zeros(3), atol=1e-12)

    def test_amplitude_respected(self):
        poses = xyz_trajectory(num_frames=60, amplitude_m=0.2)
        centers = np.stack([p.camera_center() for p in poses])
        assert np.abs(centers[:, 0]).max() <= 0.2 + 1e-9

    def test_smooth_motion(self):
        poses = xyz_trajectory(num_frames=60)
        assert _max_step_translation(poses) < 0.08


class TestRpyTrajectory:
    def test_rotation_only(self):
        poses = rpy_trajectory(num_frames=30)
        centers = np.stack([p.camera_center() for p in poses])
        assert np.abs(centers).max() == pytest.approx(0.0, abs=1e-12)
        assert _max_step_rotation(poses) > 0

    def test_rotation_amplitude(self):
        poses = rpy_trajectory(num_frames=60, amplitude_rad=0.1)
        max_angle = max(p.rotation_angle(Pose.identity()) for p in poses)
        assert max_angle < 0.3


class TestDeskAndRoom:
    def test_desk_has_both_translation_and_rotation(self):
        poses = desk_trajectory(num_frames=40)
        assert _max_step_translation(poses) > 0
        assert _max_step_rotation(poses) > 0

    def test_room_sweeps_yaw(self):
        poses = room_trajectory(num_frames=40, yaw_total_rad=np.pi / 2)
        total_rotation = poses[0].rotation_angle(poses[-1])
        assert total_rotation == pytest.approx(np.pi / 2, abs=1e-6)

    def test_minimum_length_validation(self):
        with pytest.raises(DatasetError):
            xyz_trajectory(num_frames=1)
        with pytest.raises(DatasetError):
            desk_trajectory(num_frames=0)


class TestBuilders:
    def test_all_five_paper_sequences_available(self):
        assert set(SEQUENCE_BUILDERS) == {
            "fr1/xyz",
            "fr2/xyz",
            "fr1/desk",
            "fr1/room",
            "fr2/rpy",
        }

    def test_build_trajectory_profile(self):
        profile = build_trajectory("fr1/xyz", num_frames=20, frame_rate_hz=30.0)
        assert len(profile) == 20
        assert profile.name == "fr1/xyz"
        timestamps = profile.timestamps()
        assert timestamps[1] - timestamps[0] == pytest.approx(1.0 / 30.0)

    def test_unknown_sequence_rejected(self):
        with pytest.raises(DatasetError):
            build_trajectory("fr9/unknown", num_frames=10)

    def test_motion_characters_differ(self):
        """xyz is translation-dominated, rpy rotation-dominated."""
        xyz = build_trajectory("fr1/xyz", 30).poses
        rpy = build_trajectory("fr2/rpy", 30).poses
        assert _max_step_translation(xyz) > _max_step_translation(rpy)
        assert _max_step_rotation(rpy) > _max_step_rotation(xyz)
