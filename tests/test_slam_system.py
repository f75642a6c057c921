"""Integration tests for the tracker and the full SLAM system."""

import numpy as np
import pytest

from repro.config import SlamConfig
from repro.errors import GeometryError, TrackingError
from repro.geometry import PnpRansac, Pose
from repro.slam import Frame, SlamSystem, Tracker


class TestFrame:
    def test_depth_shape_validated(self, tiny_sequence, small_camera):
        rgbd = tiny_sequence[0]
        with pytest.raises(TrackingError):
            Frame(
                index=0,
                timestamp=0.0,
                image=rgbd.image,
                depth=np.zeros((10, 10)),
                camera=small_camera,
            )

    def test_feature_accessors_empty_before_extraction(self, tiny_sequence):
        rgbd = tiny_sequence[0]
        frame = Frame(
            index=0,
            timestamp=0.0,
            image=rgbd.image,
            depth=rgbd.depth,
            camera=tiny_sequence.camera,
        )
        assert frame.descriptor_matrix().shape == (0, 32)
        assert frame.keypoint_pixels().shape == (0, 2)

    def test_back_projection_requires_pose(self, tiny_sequence, tiny_slam_config):
        from repro.features import OrbExtractor

        rgbd = tiny_sequence[0]
        frame = Frame(
            index=0,
            timestamp=0.0,
            image=rgbd.image,
            depth=rgbd.depth,
            camera=tiny_sequence.camera,
        )
        frame.set_features(OrbExtractor(tiny_slam_config.extractor).extract(rgbd.image))
        with pytest.raises(TrackingError):
            frame.back_project_feature(0)
        frame.pose = Pose.identity()
        point = frame.back_project_feature(0)
        assert point is None or point.shape == (3,)


class TestTrackerOnSequence:
    def test_first_frame_initialises_map(self, tiny_sequence, tiny_slam_config):
        tracker = Tracker(tiny_slam_config)
        rgbd = tiny_sequence[0]
        frame = Frame(
            index=0, timestamp=0.0, image=rgbd.image, depth=rgbd.depth,
            camera=tiny_sequence.camera,
        )
        result = tracker.process(frame)
        assert result.is_keyframe
        assert result.pose.is_close(Pose.identity())
        assert len(tracker.map) > 50

    def test_second_frame_tracks_against_map(self, tiny_sequence, tiny_slam_config):
        tracker = Tracker(tiny_slam_config)
        for index in range(2):
            rgbd = tiny_sequence[index]
            frame = Frame(
                index=index, timestamp=rgbd.timestamp, image=rgbd.image,
                depth=rgbd.depth, camera=tiny_sequence.camera,
            )
            result = tracker.process(frame)
        assert result.tracked
        assert result.num_inliers >= tiny_slam_config.tracker.min_matches

    def test_workload_counters_populated(self, tiny_slam_result):
        workload = tiny_slam_result.frame_results[1].workload
        assert workload.pixels_processed > 0
        assert workload.distance_evaluations > 0
        assert workload.ransac_inliers > 0
        assert workload.map_size_after > 0


class TestPoseEstimationErrors:
    """Degenerate geometry is a tracking failure; any other error propagates."""

    def test_programming_error_propagates(
        self, monkeypatch, tiny_sequence, tiny_slam_config
    ):
        def broken(self, *args, **kwargs):
            raise TypeError("bug inside pose estimation")

        monkeypatch.setattr(PnpRansac, "estimate", broken)
        with pytest.raises(TypeError, match="bug inside pose estimation"):
            SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=2)

    @pytest.mark.parametrize("error", [GeometryError, np.linalg.LinAlgError])
    def test_degenerate_geometry_is_a_tracking_failure(
        self, monkeypatch, tiny_sequence, tiny_slam_config, error
    ):
        def degenerate(self, *args, **kwargs):
            raise error("degenerate correspondences")

        monkeypatch.setattr(PnpRansac, "estimate", degenerate)
        result = SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=2)
        assert result.frame_results[0].tracked  # the map bootstrap needs no PnP
        assert not result.frame_results[1].tracked
        assert result.frame_results[1].pose.is_close(result.frame_results[0].pose)


class TestSlamSystem:
    def test_tracks_every_frame(self, tiny_slam_result):
        assert tiny_slam_result.tracking_success_ratio == 1.0
        assert tiny_slam_result.num_frames == 5

    def test_trajectory_error_is_small(self, tiny_slam_result):
        """The headline functional requirement: SLAM recovers the trajectory."""
        ate = tiny_slam_result.ate()
        assert ate.rmse_cm < 5.0

    def test_estimated_poses_follow_motion_direction(self, tiny_slam_result, tiny_sequence):
        estimated = tiny_slam_result.estimated_poses
        ground_truth = tiny_slam_result.ground_truth_poses
        est_step = estimated[0].camera_center() - estimated[-1].camera_center()
        gt_step = ground_truth[0].camera_center() - ground_truth[-1].camera_center()
        # displacement direction must agree (positive dot product)
        assert float(est_step @ gt_step) > 0

    def test_keyframe_bookkeeping(self, tiny_slam_result):
        assert tiny_slam_result.num_keyframes >= 1
        assert 0 < tiny_slam_result.keyframe_ratio <= 1.0
        assert tiny_slam_result.frame_results[0].is_keyframe

    def test_mean_workload_keys(self, tiny_slam_result):
        workload = tiny_slam_result.mean_workload()
        assert workload["pixels_processed"] > 0
        assert "lm_iterations" in workload

    def test_run_slam_respects_max_frames(self, tiny_sequence, tiny_slam_config):
        result = SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=3)
        assert result.num_frames == 3

    def test_independent_systems_do_not_share_state(self, tiny_sequence, tiny_slam_config):
        """Each SlamSystem owns its own map; separate runs must agree exactly."""
        first = SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=3)
        second = SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=3)
        for a, b in zip(first.estimated_poses, second.estimated_poses):
            assert a.is_close(b, atol=1e-12)

    def test_original_orb_configuration_also_tracks(self, tiny_sequence, tiny_slam_config):
        config = SlamConfig(
            extractor=tiny_slam_config.extractor.with_descriptor_mode(False),
            matcher=tiny_slam_config.matcher,
            tracker=tiny_slam_config.tracker,
        )
        result = SlamSystem(config).run(tiny_sequence, max_frames=3)
        assert result.tracking_success_ratio == 1.0
        assert result.ate().rmse_cm < 8.0
