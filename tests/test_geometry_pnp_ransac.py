"""Tests for PnP pose estimation and RANSAC outlier rejection."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    IterativePnpSolver,
    PinholeCamera,
    PnpRansac,
    Pose,
    RansacConfig,
    adaptive_iterations,
    estimate_pose_3d3d,
    so3_exp,
)

from poses import poses_close


@pytest.fixture()
def synthetic_pnp_problem(camera):
    rng = np.random.default_rng(42)
    points_world = rng.uniform([-1.5, -1.0, 1.5], [1.5, 1.0, 4.0], size=(120, 3))
    true_pose = Pose(so3_exp(np.array([0.04, -0.06, 0.09])), np.array([0.12, -0.04, 0.06]))
    pixels = camera.project(true_pose.transform(points_world))
    return camera, points_world, true_pose, pixels


class TestKabschAlignment:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 3))
        pose = Pose(so3_exp(np.array([0.2, -0.1, 0.3])), np.array([0.5, -0.2, 1.0]))
        transformed = pose.transform(points)
        recovered = estimate_pose_3d3d(points, transformed)
        assert poses_close(recovered, pose, atol=1e-9)

    def test_identity_for_same_sets(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(10, 3))
        assert poses_close(estimate_pose_3d3d(points, points), Pose.identity(), atol=1e-9)

    def test_rejects_too_few_points(self):
        with pytest.raises(GeometryError):
            estimate_pose_3d3d(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_robust_to_small_noise(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(100, 3))
        pose = Pose(so3_exp(np.array([0.1, 0.2, -0.1])), np.array([0.3, 0.1, -0.2]))
        noisy = pose.transform(points) + rng.normal(0, 1e-3, size=(100, 3))
        recovered = estimate_pose_3d3d(points, noisy)
        assert recovered.translation_distance(pose) < 1e-2
        assert recovered.rotation_angle(pose) < 1e-2


class TestIterativePnp:
    def test_recovers_pose_from_clean_data(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        result = IterativePnpSolver(camera).solve(points, pixels)
        assert result.pose.translation_distance(true_pose) < 1e-4
        assert result.pose.rotation_angle(true_pose) < 1e-4
        assert result.inlier_rmse_px < 0.1

    def test_benefits_from_initial_guess(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        warm = IterativePnpSolver(camera, max_iterations=3).solve(
            points, pixels, initial_pose=true_pose
        )
        assert warm.pose.translation_distance(true_pose) < 1e-6

    def test_handles_noisy_observations(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        rng = np.random.default_rng(5)
        noisy = pixels + rng.normal(0, 0.5, pixels.shape)
        result = IterativePnpSolver(camera).solve(points, noisy)
        assert result.pose.translation_distance(true_pose) < 0.01

    def test_rejects_too_few_points(self, camera):
        with pytest.raises(GeometryError):
            IterativePnpSolver(camera).solve(np.zeros((3, 3)), np.zeros((3, 2)))

    def test_shape_validation(self, camera):
        with pytest.raises(GeometryError):
            IterativePnpSolver(camera).solve(np.zeros((5, 3)), np.zeros((4, 2)))


class TestPnpRansac:
    def test_rejects_outliers(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        rng = np.random.default_rng(7)
        corrupted = pixels.copy()
        outliers = rng.choice(len(points), size=30, replace=False)
        corrupted[outliers] += rng.uniform(40, 120, size=(30, 2))
        depths = true_pose.transform(points)[:, 2]
        result = PnpRansac(camera, RansacConfig(num_iterations=100)).estimate(
            points, corrupted, observed_depths=depths
        )
        assert result.success
        assert result.num_inliers >= len(points) - 35
        assert result.model.translation_distance(true_pose) < 0.01
        # no outlier should be classified as an inlier
        assert not set(outliers.tolist()) & set(result.inlier_indices().tolist())

    def test_all_inliers(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        depths = true_pose.transform(points)[:, 2]
        result = PnpRansac(camera).estimate(points, pixels, observed_depths=depths)
        assert result.num_inliers == len(points)

    def test_too_few_correspondences_rejected(self, camera):
        with pytest.raises(GeometryError):
            PnpRansac(camera).estimate(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_adaptive_termination_runs_fewer_iterations(self, synthetic_pnp_problem):
        camera, points, true_pose, pixels = synthetic_pnp_problem
        depths = true_pose.transform(points)[:, 2]
        result = PnpRansac(camera, RansacConfig(num_iterations=500)).estimate(
            points, pixels, observed_depths=depths
        )
        assert result.num_iterations < 500


class TestAdaptiveIterations:
    def test_high_inlier_ratio_needs_few_iterations(self):
        assert adaptive_iterations(0.9, 4, 0.99, 1000) <= 5

    def test_low_inlier_ratio_hits_cap(self):
        assert adaptive_iterations(0.05, 4, 0.99, 200) == 200

    def test_zero_ratio_returns_max(self):
        assert adaptive_iterations(0.0, 4, 0.99, 123) == 123

    def test_perfect_ratio_returns_one(self):
        assert adaptive_iterations(1.0, 4, 0.99, 123) == 1
