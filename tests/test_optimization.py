"""Tests for the reprojection model, Huber weights and pose optimisation."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Pose, refine_pose, se3_exp, so3_exp
from repro.geometry.pnp import huber_weights, reprojection_jacobian, reprojection_residuals
from repro.optimization import PoseOptimizer
from repro.optimization.pose_optimizer import COST_TOLERANCE, MAX_LAMBDA, STEP_TOLERANCE

from jacobians import numerical_jacobian


def rmse(camera, pose, points, observations):
    residual = reprojection_residuals(camera, pose, points, observations)
    return float(np.sqrt(residual @ residual / points.shape[0]))


class TestNumericalJacobian:
    def test_numerical_jacobian_matches_analytic(self):
        xs = np.linspace(0, 1, 10)

        def residual(p):
            return p[0] * xs**2 + p[1] * xs

        numeric = numerical_jacobian(residual, np.array([2.0, -1.0]))
        analytic = np.stack([xs**2, xs], axis=1)
        assert np.allclose(numeric, analytic, atol=1e-6)


class TestReprojectionProblem:
    @pytest.fixture()
    def problem(self, camera):
        rng = np.random.default_rng(0)
        points = rng.uniform([-1, -1, 2], [1, 1, 4], size=(40, 3))
        true_pose = Pose(so3_exp(np.array([0.05, 0.02, -0.04])), np.array([0.1, -0.05, 0.08]))
        observations = camera.project(true_pose.transform(points))
        return camera, points, observations, true_pose

    def test_zero_error_at_true_pose(self, problem):
        camera, points, observations, true_pose = problem
        residual = reprojection_residuals(camera, true_pose, points, observations)
        assert np.abs(residual).max() == pytest.approx(0.0, abs=1e-9)
        assert rmse(camera, true_pose, points, observations) == pytest.approx(0.0, abs=1e-9)

    def test_positive_error_at_wrong_pose(self, problem):
        camera, points, observations, _ = problem
        assert rmse(camera, Pose.identity(), points, observations) > 0

    def test_analytic_jacobian_matches_numeric(self, problem):
        camera, points, observations, _ = problem
        pose = Pose(so3_exp(np.array([0.02, 0.0, 0.01])), np.array([0.05, 0.0, 0.0]))
        analytic = reprojection_jacobian(camera, pose, points)

        def residual_of_delta(delta):
            perturbed = se3_exp(delta[:3], delta[3:]).compose(pose)
            return reprojection_residuals(camera, perturbed, points, observations)

        numeric = numerical_jacobian(residual_of_delta, np.zeros(6), epsilon=1e-7)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-4)

    def test_shape_validation(self, camera):
        solve = dict(max_iterations=5, cost_tolerance=1e-8, max_lambda=1e6)
        with pytest.raises(GeometryError):
            refine_pose(camera, np.zeros((3, 3)), np.zeros((2, 2)), Pose.identity(), **solve)
        with pytest.raises(GeometryError):
            refine_pose(camera, np.zeros((0, 3)), np.zeros((0, 2)), Pose.identity(), **solve)


class TestHuberWeights:
    def test_small_residuals_weight_one(self):
        residuals = np.array([1.0, 2.0, 0.5, -1.0])
        assert np.allclose(huber_weights(residuals, delta=5.0), 1.0)

    def test_large_residuals_downweighted(self):
        residuals = np.array([30.0, 40.0])  # one observation with 50px error
        weights = huber_weights(residuals, delta=5.0)
        assert np.allclose(weights, 0.1)

    def test_pairs_share_weight(self):
        residuals = np.array([30.0, 40.0, 1.0, 1.0])
        weights = huber_weights(residuals, delta=5.0)
        assert weights[0] == weights[1]
        assert weights[2] == weights[3] == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            huber_weights(np.array([1.0, 2.0]), delta=0.0)
        with pytest.raises(GeometryError):
            huber_weights(np.array([1.0, 2.0, 3.0]), delta=5.0)


class TestPoseOptimizer:
    @pytest.fixture()
    def noisy_problem(self, camera):
        rng = np.random.default_rng(3)
        points = rng.uniform([-1.5, -1, 2], [1.5, 1, 5], size=(80, 3))
        true_pose = Pose(so3_exp(np.array([0.06, -0.03, 0.08])), np.array([0.1, 0.05, -0.06]))
        observations = camera.project(true_pose.transform(points))
        observations += rng.normal(0, 0.4, observations.shape)
        return camera, points, observations, true_pose

    def test_refines_a_perturbed_pose(self, noisy_problem):
        camera, points, observations, true_pose = noisy_problem
        perturbed = se3_exp(np.array([0.03, -0.02, 0.01]), np.array([0.02, 0.01, -0.02])).compose(true_pose)
        result = PoseOptimizer(camera).optimize(points, observations, perturbed)
        assert result.final_rmse_px < rmse(camera, perturbed, points, observations)
        assert result.final_rmse_px == pytest.approx(
            rmse(camera, result.pose, points, observations), rel=1e-12
        )
        assert result.pose.translation_distance(true_pose) < 0.01
        assert result.pose.rotation_angle(true_pose) < 0.01

    def test_robust_weighting_resists_outliers(self, noisy_problem):
        camera, points, observations, true_pose = noisy_problem
        corrupted = observations.copy()
        corrupted[:8] += 80.0
        robust = PoseOptimizer(camera).optimize(points, corrupted, true_pose)
        plain = refine_pose(
            camera,
            points,
            corrupted,
            true_pose,
            max_iterations=20,
            cost_tolerance=COST_TOLERANCE,
            max_lambda=MAX_LAMBDA,
            step_tolerance=STEP_TOLERANCE,
        )
        assert robust.pose.translation_distance(true_pose) <= plain.pose.translation_distance(true_pose) + 1e-9

    def test_requires_minimum_observations(self, camera):
        with pytest.raises(GeometryError):
            PoseOptimizer(camera).optimize(np.zeros((2, 3)), np.zeros((2, 2)), Pose.identity())

    def test_reports_iteration_count(self, noisy_problem):
        camera, points, observations, true_pose = noisy_problem
        result = PoseOptimizer(camera, max_iterations=10).optimize(
            points, observations, Pose.identity()
        )
        assert 1 <= result.iterations <= 10
