"""Tests for Levenberg-Marquardt, reprojection residuals and pose optimisation."""

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.geometry import PinholeCamera, Pose, se3_exp, so3_exp
from repro.optimization import (
    LMConfig,
    LevenbergMarquardt,
    PoseOptimizer,
    ReprojectionProblem,
    huber_weights,
    numerical_jacobian,
)


class TestGenericLM:
    def test_quadratic_bowl_converges_to_minimum(self):
        target = np.array([2.0, -3.0])

        optimizer = LevenbergMarquardt(
            residual_fn=lambda p: p - target,
            update_fn=lambda p, d: p + d,
            parameter_dim=2,
        )
        result = optimizer.optimize(np.zeros(2))
        assert result.converged
        assert np.allclose(result.parameters, target, atol=1e-6)
        assert result.cost < 1e-10

    def test_exponential_curve_fit(self):
        xs = np.linspace(0, 1, 30)
        true_params = np.array([2.0, 1.5])
        ys = true_params[0] * np.exp(true_params[1] * xs)

        def residual(params):
            return params[0] * np.exp(params[1] * xs) - ys

        optimizer = LevenbergMarquardt(
            residual_fn=residual,
            update_fn=lambda p, d: p + d,
            parameter_dim=2,
            config=LMConfig(max_iterations=100),
        )
        result = optimizer.optimize(np.array([1.0, 1.0]))
        assert np.allclose(result.parameters, true_params, atol=1e-5)

    def test_cost_history_is_non_increasing_on_accepted_steps(self):
        xs = np.linspace(0, 1, 20)
        ys = 3.0 * xs + 0.5

        optimizer = LevenbergMarquardt(
            residual_fn=lambda p: p[0] * xs + p[1] - ys,
            update_fn=lambda p, d: p + d,
            parameter_dim=2,
        )
        result = optimizer.optimize(np.zeros(2))
        accepted_costs = [entry.cost for entry in result.history if entry.accepted]
        assert all(b <= a + 1e-12 for a, b in zip(accepted_costs, accepted_costs[1:]))

    def test_initial_cost_recorded(self):
        optimizer = LevenbergMarquardt(
            residual_fn=lambda p: p - 1.0,
            update_fn=lambda p, d: p + d,
            parameter_dim=1,
        )
        result = optimizer.optimize(np.array([5.0]))
        assert result.initial_cost == pytest.approx(16.0)
        assert result.cost_reduction > 15.9

    def test_invalid_parameter_dim(self):
        with pytest.raises(OptimizationError):
            LevenbergMarquardt(lambda p: p, lambda p, d: p + d, parameter_dim=0)

    def test_jacobian_shape_mismatch_detected(self):
        optimizer = LevenbergMarquardt(
            residual_fn=lambda p: p,
            update_fn=lambda p, d: p + d,
            parameter_dim=2,
            jacobian_fn=lambda p: np.zeros((3, 2)),
        )
        with pytest.raises(OptimizationError):
            optimizer.optimize(np.zeros(2))

    def test_numerical_jacobian_matches_analytic(self):
        xs = np.linspace(0, 1, 10)

        def residual(p):
            return p[0] * xs**2 + p[1] * xs

        params = np.array([2.0, -1.0])
        numeric = numerical_jacobian(residual, lambda p, d: p + d, params, 2)
        analytic = np.stack([xs**2, xs], axis=1)
        assert np.allclose(numeric, analytic, atol=1e-6)


class TestReprojectionProblem:
    @pytest.fixture()
    def problem(self, camera):
        rng = np.random.default_rng(0)
        points = rng.uniform([-1, -1, 2], [1, 1, 4], size=(40, 3))
        true_pose = Pose(so3_exp(np.array([0.05, 0.02, -0.04])), np.array([0.1, -0.05, 0.08]))
        observations = camera.project(true_pose.transform(points))
        return ReprojectionProblem(camera, points, observations), true_pose

    def test_zero_error_at_true_pose(self, problem):
        prob, true_pose = problem
        assert np.abs(prob.residuals(true_pose)).max() == pytest.approx(0.0, abs=1e-9)
        assert prob.rmse(true_pose) == pytest.approx(0.0, abs=1e-9)

    def test_positive_error_at_wrong_pose(self, problem):
        prob, _ = problem
        assert prob.rmse(Pose.identity()) > 0

    def test_analytic_jacobian_matches_numeric(self, problem):
        prob, true_pose = problem
        pose = Pose(so3_exp(np.array([0.02, 0.0, 0.01])), np.array([0.05, 0.0, 0.0]))
        analytic = prob.jacobian(pose)

        def residual_of_delta(delta):
            perturbed = se3_exp(delta[:3], delta[3:]).compose(pose)
            return prob.residuals(perturbed)

        numeric = numerical_jacobian(
            residual_of_delta, lambda p, d: p + d, np.zeros(6), 6, epsilon=1e-7
        )
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-4)

    def test_shape_validation(self, camera):
        with pytest.raises(OptimizationError):
            ReprojectionProblem(camera, np.zeros((3, 3)), np.zeros((2, 2)))
        with pytest.raises(OptimizationError):
            ReprojectionProblem(camera, np.zeros((0, 3)), np.zeros((0, 2)))


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
        with pytest.raises(OptimizationError):
            huber_weights(np.array([1.0, 2.0]), delta=0.0)
        with pytest.raises(OptimizationError):
            huber_weights(np.array([1.0, 2.0, 3.0]))


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
        assert result.final_rmse_px < result.initial_rmse_px
        assert result.pose.translation_distance(true_pose) < 0.01
        assert result.pose.rotation_angle(true_pose) < 0.01

    def test_robust_weighting_resists_outliers(self, noisy_problem):
        camera, points, observations, true_pose = noisy_problem
        corrupted = observations.copy()
        corrupted[:8] += 80.0
        robust = PoseOptimizer(camera, robust_delta_px=5.0).optimize(
            points, corrupted, true_pose
        )
        plain = PoseOptimizer(camera, robust_delta_px=None).optimize(
            points, corrupted, true_pose
        )
        assert robust.pose.translation_distance(true_pose) <= plain.pose.translation_distance(true_pose) + 1e-9

    def test_requires_minimum_observations(self, camera):
        with pytest.raises(OptimizationError):
            PoseOptimizer(camera).optimize(np.zeros((2, 3)), np.zeros((2, 2)), Pose.identity())

    def test_reports_iteration_count(self, noisy_problem):
        camera, points, observations, true_pose = noisy_problem
        result = PoseOptimizer(camera, max_iterations=10).optimize(
            points, observations, Pose.identity()
        )
        assert 1 <= result.iterations <= 10
