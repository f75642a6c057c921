"""Pose-only bundle adjustment (the Pose Optimization stage).

Given the pose produced by PnP + RANSAC, eSLAM refines it by minimising the
reprojection error of all inlier map-point observations with
Levenberg-Marquardt.  This module wires the :class:`ReprojectionProblem`
residuals/Jacobian into the generic LM driver, optionally with Huber robust
weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import OptimizationError
from ..geometry import PinholeCamera, Pose, se3_exp
from .levenberg_marquardt import LMConfig, LevenbergMarquardt, LMResult
from .reprojection import ReprojectionProblem, huber_weights


@dataclass
class PoseOptimizationResult:
    """Refined pose plus convergence diagnostics."""

    pose: Pose
    initial_rmse_px: float
    final_rmse_px: float
    iterations: int
    converged: bool
    cost_reduction: float


class PoseOptimizer:
    """Levenberg-Marquardt refinement of a camera pose.

    Parameters
    ----------
    camera:
        Pinhole intrinsics of the frame being optimised.
    max_iterations:
        LM iteration cap (the paper's host runs a fixed small number of
        iterations per frame; 15-30 is typical).
    robust_delta_px:
        Huber threshold in pixels, or ``None`` to use plain least squares.
    """

    def __init__(
        self,
        camera: PinholeCamera,
        max_iterations: int = 20,
        robust_delta_px: Optional[float] = 5.0,
    ) -> None:
        self.camera = camera
        self.max_iterations = max_iterations
        self.robust_delta_px = robust_delta_px

    def optimize(
        self,
        points_world: np.ndarray,
        observations: np.ndarray,
        initial_pose: Pose,
    ) -> PoseOptimizationResult:
        """Refine ``initial_pose`` against the given observations."""
        problem = ReprojectionProblem(self.camera, points_world, observations)
        if problem.num_observations < 3:
            raise OptimizationError("pose optimisation needs at least 3 observations")
        weights_fn = None
        if self.robust_delta_px is not None:
            delta = self.robust_delta_px
            weights_fn = lambda residual: huber_weights(residual, delta)  # noqa: E731

        def update(pose: Pose, increment: np.ndarray) -> Pose:
            return se3_exp(increment[:3], increment[3:]).compose(pose)

        optimizer = LevenbergMarquardt(
            residual_fn=problem.residuals,
            update_fn=update,
            parameter_dim=6,
            jacobian_fn=problem.jacobian,
            weights_fn=weights_fn,
            config=LMConfig(max_iterations=self.max_iterations),
        )
        initial_rmse = problem.rmse(initial_pose)
        result: LMResult[Pose] = optimizer.optimize(initial_pose)
        return PoseOptimizationResult(
            pose=result.parameters,
            initial_rmse_px=initial_rmse,
            final_rmse_px=problem.rmse(result.parameters),
            iterations=result.iterations,
            converged=result.converged,
            cost_reduction=result.cost_reduction,
        )
