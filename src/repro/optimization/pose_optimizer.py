"""Pose-only bundle adjustment (the Pose Optimization stage).

Given the pose produced by PnP + RANSAC, eSLAM refines it by minimising the
reprojection error of all inlier map-point observations with
Levenberg-Marquardt (equation (1) and reference [7]).  This module runs the
one pose solver, :func:`repro.geometry.pnp.refine_pose`, with the stage's own
constants and Huber weights that soften surviving mismatches.
"""

from __future__ import annotations

import numpy as np

from ..geometry import PinholeCamera, Pose, PoseRefinement, refine_pose

#: Huber threshold on an observation's pixel error.
HUBER_DELTA_PX = 5.0
#: Relative cost tolerance, damping cap and step tolerance of the LM loop.
COST_TOLERANCE = 1e-10
MAX_LAMBDA = 1e7
STEP_TOLERANCE = 1e-12


class PoseOptimizer:
    """Levenberg-Marquardt refinement of a camera pose.

    Parameters
    ----------
    camera:
        Pinhole intrinsics of the frame being optimised.
    max_iterations:
        LM iteration cap (the paper's host runs a fixed small number of
        iterations per frame; 15-30 is typical).
    """

    def __init__(self, camera: PinholeCamera, max_iterations: int = 20) -> None:
        self.camera = camera
        self.max_iterations = max_iterations

    def optimize(
        self,
        points_world: np.ndarray,
        observations: np.ndarray,
        initial_pose: Pose,
    ) -> PoseRefinement:
        """Refine ``initial_pose`` against the given observations."""
        return refine_pose(
            self.camera,
            points_world,
            observations,
            initial_pose,
            max_iterations=self.max_iterations,
            cost_tolerance=COST_TOLERANCE,
            max_lambda=MAX_LAMBDA,
            step_tolerance=STEP_TOLERANCE,
            huber_delta_px=HUBER_DELTA_PX,
        )
