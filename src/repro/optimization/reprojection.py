"""Reprojection error terms and robust weights.

The pose-optimisation objective of eSLAM is the sum of squared reprojection
errors E = sum_i || c_i - h(g_i, p) ||^2 over the matched map points g_i with
pixel observations c_i and camera pose p (equation (1)).  This module builds
the residual vector, the analytic Jacobian with respect to an SE(3) increment
and the Huber robust weights used to soften surviving mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError
from ..geometry import PinholeCamera, Pose


@dataclass(frozen=True)
class ReprojectionProblem:
    """Observations of known 3-D world points from a single camera pose.

    Attributes
    ----------
    camera:
        The pinhole intrinsics.
    points_world:
        ``(N, 3)`` world coordinates of the matched map points.
    observations:
        ``(N, 2)`` pixel coordinates of the matched features in the frame.
    """

    camera: PinholeCamera
    points_world: np.ndarray
    observations: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points_world, dtype=np.float64)
        pixels = np.asarray(self.observations, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise OptimizationError("points_world must be (N, 3)")
        if pixels.shape != (points.shape[0], 2):
            raise OptimizationError("observations must be (N, 2) matching points_world")
        if points.shape[0] == 0:
            raise OptimizationError("problem must contain at least one observation")
        object.__setattr__(self, "points_world", points)
        object.__setattr__(self, "observations", pixels)

    @property
    def num_observations(self) -> int:
        return int(self.points_world.shape[0])

    # -- residuals -----------------------------------------------------------
    def residuals(self, pose: Pose) -> np.ndarray:
        """Return the stacked ``2N`` residual vector ``projection - observation``."""
        points_cam = pose.transform(self.points_world)
        depths = np.maximum(points_cam[:, 2], 1e-9)
        u = self.camera.fx * points_cam[:, 0] / depths + self.camera.cx
        v = self.camera.fy * points_cam[:, 1] / depths + self.camera.cy
        residual = np.stack([u, v], axis=1) - self.observations
        return residual.reshape(-1)

    def rmse(self, pose: Pose) -> float:
        """Root-mean-square pixel error over all observations."""
        residual = self.residuals(pose).reshape(-1, 2)
        return float(np.sqrt((residual**2).sum(axis=1).mean()))

    # -- jacobian --------------------------------------------------------------
    def jacobian(self, pose: Pose) -> np.ndarray:
        """Analytic ``(2N, 6)`` Jacobian wrt a left-multiplied SE(3) increment.

        The increment ordering is ``(v, w)``: translational part first,
        matching :func:`repro.geometry.se3_exp`.
        """
        points_cam = pose.transform(self.points_world)
        x = points_cam[:, 0]
        y = points_cam[:, 1]
        z = np.maximum(points_cam[:, 2], 1e-9)
        inv_z = 1.0 / z
        inv_z2 = inv_z * inv_z
        fx, fy = self.camera.fx, self.camera.fy
        n = self.num_observations
        jac = np.zeros((2 * n, 6))
        jac[0::2, 0] = fx * inv_z
        jac[0::2, 2] = -fx * x * inv_z2
        jac[0::2, 3] = -fx * x * y * inv_z2
        jac[0::2, 4] = fx * (1.0 + x * x * inv_z2)
        jac[0::2, 5] = -fx * y * inv_z
        jac[1::2, 1] = fy * inv_z
        jac[1::2, 2] = -fy * y * inv_z2
        jac[1::2, 3] = -fy * (1.0 + y * y * inv_z2)
        jac[1::2, 4] = fy * x * y * inv_z2
        jac[1::2, 5] = fy * x * inv_z
        return jac


def huber_weights(residuals: np.ndarray, delta: float = 5.0) -> np.ndarray:
    """Per-residual Huber weights for iteratively-reweighted least squares.

    Residuals are interpreted pairwise (u, v) per observation; both components
    of one observation receive the same weight derived from the observation's
    Euclidean pixel error.
    """
    if delta <= 0:
        raise OptimizationError("Huber delta must be positive")
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size % 2 != 0:
        raise OptimizationError("residual vector length must be even (u, v pairs)")
    errors = np.linalg.norm(residuals.reshape(-1, 2), axis=1)
    weights = np.ones_like(errors)
    large = errors > delta
    weights[large] = delta / errors[large]
    return np.repeat(weights, 2)
