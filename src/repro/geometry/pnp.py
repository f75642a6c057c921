"""Perspective-n-Point pose estimation.

Pose estimation in eSLAM applies the PnP method to matched (3-D map point,
2-D feature) pairs to estimate camera rotation and translation, with RANSAC
rejecting mismatches (Section 2.1).  This module provides

* :func:`estimate_pose_3d3d` -- a closed-form Horn/Kabsch alignment used to
  bootstrap from RGB-D correspondences where both sides have depth,
* :class:`IterativePnpSolver` -- Gauss-Newton / Levenberg-Marquardt
  minimisation of reprojection error on SE(3), the "P" in PnP proper, which
  :class:`~repro.geometry.ransac.PnpRansac` uses to fit samples without
  depth and to refine the best inlier set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .camera import PinholeCamera
from .se3 import Pose, se3_exp


def estimate_pose_3d3d(points_world: np.ndarray, points_cam: np.ndarray) -> Pose:
    """Closed-form rigid alignment (Kabsch/Horn) from 3-D/3-D correspondences.

    Finds the pose ``T`` minimising ``sum || points_cam - T(points_world) ||^2``.
    Requires at least 3 non-collinear correspondences.
    """
    world = np.asarray(points_world, dtype=np.float64)
    cam = np.asarray(points_cam, dtype=np.float64)
    if world.shape != cam.shape or world.ndim != 2 or world.shape[1] != 3:
        raise GeometryError("point sets must both be (N, 3)")
    if world.shape[0] < 3:
        raise GeometryError("at least 3 correspondences are required")
    centroid_world = world.mean(axis=0)
    centroid_cam = cam.mean(axis=0)
    world_centered = world - centroid_world
    cam_centered = cam - centroid_cam
    covariance = cam_centered.T @ world_centered
    u, _, vt = np.linalg.svd(covariance)
    d = np.sign(np.linalg.det(u @ vt))
    correction = np.diag([1.0, 1.0, d])
    rotation = u @ correction @ vt
    translation = centroid_cam - rotation @ centroid_world
    return Pose(rotation, translation)


@dataclass
class PnpResult:
    """Result of an iterative PnP solve."""

    pose: Pose
    final_cost: float
    iterations: int
    converged: bool
    inlier_rmse_px: float


class IterativePnpSolver:
    """Levenberg-Marquardt PnP: minimise reprojection error over SE(3).

    The solver linearises the projection function around the current pose
    using the standard 2x6 Jacobian of a pinhole projection with respect to a
    left-multiplied SE(3) increment, and damps the normal equations with a
    LM lambda that adapts to the observed cost change.
    """

    def __init__(
        self,
        camera: PinholeCamera,
        max_iterations: int = 20,
        tolerance: float = 1e-8,
        initial_lambda: float = 1e-3,
    ) -> None:
        self.camera = camera
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.initial_lambda = initial_lambda

    # -- residuals / jacobians ------------------------------------------------
    def residuals(self, pose: Pose, points_world: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """Return the stacked 2N reprojection residual vector."""
        points_cam = pose.transform(points_world)
        depths = points_cam[:, 2]
        if np.any(depths <= 1e-9):
            # points behind the camera contribute a large constant penalty
            depths = np.where(depths <= 1e-9, 1e-9, depths)
            points_cam = points_cam.copy()
            points_cam[:, 2] = depths
        projected = self.camera.project(points_cam)
        return (projected - pixels).reshape(-1)

    def jacobian(self, pose: Pose, points_world: np.ndarray) -> np.ndarray:
        """Return the ``(2N, 6)`` Jacobian wrt a left SE(3) increment ``(v, w)``."""
        points_cam = pose.transform(points_world)
        x, y, z = points_cam[:, 0], points_cam[:, 1], np.maximum(points_cam[:, 2], 1e-9)
        inv_z = 1.0 / z
        inv_z2 = inv_z * inv_z
        fx, fy = self.camera.fx, self.camera.fy
        n = points_cam.shape[0]
        jac = np.zeros((2 * n, 6))
        # d(u)/d(translation), d(u)/d(rotation)
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

    # -- solve -----------------------------------------------------------------
    def solve(
        self,
        points_world: np.ndarray,
        pixels: np.ndarray,
        initial_pose: Pose | None = None,
    ) -> PnpResult:
        """Estimate the camera pose from 3-D world points and 2-D observations."""
        world = np.asarray(points_world, dtype=np.float64)
        pix = np.asarray(pixels, dtype=np.float64)
        if world.ndim != 2 or world.shape[1] != 3:
            raise GeometryError("points_world must be (N, 3)")
        if pix.shape != (world.shape[0], 2):
            raise GeometryError("pixels must be (N, 2) matching points_world")
        if world.shape[0] < 4:
            raise GeometryError("iterative PnP needs at least 4 correspondences")
        pose = initial_pose or Pose.identity()
        lam = self.initial_lambda
        residual = self.residuals(pose, world, pix)
        cost = float(residual @ residual)
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            jac = self.jacobian(pose, world)
            hessian = jac.T @ jac
            gradient = jac.T @ residual
            try:
                delta = np.linalg.solve(
                    hessian + lam * np.diag(np.diag(hessian) + 1e-12), -gradient
                )
            except np.linalg.LinAlgError as exc:
                raise GeometryError("singular normal equations in PnP") from exc
            candidate = se3_exp(delta[:3], delta[3:]).compose(pose)
            candidate_residual = self.residuals(candidate, world, pix)
            candidate_cost = float(candidate_residual @ candidate_residual)
            if candidate_cost < cost:
                pose = candidate
                improvement = cost - candidate_cost
                residual = candidate_residual
                cost = candidate_cost
                lam = max(lam * 0.5, 1e-9)
                if improvement < self.tolerance * (1.0 + cost):
                    converged = True
                    break
            else:
                lam = min(lam * 4.0, 1e6)
                if lam >= 1e6:
                    break
        rmse = float(np.sqrt(cost / max(1, world.shape[0])))
        return PnpResult(
            pose=pose,
            final_cost=cost,
            iterations=iterations,
            converged=converged,
            inlier_rmse_px=rmse,
        )
