"""Perspective-n-Point pose estimation: the one pose solver.

Pose estimation in eSLAM applies the PnP method to matched (3-D map point,
2-D feature) pairs to estimate camera rotation and translation, with RANSAC
rejecting mismatches (Section 2.1); pose optimisation then minimises the
reprojection error of equation (1) with Levenberg-Marquardt.  Both stages do
one job, damped Gauss-Newton on SE(3) against pixel reprojection error, so
this module holds it once:

* :func:`estimate_pose_3d3d` -- a closed-form Horn/Kabsch alignment used to
  bootstrap from RGB-D correspondences where both sides have depth,
* :func:`reprojection_residuals`, :func:`reprojection_jacobian` and
  :func:`huber_weights` -- the one reprojection model,
* :func:`refine_pose` -- the one Levenberg-Marquardt loop over it.
  :class:`~repro.geometry.ransac.PnpRansac` calls it to fit samples without
  depth and to refine the best inlier set, and
  :class:`~repro.optimization.PoseOptimizer` calls it with Huber weights;
  each caller keeps its own iteration cap, tolerances and damping cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def reprojection_residuals(
    camera: PinholeCamera, pose: Pose, points_world: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Return the stacked ``2N`` residual vector ``projection - pixels``.

    Depths are clamped to 1e-9, so a point behind the camera contributes a
    large residual instead of failing the projection.
    """
    points_cam = pose.transform(points_world)
    depths = np.maximum(points_cam[:, 2], 1e-9)
    u = camera.fx * points_cam[:, 0] / depths + camera.cx
    v = camera.fy * points_cam[:, 1] / depths + camera.cy
    return (np.stack([u, v], axis=1) - pixels).reshape(-1)


def reprojection_jacobian(
    camera: PinholeCamera, pose: Pose, points_world: np.ndarray
) -> np.ndarray:
    """Analytic ``(2N, 6)`` Jacobian wrt a left-multiplied SE(3) increment.

    The increment ordering is ``(v, w)``: translational part first, matching
    :func:`repro.geometry.se3_exp`.
    """
    points_cam = pose.transform(points_world)
    x, y, z = points_cam[:, 0], points_cam[:, 1], np.maximum(points_cam[:, 2], 1e-9)
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    fx, fy = camera.fx, camera.fy
    jac = np.zeros((2 * points_cam.shape[0], 6))
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


def huber_weights(residuals: np.ndarray, delta: float) -> np.ndarray:
    """Per-residual Huber weights for iteratively-reweighted least squares.

    Residuals are interpreted pairwise (u, v) per observation; both components
    of one observation receive the same weight derived from the observation's
    Euclidean pixel error.
    """
    if delta <= 0:
        raise GeometryError("Huber delta must be positive")
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size % 2 != 0:
        raise GeometryError("residual vector length must be even (u, v pairs)")
    errors = np.linalg.norm(residuals.reshape(-1, 2), axis=1)
    weights = np.ones_like(errors)
    large = errors > delta
    weights[large] = delta / errors[large]
    return np.repeat(weights, 2)


@dataclass
class PoseRefinement:
    """A refined pose, its LM iteration count and its final RMS pixel error."""

    pose: Pose
    iterations: int
    final_rmse_px: float


def refine_pose(
    camera: PinholeCamera,
    points_world: np.ndarray,
    pixels: np.ndarray,
    initial_pose: Pose,
    *,
    max_iterations: int,
    cost_tolerance: float,
    max_lambda: float,
    step_tolerance: float = 0.0,
    huber_delta_px: Optional[float] = None,
) -> PoseRefinement:
    """Minimise the squared reprojection error over SE(3) by Levenberg-Marquardt.

    Each iteration solves the damped normal equations of the (Huber-weighted,
    when ``huber_delta_px`` is set) linearised residual and keeps the step
    only if it lowers the unweighted cost.  The loop stops after
    ``max_iterations``, when an accepted step improves the cost by less than
    ``cost_tolerance * (1 + cost)``, when a step is shorter than
    ``step_tolerance``, or when rejected steps raise the damping to
    ``max_lambda``.
    """
    world = np.asarray(points_world, dtype=np.float64)
    pix = np.asarray(pixels, dtype=np.float64)
    if world.ndim != 2 or world.shape[1] != 3:
        raise GeometryError("points_world must be (N, 3)")
    if pix.shape != (world.shape[0], 2):
        raise GeometryError("pixels must be (N, 2) matching points_world")
    if world.shape[0] < 3:
        raise GeometryError("a pose needs at least 3 correspondences")
    pose = initial_pose
    residual = reprojection_residuals(camera, pose, world, pix)
    cost = float(residual @ residual)
    lam = 1e-3
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = reprojection_jacobian(camera, pose, world)
        weighted = residual
        if huber_delta_px is not None:
            weights = np.sqrt(huber_weights(residual, huber_delta_px))
            weighted, jac = residual * weights, jac * weights[:, np.newaxis]
        hessian = jac.T @ jac
        gradient = jac.T @ weighted
        try:
            delta = np.linalg.solve(
                hessian + lam * np.diag(np.diag(hessian) + 1e-12), -gradient
            )
        except np.linalg.LinAlgError as exc:
            raise GeometryError("singular normal equations") from exc
        if float(np.linalg.norm(delta)) < step_tolerance:
            break
        candidate = se3_exp(delta[:3], delta[3:]).compose(pose)
        candidate_residual = reprojection_residuals(camera, candidate, world, pix)
        candidate_cost = float(candidate_residual @ candidate_residual)
        if candidate_cost < cost:
            improvement = cost - candidate_cost
            pose, residual, cost = candidate, candidate_residual, candidate_cost
            lam = max(lam * 0.5, 1e-9)
            if improvement < cost_tolerance * (1.0 + cost):
                break
        else:
            lam *= 4.0
            if lam >= max_lambda:
                break
    return PoseRefinement(
        pose=pose,
        iterations=iterations,
        final_rmse_px=float(np.sqrt(cost / world.shape[0])),
    )
