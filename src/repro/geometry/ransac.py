"""RANSAC outlier rejection for pose estimation.

RANSAC (Random Sample Consensus) is used by eSLAM's pose-estimation stage to
eliminate feature mismatches before the pose is refined.  The generic driver
here repeatedly fits a model to a minimal random sample, scores it by the
number of inliers under a pixel-error threshold, and finally refits the model
to the best inlier set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import GeometryError
from .camera import PinholeCamera
from .pnp import IterativePnpSolver, estimate_pose_3d3d
from .se3 import Pose


@dataclass
class RansacResult:
    """Outcome of a RANSAC run."""

    model: Pose
    inlier_mask: np.ndarray
    num_iterations: int
    best_score: int
    success: bool

    @property
    def num_inliers(self) -> int:
        return int(self.inlier_mask.sum())

    def inlier_indices(self) -> np.ndarray:
        return np.nonzero(self.inlier_mask)[0]


@dataclass
class RansacConfig:
    """Parameters of the RANSAC loop."""

    num_iterations: int = 128
    sample_size: int = 4
    inlier_threshold_px: float = 3.0
    min_inliers: int = 8
    confidence: float = 0.99
    seed: int = 7
    refine_with_inliers: bool = True
    extra: dict = field(default_factory=dict)


def adaptive_iterations(
    inlier_ratio: float, sample_size: int, confidence: float, max_iterations: int
) -> int:
    """Standard adaptive RANSAC termination bound.

    Returns the number of iterations needed to pick at least one all-inlier
    sample with probability ``confidence`` given the current inlier ratio,
    clamped to ``max_iterations``.
    """
    if inlier_ratio <= 0.0:
        return max_iterations
    if inlier_ratio >= 1.0:
        return 1
    denom = np.log(1.0 - inlier_ratio**sample_size)
    if denom >= 0.0:
        return max_iterations
    needed = int(np.ceil(np.log(1.0 - confidence) / denom))
    return int(np.clip(needed, 1, max_iterations))


class PnpRansac:
    """RANSAC wrapper around PnP pose estimation.

    Each iteration draws a minimal sample of 3-D/2-D correspondences,
    bootstraps a pose with the 3-D/3-D Kabsch alignment (using depth of the
    observed features, the information an RGB-D frame provides), evaluates
    reprojection error over all correspondences and keeps the largest
    consensus set.  The final pose is refined on all inliers with the
    iterative PnP solver.
    """

    def __init__(self, camera: PinholeCamera, config: RansacConfig | None = None) -> None:
        self.camera = camera
        self.config = config or RansacConfig()
        self._solver = IterativePnpSolver(camera)

    def estimate(
        self,
        points_world: np.ndarray,
        pixels: np.ndarray,
        observed_depths: Optional[np.ndarray] = None,
        initial_pose: Pose | None = None,
    ) -> RansacResult:
        """Run RANSAC + PnP on the given correspondences."""
        world = np.asarray(points_world, dtype=np.float64)
        pix = np.asarray(pixels, dtype=np.float64)
        n = world.shape[0]
        if n < self.config.sample_size:
            raise GeometryError(
                f"need at least {self.config.sample_size} correspondences, got {n}"
            )
        rng = np.random.default_rng(self.config.seed)
        best_mask = np.zeros(n, dtype=bool)
        best_pose = initial_pose or Pose.identity()
        best_score = -1
        iterations_run = 0
        max_iterations = self.config.num_iterations
        threshold = self.config.inlier_threshold_px
        for iteration in range(self.config.num_iterations):
            if iteration >= max_iterations:
                break
            iterations_run = iteration + 1
            sample = rng.choice(n, size=self.config.sample_size, replace=False)
            pose = self._fit_sample(world[sample], pix[sample], observed_depths, sample, initial_pose)
            if pose is None:
                continue
            errors = self._reprojection_errors(pose, world, pix)
            mask = errors < threshold
            score = int(mask.sum())
            if score > best_score:
                best_score = score
                best_mask = mask
                best_pose = pose
                max_iterations = adaptive_iterations(
                    score / n,
                    self.config.sample_size,
                    self.config.confidence,
                    self.config.num_iterations,
                )
        success = best_score >= self.config.min_inliers
        if success and self.config.refine_with_inliers and best_mask.sum() >= 4:
            refined = self._solver.solve(
                world[best_mask], pix[best_mask], initial_pose=best_pose
            )
            errors = self._reprojection_errors(refined.pose, world, pix)
            refined_mask = errors < threshold
            if refined_mask.sum() >= best_mask.sum():
                best_pose, best_mask = refined.pose, refined_mask
            else:
                best_pose = refined.pose
        return RansacResult(
            model=best_pose,
            inlier_mask=best_mask,
            num_iterations=iterations_run,
            best_score=max(best_score, 0),
            success=success,
        )

    # -- helpers -------------------------------------------------------------
    def _fit_sample(
        self,
        world_sample: np.ndarray,
        pixel_sample: np.ndarray,
        observed_depths: Optional[np.ndarray],
        sample_indices: np.ndarray,
        initial_pose: Pose | None,
    ) -> Optional[Pose]:
        """Fit a candidate pose to a minimal sample."""
        try:
            if observed_depths is not None:
                depths = np.asarray(observed_depths, dtype=np.float64)[sample_indices]
                if np.all(depths > 0):
                    cam_points = self.camera.back_project_many(pixel_sample, depths)
                    return estimate_pose_3d3d(world_sample, cam_points)
            result = self._solver.solve(
                world_sample, pixel_sample, initial_pose=initial_pose
            )
            return result.pose
        except (GeometryError, np.linalg.LinAlgError):
            return None

    def _reprojection_errors(
        self, pose: Pose, points_world: np.ndarray, pixels: np.ndarray
    ) -> np.ndarray:
        """Per-correspondence reprojection error in pixels (inf if behind camera)."""
        points_cam = pose.transform(points_world)
        depths = points_cam[:, 2]
        errors = np.full(points_world.shape[0], np.inf)
        valid = depths > 1e-6
        if valid.any():
            projected = self.camera.project(points_cam[valid])
            errors[valid] = np.linalg.norm(projected - pixels[valid], axis=1)
        return errors
