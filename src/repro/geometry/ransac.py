"""RANSAC outlier rejection for pose estimation.

RANSAC (Random Sample Consensus) is used by eSLAM's pose-estimation stage to
eliminate feature mismatches before the pose is refined.  The driver here
repeatedly fits a pose to a minimal random sample, scores it by the number of
inliers under a pixel-error threshold, and finally refines the pose on the
best inlier set with :func:`~repro.geometry.pnp.refine_pose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import GeometryError
from .camera import PinholeCamera
from .pnp import estimate_pose_3d3d, refine_pose
from .se3 import Pose

#: Correspondences per minimal sample.
SAMPLE_SIZE = 4
#: Probability that the adaptive bound draws at least one all-inlier sample.
CONFIDENCE = 0.99
#: PnP refinement: LM iteration cap, relative cost tolerance, damping cap.
PNP_MAX_ITERATIONS = 20
PNP_COST_TOLERANCE = 1e-8
PNP_MAX_LAMBDA = 1e6


@dataclass
class RansacResult:
    """Outcome of a RANSAC run."""

    model: Pose
    inlier_mask: np.ndarray
    num_iterations: int
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
    inlier_threshold_px: float = 3.0
    min_inliers: int = 8
    seed: int = 7


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
    consensus set.  The final pose is refined on all inliers with
    :func:`~repro.geometry.pnp.refine_pose`.
    """

    def __init__(self, camera: PinholeCamera, config: RansacConfig | None = None) -> None:
        self.camera = camera
        self.config = config or RansacConfig()

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
        if n < SAMPLE_SIZE:
            raise GeometryError(f"need at least {SAMPLE_SIZE} correspondences, got {n}")
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
            sample = rng.choice(n, size=SAMPLE_SIZE, replace=False)
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
                    score / n, SAMPLE_SIZE, CONFIDENCE, self.config.num_iterations
                )
        success = best_score >= self.config.min_inliers
        if success and best_mask.sum() >= SAMPLE_SIZE:
            best_pose = self._refine(world[best_mask], pix[best_mask], best_pose)
            refined_mask = self._reprojection_errors(best_pose, world, pix) < threshold
            if refined_mask.sum() >= best_mask.sum():
                best_mask = refined_mask
        return RansacResult(
            model=best_pose,
            inlier_mask=best_mask,
            num_iterations=iterations_run,
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
            return self._refine(world_sample, pixel_sample, initial_pose or Pose.identity())
        except (GeometryError, np.linalg.LinAlgError):
            return None

    def _refine(self, points_world: np.ndarray, pixels: np.ndarray, pose: Pose) -> Pose:
        """Levenberg-Marquardt PnP from ``pose`` with the PnP constants."""
        return refine_pose(
            self.camera,
            points_world,
            pixels,
            pose,
            max_iterations=PNP_MAX_ITERATIONS,
            cost_tolerance=PNP_COST_TOLERANCE,
            max_lambda=PNP_MAX_LAMBDA,
        ).pose

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
