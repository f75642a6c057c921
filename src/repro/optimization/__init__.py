"""Pose optimisation: the Levenberg-Marquardt refinement of a tracked pose.

The loop and the reprojection model it minimises live in
:mod:`repro.geometry.pnp`, shared with PnP + RANSAC; this package holds only
the pose-optimisation stage's own constants, its Huber threshold among them.
"""

from .pose_optimizer import PoseOptimizer

__all__ = ["PoseOptimizer"]
