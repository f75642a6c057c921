"""Geometry substrate: SE(3), camera models, the one pose solver and RANSAC."""

from .se3 import (
    Pose,
    hat,
    quaternion_from_rotation,
    rotation_from_euler,
    rotation_from_quaternion,
    se3_exp,
    se3_log,
    so3_exp,
    so3_log,
    vee,
)
from .camera import PinholeCamera
from .pnp import PoseRefinement, estimate_pose_3d3d, refine_pose
from .ransac import PnpRansac, RansacConfig, RansacResult, adaptive_iterations

__all__ = [
    "Pose",
    "hat",
    "vee",
    "so3_exp",
    "so3_log",
    "se3_exp",
    "se3_log",
    "rotation_from_euler",
    "quaternion_from_rotation",
    "rotation_from_quaternion",
    "PinholeCamera",
    "PoseRefinement",
    "estimate_pose_3d3d",
    "refine_pose",
    "PnpRansac",
    "RansacConfig",
    "RansacResult",
    "adaptive_iterations",
]
