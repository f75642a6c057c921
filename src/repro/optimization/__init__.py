"""Optimisation substrate: Levenberg-Marquardt and pose-only bundle adjustment."""

from .levenberg_marquardt import (
    LMConfig,
    LMHistoryEntry,
    LMResult,
    LevenbergMarquardt,
    numerical_jacobian,
)
from .reprojection import ReprojectionProblem, huber_weights
from .pose_optimizer import PoseOptimizationResult, PoseOptimizer

__all__ = [
    "LMConfig",
    "LMHistoryEntry",
    "LMResult",
    "LevenbergMarquardt",
    "numerical_jacobian",
    "ReprojectionProblem",
    "huber_weights",
    "PoseOptimizationResult",
    "PoseOptimizer",
]
