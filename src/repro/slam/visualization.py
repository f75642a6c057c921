"""Text-based visualisation of trajectories and tracking results.

The paper's Figure 9 overlays estimated trajectories on the ground truth.
Without a plotting dependency, this module renders the same comparison as an
ASCII scatter plot (top-down x/z view by default) plus per-frame error bars,
which the examples and the Figure-9 benchmark print to the terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import DatasetError
from ..geometry import Pose
from .evaluation import camera_centers


@dataclass(frozen=True)
class PlotExtent:
    """Axis ranges of a 2-D plot."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    @property
    def x_span(self) -> float:
        return max(self.x_max - self.x_min, 1e-9)

    @property
    def y_span(self) -> float:
        return max(self.y_max - self.y_min, 1e-9)


def _extent(points: np.ndarray, margin: float = 0.05) -> PlotExtent:
    x_min, x_max = float(points[:, 0].min()), float(points[:, 0].max())
    y_min, y_max = float(points[:, 1].min()), float(points[:, 1].max())
    pad_x = margin * max(x_max - x_min, 1e-3)
    pad_y = margin * max(y_max - y_min, 1e-3)
    return PlotExtent(x_min - pad_x, x_max + pad_x, y_min - pad_y, y_max + pad_y)


def ascii_scatter(
    series: Sequence[Tuple[str, np.ndarray]],
    width: int = 60,
    height: int = 20,
    markers: str = "*o+x",
) -> str:
    """Render several 2-D point series on a shared character grid.

    ``series`` is a list of ``(label, points)`` pairs with ``points`` of shape
    ``(N, 2)``.  Later series overwrite earlier ones where they collide, which
    makes overlapping trajectories visible as mixed markers.
    """
    if not series:
        raise DatasetError("at least one series is required")
    if width < 10 or height < 5:
        raise DatasetError("plot must be at least 10x5 characters")
    stacked = np.vstack([points for _, points in series])
    if stacked.ndim != 2 or stacked.shape[1] != 2:
        raise DatasetError("series points must be (N, 2) arrays")
    extent = _extent(stacked)
    grid = [[" "] * width for _ in range(height)]
    for series_index, (_, points) in enumerate(series):
        marker = markers[series_index % len(markers)]
        cols = ((points[:, 0] - extent.x_min) / extent.x_span * (width - 1)).astype(int)
        rows = ((points[:, 1] - extent.y_min) / extent.y_span * (height - 1)).astype(int)
        for row, col in zip(rows, cols):
            grid[height - 1 - row][col] = marker
    lines = ["".join(row) for row in grid]
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {label}" for i, (label, _) in enumerate(series)
    )
    header = (
        f"x: [{extent.x_min:+.2f}, {extent.x_max:+.2f}] m   "
        f"y: [{extent.y_min:+.2f}, {extent.y_max:+.2f}] m"
    )
    return "\n".join([header, legend, "+" + "-" * width + "+"]
                     + ["|" + line + "|" for line in lines]
                     + ["+" + "-" * width + "+"])


def trajectory_top_view(
    estimated: Sequence[Pose],
    ground_truth: Sequence[Pose],
    width: int = 60,
    height: int = 20,
) -> str:
    """Top-down (x, z) overlay of an estimated trajectory on its ground truth.

    This is the ASCII analogue of Figure 9.
    """
    if len(estimated) != len(ground_truth):
        raise DatasetError("trajectories must have the same length")
    est = camera_centers(estimated)[:, [0, 2]]
    gt = camera_centers(ground_truth)[:, [0, 2]]
    return ascii_scatter(
        [("ground truth", gt), ("estimated", est)], width=width, height=height
    )


def error_bars(per_frame_errors: np.ndarray, width: int = 50) -> str:
    """Render per-frame trajectory errors as horizontal bars (one row per frame)."""
    errors = np.asarray(per_frame_errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise DatasetError("per_frame_errors must be a non-empty 1-D array")
    peak = max(float(errors.max()), 1e-9)
    lines = [f"per-frame ATE (max {peak * 100:.2f} cm)"]
    for index, error in enumerate(errors):
        bar = "#" * int(round(error / peak * width))
        lines.append(f"  {index:3d} |{bar:<{width}s}| {error * 100:6.2f} cm")
    return "\n".join(lines)


def matching_summary(num_features: int, num_matches: int, num_inliers: int) -> str:
    """One-line funnel summary: features -> matches -> RANSAC inliers."""
    if num_features <= 0:
        return "no features extracted"
    match_rate = 100.0 * num_matches / num_features
    inlier_rate = 100.0 * num_inliers / max(1, num_matches)
    return (
        f"{num_features} features -> {num_matches} matches ({match_rate:.0f}%) "
        f"-> {num_inliers} inliers ({inlier_rate:.0f}% of matches)"
    )
