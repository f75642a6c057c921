"""Pinhole camera model with depth-based back-projection.

The TUM RGB-D sequences are captured with a Kinect-style sensor; the default
intrinsics here are the standard TUM ``freiburg1`` calibration.  The camera
model provides projection (used by reprojection-error optimisation and by the
synthetic renderer) and back-projection of pixels with depth (used to create
map points from RGB-D frames).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError


@dataclass(frozen=True)
class PinholeCamera:
    """A pinhole camera with focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise GeometryError("image dimensions must be positive")

    # -- constructors -----------------------------------------------------
    @classmethod
    def tum_freiburg1(cls) -> "PinholeCamera":
        """TUM RGB-D freiburg1 default calibration (fr1 sequences)."""
        return cls(fx=517.3, fy=516.5, cx=318.6, cy=255.3, width=640, height=480)

    @classmethod
    def tum_freiburg2(cls) -> "PinholeCamera":
        """TUM RGB-D freiburg2 default calibration (fr2 sequences)."""
        return cls(fx=520.9, fy=521.0, cx=325.1, cy=249.7, width=640, height=480)

    def scaled(self, factor: float) -> "PinholeCamera":
        """Return a camera with intrinsics scaled for a resized image."""
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        return PinholeCamera(
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
        )

    # -- projection -----------------------------------------------------------
    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Project camera-frame 3-D points to pixel coordinates.

        ``points_cam`` is ``(3,)`` or ``(N, 3)``; points must have positive
        depth.  Returns ``(2,)`` or ``(N, 2)`` pixel coordinates, not
        clipped to the image bounds.
        """
        points = np.asarray(points_cam, dtype=np.float64)
        single = points.ndim == 1
        points = np.atleast_2d(points)
        z = points[:, 2]
        if np.any(z <= 0):
            raise GeometryError("cannot project points with non-positive depth")
        u = self.fx * points[:, 0] / z + self.cx
        v = self.fy * points[:, 1] / z + self.cy
        pixels = np.stack([u, v], axis=1)
        return pixels[0] if single else pixels

    def back_project(self, u: float, v: float, depth: float) -> np.ndarray:
        """Back-project a pixel with known depth to a camera-frame 3-D point."""
        if depth <= 0:
            raise GeometryError("depth must be positive")
        x = (u - self.cx) * depth / self.fx
        y = (v - self.cy) * depth / self.fy
        return np.array([x, y, depth])

    def back_project_many(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`back_project` for ``(N, 2)`` pixels and ``(N,)`` depths."""
        pixels = np.asarray(pixels, dtype=np.float64)
        depths = np.asarray(depths, dtype=np.float64)
        if pixels.ndim != 2 or pixels.shape[1] != 2 or depths.shape != (pixels.shape[0],):
            raise GeometryError("pixels must be (N, 2) and depths (N,)")
        if np.any(depths <= 0):
            raise GeometryError("all depths must be positive")
        x = (pixels[:, 0] - self.cx) * depths / self.fx
        y = (pixels[:, 1] - self.cy) * depths / self.fy
        return np.stack([x, y, depths], axis=1)

    def pixel_rays(self, pixels: np.ndarray) -> np.ndarray:
        """Return unit-depth camera-frame ray directions for ``(N, 2)`` pixels."""
        pixels = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        x = (pixels[:, 0] - self.cx) / self.fx
        y = (pixels[:, 1] - self.cy) / self.fy
        return np.stack([x, y, np.ones_like(x)], axis=1)
