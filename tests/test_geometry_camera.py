"""Tests for the pinhole camera model."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import PinholeCamera


class TestIntrinsics:
    def test_tum_calibrations(self):
        fr1 = PinholeCamera.tum_freiburg1()
        fr2 = PinholeCamera.tum_freiburg2()
        assert fr1.width == 640 and fr1.height == 480
        assert fr1.fx != fr2.fx

    def test_scaled_camera(self):
        camera = PinholeCamera.tum_freiburg1().scaled(0.5)
        assert camera.width == 320
        assert camera.fx == pytest.approx(517.3 * 0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GeometryError):
            PinholeCamera(fx=-1, fy=1, cx=0, cy=0)
        with pytest.raises(GeometryError):
            PinholeCamera.tum_freiburg1().scaled(0.0)


class TestProjection:
    def test_principal_point(self, camera):
        pixel = camera.project(np.array([0.0, 0.0, 2.0]))
        assert pixel == pytest.approx([camera.cx, camera.cy])

    def test_projection_scale_invariance(self, camera):
        point = np.array([0.3, -0.2, 2.0])
        assert np.allclose(camera.project(point), camera.project(point * 3.0))

    def test_rejects_nonpositive_depth(self, camera):
        with pytest.raises(GeometryError):
            camera.project(np.array([0.0, 0.0, -1.0]))

    def test_project_backproject_roundtrip(self, camera):
        point = np.array([0.4, -0.3, 2.5])
        pixel = camera.project(point)
        recovered = camera.back_project(pixel[0], pixel[1], 2.5)
        assert np.allclose(recovered, point, atol=1e-9)

    def test_back_project_many(self, camera):
        rng = np.random.default_rng(0)
        points = rng.uniform([-1, -1, 1], [1, 1, 4], size=(20, 3))
        pixels = camera.project(points)
        recovered = camera.back_project_many(pixels, points[:, 2])
        assert np.allclose(recovered, points, atol=1e-9)

    def test_back_project_rejects_bad_depth(self, camera):
        with pytest.raises(GeometryError):
            camera.back_project(320, 240, 0.0)

    def test_pixel_rays_unit_depth(self, camera):
        rays = camera.pixel_rays(np.array([[camera.cx, camera.cy]]))
        assert np.allclose(rays[0], [0.0, 0.0, 1.0])

