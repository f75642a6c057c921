"""Tests for SO(3)/SE(3) operations and the Pose type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
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

_small_floats = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


class TestSo3:
    def test_exp_of_zero_is_identity(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_exp_is_rotation_matrix(self):
        rotation = so3_exp(np.array([0.3, -0.2, 0.5]))
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rotation) == pytest.approx(1.0)

    def test_exp_log_roundtrip(self):
        omega = np.array([0.4, -0.1, 0.7])
        assert np.allclose(so3_log(so3_exp(omega)), omega, atol=1e-9)

    def test_log_of_identity_is_zero(self):
        assert np.allclose(so3_log(np.eye(3)), np.zeros(3))

    def test_rotation_angle_magnitude(self):
        omega = np.array([0.0, 0.0, 0.25])
        rotation = so3_exp(omega)
        assert np.linalg.norm(so3_log(rotation)) == pytest.approx(0.25)

    def test_near_pi_rotation_recovered(self):
        omega = np.array([0.0, 3.14, 0.0])
        recovered = so3_log(so3_exp(omega))
        assert np.linalg.norm(recovered) == pytest.approx(3.14, abs=1e-6)

    def test_hat_vee_roundtrip(self):
        omega = np.array([1.0, -2.0, 3.0])
        assert np.allclose(vee(hat(omega)), omega)
        assert np.allclose(hat(omega), -hat(omega).T)

    @settings(max_examples=40, deadline=None)
    @given(_small_floats, _small_floats, _small_floats)
    def test_exp_log_roundtrip_property(self, x, y, z):
        omega = np.array([x, y, z])
        assert np.allclose(so3_log(so3_exp(omega)), omega, atol=1e-7)


class TestQuaternions:
    def test_identity_quaternion(self):
        quat = quaternion_from_rotation(np.eye(3))
        assert np.allclose(np.abs(quat), [0, 0, 0, 1])

    def test_quaternion_rotation_roundtrip(self):
        rotation = so3_exp(np.array([0.2, 0.5, -0.3]))
        recovered = rotation_from_quaternion(quaternion_from_rotation(rotation))
        assert np.allclose(recovered, rotation, atol=1e-9)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(GeometryError):
            rotation_from_quaternion(np.zeros(4))

    @settings(max_examples=40, deadline=None)
    @given(_small_floats, _small_floats, _small_floats)
    def test_roundtrip_property(self, x, y, z):
        rotation = so3_exp(np.array([x, y, z]))
        recovered = rotation_from_quaternion(quaternion_from_rotation(rotation))
        assert np.allclose(recovered, rotation, atol=1e-8)


class TestEuler:
    def test_yaw_only(self):
        rotation = rotation_from_euler(0.0, 0.0, np.pi / 2)
        assert np.allclose(rotation @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_roll_only(self):
        rotation = rotation_from_euler(np.pi / 2, 0.0, 0.0)
        assert np.allclose(rotation @ np.array([0, 1, 0]), [0, 0, 1], atol=1e-12)


class TestPose:
    def test_identity(self):
        pose = Pose.identity()
        point = np.array([1.0, 2.0, 3.0])
        assert np.allclose(pose.transform(point), point)

    def test_rejects_non_rotation(self):
        with pytest.raises(GeometryError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_compose_and_inverse(self, example_pose):
        composed = example_pose.compose(example_pose.inverse())
        assert composed.is_close(Pose.identity(), atol=1e-10)

    def test_matmul_operator(self, example_pose):
        assert (example_pose @ Pose.identity()).is_close(example_pose)

    def test_transform_single_and_batch_agree(self, example_pose):
        points = np.random.default_rng(0).normal(size=(5, 3))
        batch = example_pose.transform(points)
        for i in range(5):
            assert np.allclose(batch[i], example_pose.transform(points[i]))

    def test_matrix_roundtrip(self, example_pose):
        assert Pose.from_matrix(example_pose.matrix()).is_close(example_pose)

    def test_camera_center(self, example_pose):
        center = example_pose.camera_center()
        assert np.allclose(example_pose.transform(center), np.zeros(3), atol=1e-12)

    def test_translation_distance(self):
        a = Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
        b = Pose(np.eye(3), np.array([3.0, 4.0, 0.0]))
        assert a.translation_distance(b) == pytest.approx(5.0)

    def test_rotation_angle(self):
        a = Pose.identity()
        b = Pose(so3_exp(np.array([0.0, 0.3, 0.0])), np.zeros(3))
        assert a.rotation_angle(b) == pytest.approx(0.3)

    def test_relative_to(self, example_pose):
        relative = example_pose.relative_to(example_pose)
        assert relative.is_close(Pose.identity(), atol=1e-12)

    def test_quaternion_translation_constructor(self, example_pose):
        rebuilt = Pose.from_quaternion_translation(
            quaternion_from_rotation(example_pose.rotation), example_pose.translation
        )
        assert rebuilt.is_close(example_pose, atol=1e-9)


class TestSe3:
    def test_exp_of_zero(self):
        pose = se3_exp(np.zeros(3), np.zeros(3))
        assert pose.is_close(Pose.identity())

    def test_pure_translation(self):
        pose = se3_exp(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert np.allclose(pose.translation, [1.0, 2.0, 3.0])
        assert np.allclose(pose.rotation, np.eye(3))

    def test_exp_log_roundtrip(self):
        upsilon = np.array([0.1, -0.2, 0.3])
        omega = np.array([0.2, 0.1, -0.4])
        pose = se3_exp(upsilon, omega)
        upsilon_back, omega_back = se3_log(pose)
        assert np.allclose(upsilon_back, upsilon, atol=1e-9)
        assert np.allclose(omega_back, omega, atol=1e-9)

    def test_exp_log_roundtrip_at_tiny_rotation(self):
        # |omega| just above the small-angle branch, where tan(|omega|/2)
        # falls below its epsilon
        pose = se3_exp(np.array([0.0, 0.0, 1.0]), np.array([1e-12, 0.0, 0.0]))
        upsilon, omega = se3_log(pose)
        assert se3_exp(upsilon, omega).is_close(pose, atol=1e-7)
        assert np.allclose(upsilon, [0.0, 0.0, 1.0], atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(_small_floats, _small_floats, _small_floats, _small_floats, _small_floats, _small_floats)
    def test_exp_log_property(self, a, b, c, d, e, f):
        pose = se3_exp(np.array([a, b, c]), np.array([d, e, f]))
        upsilon, omega = se3_log(pose)
        rebuilt = se3_exp(upsilon, omega)
        assert rebuilt.is_close(pose, atol=1e-7)
