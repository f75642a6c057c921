"""Rigid-body transformations: SO(3) and SE(3).

The pose-estimation and pose-optimisation stages (run on the ARM host in the
paper) operate on camera poses in SE(3).  This module provides the small
Lie-group toolbox they need: rotation exponential/logarithm, quaternion
conversions, pose composition/inversion and point transformation, all backed
by numpy.

Conventions
-----------
* A pose ``T = (R, t)`` maps points from the *world* frame to the *camera*
  frame: ``p_cam = R @ p_world + t``.
* :func:`se3_exp` and :func:`se3_log` use the ``(upsilon, omega)`` ordering
  with the translational part first, passed as two explicit 3-vectors so the
  ordering can never be confused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GeometryError

_EPS = 1e-12


def hat(omega: np.ndarray) -> np.ndarray:
    """Return the 3x3 skew-symmetric matrix of a 3-vector."""
    omega = np.asarray(omega, dtype=np.float64).reshape(3)
    return np.array(
        [
            [0.0, -omega[2], omega[1]],
            [omega[2], 0.0, -omega[0]],
            [-omega[1], omega[0], 0.0],
        ]
    )


def vee(matrix: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat` (extract the 3-vector of a skew matrix)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.array([matrix[2, 1], matrix[0, 2], matrix[1, 0]])


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: map an axis-angle 3-vector to a rotation matrix."""
    omega = np.asarray(omega, dtype=np.float64).reshape(3)
    theta = float(np.linalg.norm(omega))
    skew = hat(omega)
    if theta < _EPS:
        return np.eye(3) + skew + 0.5 * skew @ skew
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * skew
        + ((1.0 - np.cos(theta)) / (theta * theta)) * skew @ skew
    )


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation matrix to axis-angle vector."""
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise GeometryError("rotation must be a 3x3 matrix")
    cos_theta = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _EPS:
        return vee(rotation - rotation.T) / 2.0
    if abs(np.pi - theta) < 1e-6:
        # near pi: extract axis from the symmetric part
        symmetric = (rotation + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(symmetric), 0.0, None))
        # resolve signs using the off-diagonal terms
        if axis[0] > _EPS:
            axis[1] = np.sign(symmetric[0, 1]) * abs(axis[1])
            axis[2] = np.sign(symmetric[0, 2]) * abs(axis[2])
        elif axis[1] > _EPS:
            axis[2] = np.sign(symmetric[1, 2]) * abs(axis[2])
        norm = np.linalg.norm(axis)
        if norm < _EPS:
            raise GeometryError("degenerate rotation near pi")
        return theta * axis / norm
    return theta / (2.0 * np.sin(theta)) * vee(rotation - rotation.T)


def rotation_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Build a rotation matrix from XYZ (roll-pitch-yaw) Euler angles."""
    rx = so3_exp(np.array([roll, 0.0, 0.0]))
    ry = so3_exp(np.array([0.0, pitch, 0.0]))
    rz = so3_exp(np.array([0.0, 0.0, yaw]))
    return rz @ ry @ rx


def quaternion_from_rotation(rotation: np.ndarray) -> np.ndarray:
    """Return the unit quaternion ``(qx, qy, qz, qw)`` of a rotation matrix.

    The ``(x, y, z, w)`` ordering matches the TUM trajectory file format.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    trace = np.trace(rotation)
    if trace > 0:
        s = 2.0 * np.sqrt(trace + 1.0)
        qw = 0.25 * s
        qx = (rotation[2, 1] - rotation[1, 2]) / s
        qy = (rotation[0, 2] - rotation[2, 0]) / s
        qz = (rotation[1, 0] - rotation[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(rotation)))
        if i == 0:
            s = 2.0 * np.sqrt(1.0 + rotation[0, 0] - rotation[1, 1] - rotation[2, 2])
            qx = 0.25 * s
            qy = (rotation[0, 1] + rotation[1, 0]) / s
            qz = (rotation[0, 2] + rotation[2, 0]) / s
            qw = (rotation[2, 1] - rotation[1, 2]) / s
        elif i == 1:
            s = 2.0 * np.sqrt(1.0 + rotation[1, 1] - rotation[0, 0] - rotation[2, 2])
            qx = (rotation[0, 1] + rotation[1, 0]) / s
            qy = 0.25 * s
            qz = (rotation[1, 2] + rotation[2, 1]) / s
            qw = (rotation[0, 2] - rotation[2, 0]) / s
        else:
            s = 2.0 * np.sqrt(1.0 + rotation[2, 2] - rotation[0, 0] - rotation[1, 1])
            qx = (rotation[0, 2] + rotation[2, 0]) / s
            qy = (rotation[1, 2] + rotation[2, 1]) / s
            qz = 0.25 * s
            qw = (rotation[1, 0] - rotation[0, 1]) / s
    quat = np.array([qx, qy, qz, qw])
    return quat / np.linalg.norm(quat)


def rotation_from_quaternion(quaternion: np.ndarray) -> np.ndarray:
    """Return the rotation matrix of a unit quaternion ``(qx, qy, qz, qw)``."""
    q = np.asarray(quaternion, dtype=np.float64).reshape(4)
    norm = np.linalg.norm(q)
    if norm < _EPS:
        raise GeometryError("quaternion must be non-zero")
    qx, qy, qz, qw = q / norm
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )


@dataclass(frozen=True)
class Pose:
    """A rigid transform ``p_cam = R @ p_world + t`` (world-to-camera)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=np.float64)
        translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rotation.shape != (3, 3):
            raise GeometryError("rotation must be a 3x3 matrix")
        if abs(np.linalg.det(rotation) - 1.0) > 1e-6:
            raise GeometryError("rotation matrix determinant must be 1")
        if np.abs(rotation @ rotation.T - np.eye(3)).max() > 1e-6:
            raise GeometryError("rotation matrix must be orthonormal")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Pose":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (4, 4):
            raise GeometryError("homogeneous pose matrix must be 4x4")
        return cls(matrix[:3, :3], matrix[:3, 3])

    @classmethod
    def from_rt(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        return cls(rotation, translation)

    @classmethod
    def from_quaternion_translation(
        cls, quaternion: np.ndarray, translation: np.ndarray
    ) -> "Pose":
        return cls(rotation_from_quaternion(quaternion), translation)

    # -- algebra ----------------------------------------------------------
    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def inverse(self) -> "Pose":
        rotation_t = self.rotation.T
        return Pose(rotation_t, -rotation_t @ self.translation)

    def compose(self, other: "Pose") -> "Pose":
        """Return ``self * other`` (apply ``other`` first, then ``self``)."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the pose to one point (3,) or a point set (N, 3)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation

    def relative_to(self, other: "Pose") -> "Pose":
        """Return the transform taking ``other``'s camera frame to ``self``'s."""
        return self.compose(other.inverse())

    # -- metrics ----------------------------------------------------------
    def translation_distance(self, other: "Pose") -> float:
        """Euclidean distance between the camera centres of two poses."""
        return float(np.linalg.norm(self.camera_center() - other.camera_center()))

    def rotation_angle(self, other: "Pose") -> float:
        """Geodesic rotation angle (radians) between two poses."""
        relative = self.rotation @ other.rotation.T
        return float(np.linalg.norm(so3_log(relative)))

    def camera_center(self) -> np.ndarray:
        """Return the camera centre in world coordinates."""
        return -self.rotation.T @ self.translation

    def quaternion(self) -> np.ndarray:
        return quaternion_from_rotation(self.rotation)

    def is_close(self, other: "Pose", atol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.rotation, other.rotation, atol=atol)
            and np.allclose(self.translation, other.translation, atol=atol)
        )


def se3_exp(upsilon: np.ndarray, omega: np.ndarray) -> Pose:
    """Exponential map of SE(3): ``(translation part, rotation part)`` to Pose."""
    upsilon = np.asarray(upsilon, dtype=np.float64).reshape(3)
    omega = np.asarray(omega, dtype=np.float64).reshape(3)
    theta = float(np.linalg.norm(omega))
    rotation = so3_exp(omega)
    skew = hat(omega)
    if theta < _EPS:
        v_matrix = np.eye(3) + 0.5 * skew
    else:
        v_matrix = (
            np.eye(3)
            + ((1.0 - np.cos(theta)) / (theta * theta)) * skew
            + ((theta - np.sin(theta)) / (theta**3)) * skew @ skew
        )
    return Pose(rotation, v_matrix @ upsilon)


def se3_log(pose: Pose) -> Tuple[np.ndarray, np.ndarray]:
    """Logarithm map of SE(3): Pose to ``(upsilon, omega)``."""
    omega = so3_log(pose.rotation)
    theta = float(np.linalg.norm(omega))
    skew = hat(omega)
    if theta < _EPS:
        v_inv = np.eye(3) - 0.5 * skew
    else:
        half = theta / 2.0
        # tan(half) == half to float precision where it falls below _EPS
        cot_half = 1.0 / np.tan(half) if abs(np.tan(half)) > _EPS else 1.0 / half
        v_inv = (
            np.eye(3)
            - 0.5 * skew
            + (1.0 / (theta * theta)) * (1.0 - (theta * cot_half) / 2.0) * skew @ skew
        )
    return v_inv @ pose.translation, omega
