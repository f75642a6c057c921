"""Cross-module property-based tests.

These hypothesis tests check invariants that span subsystem boundaries --
the relationships the paper's correctness argument rests on, rather than the
behaviour of any single unit: descriptor rotation must not change Hamming
distances, pose round-trips must preserve trajectory error metrics, and the
platform models must respond monotonically to workload growth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import TrajectoryEntry
from repro.features import rotate_descriptor_bytes
from repro.geometry import Pose, se3_exp
from repro.platforms import ARM_CORTEX_A9, CpuRuntimeModel, NOMINAL_WORKLOAD
from repro.slam import absolute_trajectory_error

from hw_oracle import hamming_distance
from poses import poses_close


_small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


class TestDescriptorRotationInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=2**31 - 1))
    def test_rotation_preserves_hamming_distance(self, orientation, seed):
        """Rotating two descriptors by the same orientation preserves their distance.

        This is why the BRIEF Rotator can be applied before matching without
        changing the matching result for features of equal orientation.
        """
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, 32, dtype=np.uint8)
        b = rng.integers(0, 256, 32, dtype=np.uint8)
        original = hamming_distance(a, b)
        rotated = hamming_distance(
            rotate_descriptor_bytes(a, orientation), rotate_descriptor_bytes(b, orientation)
        )
        assert rotated == original

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=2**31 - 1))
    def test_rotation_preserves_popcount(self, orientation, seed):
        rng = np.random.default_rng(seed)
        descriptor = rng.integers(0, 256, 32, dtype=np.uint8)
        rotated = rotate_descriptor_bytes(descriptor, orientation)
        assert int(np.unpackbits(rotated).sum()) == int(np.unpackbits(descriptor).sum())


class TestPoseTrajectoryInvariants:
    @settings(max_examples=30, deadline=None)
    @given(_small, _small, _small, _small, _small, _small)
    def test_tum_entry_roundtrip(self, tx, ty, tz, wx, wy, wz):
        """Converting a pose to TUM convention and back is the identity."""
        pose = se3_exp(np.array([tx, ty, tz]), np.array([wx, wy, wz]))
        entry = TrajectoryEntry.from_world_to_camera(0.0, pose)
        assert poses_close(entry.to_world_to_camera(), pose, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(_small, _small, _small)
    def test_ate_invariant_under_global_rigid_motion(self, tx, ty, yaw):
        """Applying one rigid transform to an entire trajectory leaves ATE at zero."""
        base = [
            se3_exp(np.array([0.05 * k, 0.01 * k, 0.0]), np.array([0.0, 0.02 * k, 0.0]))
            for k in range(6)
        ]
        offset = se3_exp(np.array([tx, ty, 0.0]), np.array([0.0, 0.0, yaw]))
        moved = [pose.compose(offset) for pose in base]
        result = absolute_trajectory_error(moved, base, align=True)
        assert result.rmse < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(_small, _small, _small, _small, _small, _small)
    def test_pose_inverse_composition_identity(self, a, b, c, d, e, f):
        pose = se3_exp(np.array([a, b, c]), np.array([d, e, f]))
        assert poses_close(pose.compose(pose.inverse()), Pose.identity(), atol=1e-9)
        assert poses_close(pose.inverse().inverse(), pose, atol=1e-9)


class TestRuntimeModelMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.0, max_value=4.0), st.floats(min_value=1.0, max_value=4.0))
    def test_more_work_never_runs_faster(self, factor_a, factor_b):
        """CPU stage runtimes are monotone in the workload scale."""
        model = CpuRuntimeModel(ARM_CORTEX_A9)
        small_factor, large_factor = sorted((factor_a, factor_b))
        small = model.stage_runtimes(NOMINAL_WORKLOAD.scaled(small_factor))
        large = model.stage_runtimes(NOMINAL_WORKLOAD.scaled(large_factor))
        for stage in (
            "feature_extraction",
            "feature_matching",
            "pose_estimation",
            "pose_optimization",
            "map_updating",
        ):
            assert large.as_dict()[stage] >= small.as_dict()[stage] - 1e-9

    def test_nominal_workload_total_matches_table2_sum(self):
        """The serial ARM frame time implied by the model equals Table 3's 555.7 ms."""
        runtimes = CpuRuntimeModel(ARM_CORTEX_A9).stage_runtimes(NOMINAL_WORKLOAD)
        serial_normal = runtimes.front_end_ms + runtimes.back_end_ms
        assert serial_normal == pytest.approx(555.7, rel=0.01)
