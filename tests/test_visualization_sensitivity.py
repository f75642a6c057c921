"""Tests for trajectory visualisation and the platform sensitivity sweeps."""

import numpy as np
import pytest

from repro.errors import DatasetError, PlatformModelError
from repro.geometry import Pose
from repro.platforms import (
    ARM_CORTEX_A9,
    ESLAM,
    INTEL_I7,
    SensitivityAnalysis,
    eslam_accelerator_resolution_latency,
)
from repro.slam import ascii_scatter, error_bars, matching_summary, trajectory_top_view


class TestAsciiScatter:
    def test_contains_all_markers_and_legend(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.5, 0.5]])
        plot = ascii_scatter([("truth", a), ("estimate", b)])
        assert "* = truth" in plot
        assert "o = estimate" in plot
        assert "*" in plot.split("\n", 3)[3]

    def test_dimension_validation(self):
        with pytest.raises(DatasetError):
            ascii_scatter([])
        with pytest.raises(DatasetError):
            ascii_scatter([("a", np.zeros((2, 3)))])
        with pytest.raises(DatasetError):
            ascii_scatter([("a", np.zeros((2, 2)))], width=5)

    def test_grid_size(self):
        plot = ascii_scatter([("a", np.array([[0.0, 0.0], [1.0, 2.0]]))], width=30, height=10)
        body = [line for line in plot.splitlines() if line.startswith("|")]
        assert len(body) == 10
        assert all(len(line) == 32 for line in body)


class TestTrajectoryView:
    def test_top_view_renders(self, tiny_slam_result):
        plot = trajectory_top_view(
            tiny_slam_result.estimated_poses, tiny_slam_result.ground_truth_poses
        )
        assert "ground truth" in plot
        assert "estimated" in plot

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            trajectory_top_view([Pose.identity()], [Pose.identity(), Pose.identity()])

    def test_error_bars(self):
        text = error_bars(np.array([0.01, 0.02, 0.005]))
        assert text.count("cm") == 4  # header + 3 rows
        assert "#" in text

    def test_error_bars_validation(self):
        with pytest.raises(DatasetError):
            error_bars(np.array([]))

    def test_matching_summary(self):
        line = matching_summary(400, 300, 250)
        assert "400 features" in line
        assert "75%" in line
        assert matching_summary(0, 0, 0) == "no features extracted"


class TestSensitivityAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        return SensitivityAnalysis(keyframe_ratio=0.25)

    def test_map_size_sweep_monotonic_for_cpus(self, analysis):
        points = analysis.map_size_sweep((500, 1500, 3000))
        arm_runtimes = [p.runtime_ms[ARM_CORTEX_A9.name] for p in points]
        assert arm_runtimes == sorted(arm_runtimes)
        # eSLAM's matcher also slows down, but the normal-frame time is hidden
        # behind the host, so the average grows much more slowly
        eslam_growth = points[-1].runtime_ms[ESLAM.name] / points[0].runtime_ms[ESLAM.name]
        arm_growth = arm_runtimes[-1] / arm_runtimes[0]
        assert eslam_growth < arm_growth

    def test_eslam_always_fastest(self, analysis):
        for point in analysis.map_size_sweep((500, 3000)):
            assert point.frame_rate_fps[ESLAM.name] > point.frame_rate_fps[INTEL_I7.name]
            assert point.frame_rate_fps[INTEL_I7.name] > point.frame_rate_fps[ARM_CORTEX_A9.name]

    def test_feature_budget_sweep(self, analysis):
        points = analysis.feature_budget_sweep((256, 1024, 2048))
        arm = [p.runtime_ms[ARM_CORTEX_A9.name] for p in points]
        assert arm[0] < arm[-1]

    def test_real_time_limit(self, analysis):
        points = analysis.map_size_sweep((500, 1500, 3000, 6000))
        eslam_limit = SensitivityAnalysis.real_time_limit(points, ESLAM.name, fps=30.0)
        arm_limit = SensitivityAnalysis.real_time_limit(points, ARM_CORTEX_A9.name, fps=30.0)
        assert eslam_limit is not None and eslam_limit >= 1500
        assert arm_limit is None  # the ARM never reaches 30 fps

    def test_invalid_keyframe_ratio(self):
        with pytest.raises(PlatformModelError):
            SensitivityAnalysis(keyframe_ratio=1.5)

    def test_accelerator_resolution_latency(self):
        latencies = eslam_accelerator_resolution_latency((0.5, 1.0))
        assert latencies[1.0] > 3 * latencies[0.5]
