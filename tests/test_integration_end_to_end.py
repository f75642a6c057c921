"""End-to-end integration tests crossing subsystem boundaries.

These tests tie the whole reproduction together: rendered RGB-D frames flow
through feature extraction, matching, pose estimation and mapping; the
accelerator model consumes the same frames; and the paper's headline
comparisons come out of the combined platform models.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence, parse_trajectory, format_trajectory
from repro.hw import EslamAccelerator
from repro.platforms import ESLAM, ARM_CORTEX_A9, PlatformComparison, HeterogeneousSlamSystem
from repro.slam import SlamSystem, absolute_trajectory_error


class TestAccuracyAcrossDescriptors:
    """The Figure-8 claim at test scale: RS-BRIEF accuracy ~ original ORB accuracy."""

    @pytest.fixture(scope="class")
    def both_errors(self, tiny_sequence, tiny_slam_config):
        errors = {}
        for label, use_rs_brief in (("rs_brief", True), ("original", False)):
            config = SlamConfig(
                extractor=tiny_slam_config.extractor.with_descriptor_mode(use_rs_brief),
                matcher=tiny_slam_config.matcher,
                tracker=tiny_slam_config.tracker,
            )
            result = SlamSystem(config).run(tiny_sequence)
            errors[label] = result.ate().mean_cm
        return errors

    def test_both_track_successfully(self, both_errors):
        assert both_errors["rs_brief"] < 6.0
        assert both_errors["original"] < 6.0

    def test_accuracies_comparable(self, both_errors):
        """Neither descriptor may be an order of magnitude worse than the other."""
        ratio = (both_errors["rs_brief"] + 0.1) / (both_errors["original"] + 0.1)
        assert 0.2 < ratio < 5.0


class TestAcceleratorConsistencyWithSlam:
    def test_accelerator_features_track_like_software(self, tiny_sequence):
        """Features from the accelerator model match the software extractor exactly,
        so the functional SLAM results transfer to the accelerated system."""
        config = ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=250,
        )
        accel = EslamAccelerator(extractor_config=config)
        from repro.features import OrbExtractor

        software = OrbExtractor(config)
        frame = tiny_sequence[0]
        accel_result = accel.process_frame(frame.image)
        software_result = software.extract(frame.image)
        assert np.array_equal(
            accel_result.extraction.descriptor_matrix(),
            software_result.descriptor_matrix(),
        )

    def test_matching_previous_frame_against_map_descriptors(self, tiny_sequence):
        config = ExtractorConfig(
            image_width=160, image_height=120, pyramid=PyramidConfig(num_levels=2), max_features=250
        )
        accel = EslamAccelerator(extractor_config=config)
        first = accel.process_frame(tiny_sequence[0].image)
        second = accel.process_frame(
            tiny_sequence[1].image, first.extraction.descriptor_matrix()
        )
        good = [m for m in second.matches if m.distance <= 40]
        assert len(good) > 30


class TestTrajectoryExport:
    def test_estimated_trajectory_roundtrips_through_tum_format(self, tiny_slam_result):
        text = format_trajectory(
            tiny_slam_result.timestamps, tiny_slam_result.estimated_poses
        )
        entries = parse_trajectory(text)
        recovered = [entry.to_world_to_camera() for entry in entries]
        ate = absolute_trajectory_error(recovered, tiny_slam_result.estimated_poses, align=False)
        assert ate.rmse < 1e-4  # only text-format rounding remains


class TestHeadlineClaims:
    """The abstract's headline numbers, produced by the composed models."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return PlatformComparison()

    def test_frame_rate_improvement_bounds(self, comparison):
        speedups = comparison.speedups()
        assert 2.5 <= speedups["Intel i7-4700MQ"]["key"] <= 3.5 or \
            2.5 <= speedups["Intel i7-4700MQ"]["normal"] <= 3.5
        assert 25 <= speedups["ARM Cortex-A9"]["normal"] <= 35

    def test_energy_improvement_bounds(self, comparison):
        improvements = comparison.energy_improvements()
        assert 60 <= improvements["Intel i7-4700MQ"]["normal"] <= 80
        assert 12 <= improvements["ARM Cortex-A9"]["key"] <= 28

    def test_real_sequence_workloads_preserve_ordering(self, tiny_sequence, tiny_slam_config):
        """Even with measured (small-image) workloads, eSLAM stays fastest and ARM slowest."""
        result = HeterogeneousSlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=3)
        assert result.average_runtime_ms(ESLAM.name) < result.average_runtime_ms(ARM_CORTEX_A9.name)


class TestRobustness:
    def test_slam_survives_sensor_noise(self):
        spec = SequenceSpec(
            name="fr1/xyz",
            num_frames=4,
            image_width=160,
            image_height=120,
            image_noise_std=3.0,
            depth_noise_std_m=0.005,
        )
        noisy_sequence = make_sequence(spec)
        config = SlamConfig(
            extractor=ExtractorConfig(
                image_width=160, image_height=120,
                pyramid=PyramidConfig(num_levels=2), max_features=250,
            ),
            tracker=TrackerConfig(ransac_iterations=48, pose_iterations=8),
        )
        result = SlamSystem(config).run(noisy_sequence)
        assert result.tracking_success_ratio == 1.0
        assert result.ate().rmse_cm < 8.0

    def test_tracking_failure_falls_back_gracefully(self, tiny_slam_config):
        """A frame with no texture cannot be tracked but must not crash the system."""
        from repro.dataset import RgbdFrame, RgbdSequence
        from repro.image import GrayImage
        from repro.geometry import PinholeCamera, Pose

        camera = PinholeCamera.tum_freiburg1().scaled(0.25)
        textured = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=2, image_width=160, image_height=120)
        )
        blank = RgbdFrame(
            index=2,
            timestamp=textured[1].timestamp + 1 / 30,
            image=GrayImage.full(120, 160, 128),
            depth=np.full((120, 160), 2.5),
            ground_truth_pose=Pose.identity(),
        )
        sequence = RgbdSequence(
            name="custom", camera=camera, frames=list(textured.frames) + [blank]
        )
        result = SlamSystem(tiny_slam_config).run(sequence)
        assert result.num_frames == 3
        assert result.frame_results[2].tracked is False
        # pose falls back to the last tracked pose rather than crashing
        assert result.estimated_poses[2].is_close(result.estimated_poses[1])
