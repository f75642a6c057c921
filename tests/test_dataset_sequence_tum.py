"""Tests for synthetic sequence generation and TUM trajectory I/O."""

import numpy as np
import pytest

from repro.dataset import (
    RgbdSequence,
    SequenceSpec,
    format_trajectory,
    make_sequence,
    parse_trajectory,
    write_trajectory,
)
from repro.errors import DatasetError
from repro.geometry import Pose, so3_exp


class TestSequenceGeneration:
    def test_sequence_basic_structure(self, tiny_sequence):
        assert isinstance(tiny_sequence, RgbdSequence)
        assert len(tiny_sequence) == 5
        assert tiny_sequence.name == "fr1/xyz"

    def test_frames_have_consistent_shapes(self, tiny_sequence):
        for frame in tiny_sequence:
            assert frame.image.shape == (120, 160)
            assert frame.depth.shape == (120, 160)

    def test_timestamps_monotonic(self, tiny_sequence):
        timestamps = tiny_sequence.timestamps()
        assert np.all(np.diff(timestamps) > 0)

    def test_ground_truth_matches_trajectory_length(self, tiny_sequence):
        assert len(tiny_sequence.ground_truth_poses()) == len(tiny_sequence)

    def test_depth_is_positive_where_valid(self, tiny_sequence):
        frame = tiny_sequence[0]
        valid = frame.depth > 0
        assert valid.mean() > 0.9  # wall scene fills nearly the whole view
        assert frame.depth[valid].min() > 0.5

    def test_depth_lookup_helper(self, tiny_sequence):
        frame = tiny_sequence[0]
        assert frame.depth_at(10, 10) == float(frame.depth[10, 10])
        assert frame.depth_at(-5, 10) == 0.0

    def test_camera_intrinsics_scaled_to_resolution(self, tiny_sequence):
        assert tiny_sequence.camera.width == 160
        assert tiny_sequence.camera.height == 120

    def test_consecutive_frames_differ(self, tiny_sequence):
        assert not np.array_equal(
            tiny_sequence[0].image.pixels, tiny_sequence[2].image.pixels
        )

    def test_unknown_sequence_name_rejected(self):
        with pytest.raises(DatasetError):
            make_sequence(SequenceSpec(name="fr3/nope", num_frames=4))

    def test_aspect_ratio_validation(self):
        with pytest.raises(DatasetError):
            make_sequence(
                SequenceSpec(name="fr1/xyz", num_frames=4, image_width=320, image_height=200)
            )

    def test_noise_injection_changes_images(self):
        clean = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=3, image_width=160, image_height=120)
        )
        noisy = make_sequence(
            SequenceSpec(
                name="fr1/xyz",
                num_frames=3,
                image_width=160,
                image_height=120,
                image_noise_std=5.0,
                depth_noise_std_m=0.01,
            )
        )
        assert not np.array_equal(clean[0].image.pixels, noisy[0].image.pixels)
        assert not np.array_equal(clean[0].depth, noisy[0].depth)

    def test_fr2_sequences_use_fr2_intrinsics(self):
        sequence = make_sequence(
            SequenceSpec(name="fr2/rpy", num_frames=3, image_width=160, image_height=120)
        )
        assert sequence.camera.fx == pytest.approx(520.9 * 0.25)


class TestDepthConsistency:
    def test_rendered_depth_backprojects_onto_scene_plane(self, tiny_sequence):
        """Back-projected feature points land on the wall plane (z = 2.5 m world)."""
        frame = tiny_sequence[1]
        camera = tiny_sequence.camera
        pose = frame.ground_truth_pose
        for (u, v) in [(20, 20), (80, 60), (140, 100)]:
            depth = frame.depth_at(u, v)
            point_cam = camera.back_project(u, v, depth)
            point_world = pose.inverse().transform(point_cam)
            assert point_world[2] == pytest.approx(2.5, abs=1e-6)


class TestTumFormat:
    def test_roundtrip_through_text(self):
        poses = [
            Pose.identity(),
            Pose(so3_exp(np.array([0.1, 0.0, 0.2])), np.array([0.5, -0.1, 0.3])),
        ]
        timestamps = [0.0, 0.033]
        text = format_trajectory(timestamps, poses)
        entries = parse_trajectory(text)
        assert len(entries) == 2
        recovered = [entry.to_world_to_camera() for entry in entries]
        for original, parsed in zip(poses, recovered):
            assert original.is_close(parsed, atol=1e-5)

    def test_format_contains_header_and_eight_fields(self):
        text = format_trajectory([1.5], [Pose.identity()])
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines[1].split()) == 8

    def test_parse_skips_comments_and_blanks(self):
        text = "# comment\n\n0.0 0 0 0 0 0 0 1\n"
        entries = parse_trajectory(text)
        assert len(entries) == 1
        assert entries[0].quaternion[3] == pytest.approx(1.0)

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(DatasetError):
            parse_trajectory("0.0 1 2 3\n")
        with pytest.raises(DatasetError):
            parse_trajectory("0.0 a b c d e f g\n")

    def test_file_roundtrip(self, tmp_path):
        poses = [Pose(so3_exp(np.array([0.0, 0.05 * i, 0.0])), np.array([0.1 * i, 0, 0])) for i in range(4)]
        timestamps = [i / 30.0 for i in range(4)]
        path = tmp_path / "trajectory.txt"
        write_trajectory(path, timestamps, poses)
        entries = parse_trajectory(path.read_text())
        assert np.allclose([entry.timestamp for entry in entries], timestamps)
        for pose, entry in zip(poses, entries):
            assert pose.is_close(entry.to_world_to_camera(), atol=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            format_trajectory([0.0, 1.0], [Pose.identity()])
