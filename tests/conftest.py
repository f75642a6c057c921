"""Shared fixtures for the test suite.

Heavyweight objects (rendered sequences, extraction results) are produced at
reduced resolution and cached at session scope so the whole suite stays fast
while still exercising the real code paths end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    ExtractorConfig,
    FastConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)
from repro.dataset import SequenceSpec, make_sequence
from repro.features import OrbExtractor
from repro.geometry import PinholeCamera, Pose, so3_exp
from repro.image import GrayImage, random_blocks


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def blocks_image() -> GrayImage:
    """A 120x160 blocky random texture with plenty of FAST corners."""
    return random_blocks(120, 160, block=10, seed=1)


@pytest.fixture(scope="session")
def large_blocks_image() -> GrayImage:
    """A 240x320 blocky texture for pyramid / extractor tests."""
    return random_blocks(240, 320, block=12, seed=2)


@pytest.fixture(scope="session")
def flat_image() -> GrayImage:
    """A constant image: no corners anywhere."""
    return GrayImage.full(64, 64, 128)


# ---------------------------------------------------------------------------
# extractor configurations and results
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_extractor_config() -> ExtractorConfig:
    """Extractor configuration sized for the 120x160 test image."""
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        fast=FastConfig(threshold=20),
        max_features=200,
    )


@pytest.fixture(scope="session")
def extraction_result(blocks_image, small_extractor_config):
    """Features extracted once from the blocks image (reused by many tests)."""
    return OrbExtractor(small_extractor_config).extract(blocks_image)


# ---------------------------------------------------------------------------
# cameras and poses
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def camera() -> PinholeCamera:
    return PinholeCamera.tum_freiburg1()


@pytest.fixture(scope="session")
def small_camera() -> PinholeCamera:
    """TUM fr1 intrinsics scaled to 160x120."""
    return PinholeCamera.tum_freiburg1().scaled(0.25)


@pytest.fixture()
def example_pose() -> Pose:
    return Pose(so3_exp(np.array([0.05, -0.02, 0.1])), np.array([0.1, -0.2, 0.05]))


# ---------------------------------------------------------------------------
# sequences and SLAM configurations
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def tiny_sequence():
    """A 5-frame fr1/xyz-style sequence at 160x120 (fast enough for CI)."""
    return make_sequence(
        SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
    )


@pytest.fixture(scope="session")
def tiny_slam_config() -> SlamConfig:
    return SlamConfig(
        extractor=ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=250,
        ),
        tracker=TrackerConfig(ransac_iterations=48, pose_iterations=8),
    )


@pytest.fixture(scope="session")
def tiny_slam_result(tiny_sequence, tiny_slam_config):
    """A full SLAM run over the tiny sequence, shared across tests."""
    from repro.slam import SlamSystem

    return SlamSystem(tiny_slam_config).run(tiny_sequence)
