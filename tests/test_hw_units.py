"""Tests for the ORB Extractor datapath units: the scalar walk's units of
``tests/hw_oracle.py`` against the software pipeline, and the cycle costs
the latency model reads."""

import numpy as np
import pytest

from repro.config import DescriptorConfig, FastConfig
from repro.errors import HardwareModelError
from repro.features import (
    Keypoint,
    RsBriefDescriptorEngine,
    compute_orientation,
    fast_corner_mask,
    rs_brief_pattern,
)
from repro.hw.orb_extractor import BriefComputingUnit, OrientationUnit
from repro.image import gaussian_blur, random_blocks

from hw_oracle import (
    FastDetectionUnit,
    ImageSmootherUnit,
    brief_descriptor_from_patch,
    orientation_bin_from_patch_quantized,
    rotate_descriptor,
)


@pytest.fixture(scope="module")
def texture():
    return random_blocks(96, 96, block=8, seed=31)


class TestFastDetectionUnit:
    def test_matches_software_segment_test(self, texture):
        unit = FastDetectionUnit(FastConfig(threshold=20))
        config = FastConfig(threshold=20, border=16)
        software_mask = fast_corner_mask(texture, config)
        checked = 0
        for y in range(20, 70, 3):
            for x in range(20, 70, 3):
                window = texture.pixels[y - 3 : y + 4, x - 3 : x + 4]
                is_corner, _ = unit.evaluate_window(window)
                assert is_corner == bool(software_mask[y, x])
                checked += 1
        assert checked > 100

    def test_corner_has_positive_harris_score(self):
        unit = FastDetectionUnit()
        window = np.full((7, 7), 30, dtype=np.uint8)
        window[3:, 3:] = 220
        is_corner, score = unit.evaluate_window(window)
        if is_corner:
            assert score > 0

    def test_flat_window_is_not_a_corner(self):
        unit = FastDetectionUnit()
        is_corner, score = unit.evaluate_window(np.full((7, 7), 100, dtype=np.uint8))
        assert not is_corner
        assert score == 0.0

    def test_rejects_wrong_window_size(self):
        with pytest.raises(HardwareModelError):
            FastDetectionUnit().evaluate_window(np.zeros((5, 5)))


class TestImageSmootherUnit:
    def test_quantised_kernel_sums_to_scale(self):
        unit = ImageSmootherUnit(weight_bits=8)
        assert unit.kernel_fixed.sum() == 256

    def test_constant_window_unchanged(self):
        unit = ImageSmootherUnit()
        assert unit.smooth_window(np.full((7, 7), 93, dtype=np.uint8)) == 93

    def test_close_to_floating_point_reference(self, texture):
        unit = ImageSmootherUnit()
        reference = gaussian_blur(texture)
        errors = []
        for y in range(10, 80, 7):
            for x in range(10, 80, 7):
                window = texture.pixels[y - 3 : y + 4, x - 3 : x + 4]
                errors.append(abs(unit.smooth_window(window) - int(reference.pixels[y, x])))
        # 8-bit quantised weights vs the float kernel: a few intensity levels at most
        assert max(errors) <= 4
        assert float(np.mean(errors)) <= 1.5

    def test_rejects_wrong_window(self):
        with pytest.raises(HardwareModelError):
            ImageSmootherUnit().smooth_window(np.zeros((3, 3)))


class TestOrientationUnit:
    def test_matches_software_orientation(self, texture):
        smoothed = gaussian_blur(texture)
        agreements = 0
        total = 0
        for y in range(20, 76, 5):
            for x in range(20, 76, 5):
                software_bin, _ = compute_orientation(smoothed, x, y, radius=15)
                patch = smoothed.patch(x, y, 15)
                hardware_bin = orientation_bin_from_patch_quantized(patch)
                total += 1
                # fixed-point v/u quantisation may move the angle across a bin
                # boundary; allow a one-bin difference but require it to be rare
                difference = min((software_bin - hardware_bin) % 32, (hardware_bin - software_bin) % 32)
                assert difference <= 1
                if difference == 0:
                    agreements += 1
        assert agreements / total > 0.9

    def test_uniform_patch_bin_zero(self):
        patch = np.full((31, 31), 90, dtype=np.uint8)
        assert orientation_bin_from_patch_quantized(patch) == 0

    def test_cycles_per_feature_positive(self):
        assert OrientationUnit().cycles_per_feature() > 0
        with pytest.raises(HardwareModelError):
            OrientationUnit().cycles_per_feature(lanes=0)


class TestBriefComputingAndRotator:
    def test_descriptor_matches_software_engine(self, texture):
        """Hardware BRIEF unit + rotator must be bit-exact with the software engine."""
        smoothed = gaussian_blur(texture)
        config = DescriptorConfig()
        engine = RsBriefDescriptorEngine(config)
        s_int, d_int = rs_brief_pattern(config).rounded()
        for (x, y) in [(40, 40), (50, 60), (64, 30)]:
            orientation_bin, orientation_rad = compute_orientation(smoothed, x, y)
            keypoint = Keypoint(
                x, y, 1.0, orientation_bin=orientation_bin, orientation_rad=orientation_rad
            )
            software = engine.describe(smoothed, keypoint)
            patch = smoothed.patch(x, y, config.patch_radius)
            hardware = rotate_descriptor(
                brief_descriptor_from_patch(patch, s_int, d_int), orientation_bin
            )
            assert np.array_equal(software, hardware)

    def test_cycles_per_feature(self):
        unit = BriefComputingUnit(comparators_per_cycle=32)
        assert unit.cycles_per_feature() == pytest.approx(8.0)

    def test_patch_too_small_rejected(self):
        s_int, d_int = rs_brief_pattern(DescriptorConfig()).rounded()
        with pytest.raises(HardwareModelError):
            brief_descriptor_from_patch(np.zeros((7, 7), dtype=np.uint8), s_int, d_int)

    def test_rotator_validates_bin(self):
        with pytest.raises(HardwareModelError):
            rotate_descriptor(np.zeros(32, dtype=np.uint8), 32)

    def test_rotator_is_byte_roll(self):
        descriptor = np.arange(32, dtype=np.uint8)
        rotated = rotate_descriptor(descriptor, 3)
        assert np.array_equal(rotated, np.roll(descriptor, -3))
