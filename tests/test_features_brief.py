"""Tests for descriptor computation: RS-BRIEF and original ORB engines."""

import numpy as np
import pytest

from repro.config import DescriptorConfig
from repro.errors import DescriptorError, FeatureError
from repro.features import (
    NUM_ORIENTATION_BINS,
    Keypoint,
    OriginalOrbDescriptorEngine,
    RsBriefDescriptorEngine,
    evaluate_pattern,
    make_descriptor_engine,
    pack_bits,
    rotated_pattern,
    rs_brief_pattern,
)
from repro.image import GrayImage, gaussian_blur, random_blocks, rotate_image

from hw_oracle import hamming_distance


@pytest.fixture(scope="module")
def smoothed_image():
    return gaussian_blur(random_blocks(96, 96, block=7, seed=13))


def _oriented_keypoint(x=48, y=48, orientation_bin=0, orientation_rad=0.0):
    return Keypoint(
        x=x, y=y, score=1.0, orientation_bin=orientation_bin, orientation_rad=orientation_rad
    )


def _rotation_equivalence_error(smoothed, keypoint):
    """Bits in which RS-BRIEF's shifted descriptor differs from the one
    computed with the seed pattern rotated by the keypoint's orientation."""
    engine = RsBriefDescriptorEngine()
    shifted = engine.describe(smoothed, keypoint)
    angle = 2.0 * np.pi * keypoint.orientation_bin / NUM_ORIENTATION_BINS
    rotated = rotated_pattern(engine.pattern, angle)
    direct = pack_bits(evaluate_pattern(smoothed, keypoint.x, keypoint.y, rotated))
    return int(np.unpackbits(shifted ^ direct).sum())


class TestPackUnpack:
    def test_roundtrip(self):
        bits = (np.arange(256) % 2).astype(np.uint8)
        assert np.array_equal(np.unpackbits(pack_bits(bits), bitorder="little"), bits)

    def test_packed_length(self):
        assert pack_bits(np.zeros(256, dtype=np.uint8)).size == 32

    def test_rejects_non_multiple_of_eight(self):
        with pytest.raises(DescriptorError):
            pack_bits(np.zeros(10, dtype=np.uint8))


class TestEvaluatePattern:
    def test_bit_semantics(self, smoothed_image):
        pattern = rs_brief_pattern()
        bits = evaluate_pattern(smoothed_image, 48, 48, pattern)
        s_int, d_int = pattern.rounded()
        for i in (0, 10, 100, 255):
            s_val = smoothed_image.pixels[48 + s_int[i, 1], 48 + s_int[i, 0]]
            d_val = smoothed_image.pixels[48 + d_int[i, 1], 48 + d_int[i, 0]]
            assert bits[i] == (1 if s_val > d_val else 0)

    def test_rejects_keypoint_near_border(self, smoothed_image):
        pattern = rs_brief_pattern()
        with pytest.raises(FeatureError):
            evaluate_pattern(smoothed_image, 3, 3, pattern)


class TestRsBriefEngine:
    def test_descriptor_is_32_bytes(self, smoothed_image):
        engine = RsBriefDescriptorEngine()
        descriptor = engine.describe(smoothed_image, _oriented_keypoint())
        assert descriptor.shape == (32,)
        assert descriptor.dtype == np.uint8

    def test_orientation_zero_equals_raw_pattern(self, smoothed_image):
        engine = RsBriefDescriptorEngine()
        raw_bits = evaluate_pattern(smoothed_image, 48, 48, engine.pattern)
        descriptor = engine.describe(smoothed_image, _oriented_keypoint(orientation_bin=0))
        assert np.array_equal(descriptor, pack_bits(raw_bits))

    def test_orientation_shift_applied(self, smoothed_image):
        engine = RsBriefDescriptorEngine()
        at_zero = engine.describe(smoothed_image, _oriented_keypoint(orientation_bin=0))
        at_five = engine.describe(smoothed_image, _oriented_keypoint(orientation_bin=5))
        assert np.array_equal(np.roll(at_zero, -5), at_five)

    def test_requires_orientation(self, smoothed_image):
        engine = RsBriefDescriptorEngine()
        with pytest.raises(FeatureError):
            engine.describe(smoothed_image, Keypoint(x=48, y=48, score=1.0))

    def test_shift_equals_true_pattern_rotation(self, smoothed_image):
        """Core RS-BRIEF claim: shifting the descriptor == rotating the pattern."""
        for orientation_bin in (0, 3, 8, 16, 27):
            keypoint = _oriented_keypoint(
                orientation_bin=orientation_bin,
                orientation_rad=orientation_bin * 2 * np.pi / 32,
            )
            mismatched_bits = _rotation_equivalence_error(smoothed_image, keypoint)
            # rounding of rotated test locations may flip a few low-margin tests
            assert mismatched_bits <= 24

    def test_rotation_invariance_on_rotated_image(self):
        """Descriptors of the same feature should stay close under image rotation."""
        base = gaussian_blur(random_blocks(129, 129, block=9, seed=21))
        engine = RsBriefDescriptorEngine()
        from repro.features import compute_orientation

        center = 64
        bin0, rad0 = compute_orientation(base, center, center)
        keypoint0 = Keypoint(center, center, 1.0, orientation_bin=bin0, orientation_rad=rad0)
        descriptor0 = engine.describe(base, keypoint0)
        # rotate the image by exactly 4 bins (45 degrees)
        rotated = rotate_image(base, 4 * 2 * np.pi / 32, fill=128)
        bin1, rad1 = compute_orientation(rotated, center, center)
        keypoint1 = Keypoint(center, center, 1.0, orientation_bin=bin1, orientation_rad=rad1)
        descriptor1 = engine.describe(rotated, keypoint1)
        distance = hamming_distance(descriptor0, descriptor1)
        # unrelated descriptors average ~128 bits; the rotated feature must be
        # far more similar than chance
        assert distance < 80


class TestOriginalOrbEngine:
    def test_descriptor_is_32_bytes(self, smoothed_image):
        engine = OriginalOrbDescriptorEngine()
        descriptor = engine.describe(
            smoothed_image, _oriented_keypoint(orientation_rad=0.3)
        )
        assert descriptor.shape == (32,)

    def test_different_orientations_change_descriptor(self, smoothed_image):
        engine = OriginalOrbDescriptorEngine()
        a = engine.describe(smoothed_image, _oriented_keypoint(orientation_rad=0.0))
        b = engine.describe(smoothed_image, _oriented_keypoint(orientation_rad=1.2))
        assert hamming_distance(a, b) > 0

    def test_requires_orientation(self, smoothed_image):
        engine = OriginalOrbDescriptorEngine()
        with pytest.raises(FeatureError):
            engine.describe(smoothed_image, Keypoint(x=48, y=48, score=1.0))


class TestFactory:
    def test_factory_selects_engine(self):
        assert isinstance(make_descriptor_engine(True), RsBriefDescriptorEngine)
        assert isinstance(make_descriptor_engine(False), OriginalOrbDescriptorEngine)

    def test_factory_respects_config(self):
        config = DescriptorConfig(num_bits=128, seed_pairs=4, symmetry=32)
        engine = make_descriptor_engine(True, config)
        assert engine.config.num_bits == 128
