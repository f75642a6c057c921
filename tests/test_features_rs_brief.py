"""Tests for the RS-BRIEF pattern: the paper's core algorithmic contribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DescriptorConfig
from repro.errors import DescriptorError
from repro.features import (
    generate_seed,
    pattern_symmetry_error,
    rotate_descriptor_bytes,
    rs_brief_pattern,
)


class TestSeedGeneration:
    def test_seed_has_eight_pairs(self):
        seed = generate_seed()
        assert seed.num_pairs == 8
        assert seed.s_seed.shape == (8, 2)

    def test_seed_deterministic(self):
        a = generate_seed(DescriptorConfig(seed=3))
        b = generate_seed(DescriptorConfig(seed=3))
        assert np.allclose(a.s_seed, b.s_seed)

    def test_seed_locations_inside_patch(self):
        config = DescriptorConfig()
        seed = generate_seed(config)
        radii = np.sqrt((seed.s_seed**2).sum(axis=1))
        assert radii.max() <= config.patch_radius


class TestRsBriefPattern:
    def test_full_pattern_has_256_pairs(self):
        pattern = rs_brief_pattern()
        assert pattern.num_bits == 256

    def test_pattern_is_exactly_32_fold_symmetric(self):
        pattern = rs_brief_pattern()
        assert pattern_symmetry_error(pattern, symmetry=32, seed_pairs=8) < 1e-9

    def test_original_brief_is_not_symmetric(self):
        from repro.features import original_brief_pattern

        random_pattern = original_brief_pattern()
        assert pattern_symmetry_error(random_pattern, symmetry=32, seed_pairs=8) > 1.0

    def test_bit_layout_rotation_first(self):
        # bit r*8+g is seed pair g rotated by r steps: check r=1 explicitly
        config = DescriptorConfig()
        seed = generate_seed(config)
        pattern = rs_brief_pattern(config, seed)
        step = 2 * math.pi / 32
        rotation = np.array(
            [[math.cos(step), -math.sin(step)], [math.sin(step), math.cos(step)]]
        )
        expected = seed.s_seed @ rotation.T
        assert np.allclose(pattern.s_locations[8:16], expected, atol=1e-9)

    def test_pattern_fits_inside_patch_radius(self):
        config = DescriptorConfig()
        pattern = rs_brief_pattern(config)
        assert pattern.max_radius() <= config.patch_radius

    def test_mismatched_seed_rejected(self):
        config = DescriptorConfig()
        small_seed = generate_seed(DescriptorConfig(num_bits=128, seed_pairs=4, symmetry=32))
        with pytest.raises(DescriptorError):
            rs_brief_pattern(config, small_seed)

    def test_rotating_pattern_by_one_step_permutes_tests(self):
        """The rotational symmetry that makes descriptor-shifting equivalent."""
        pattern = rs_brief_pattern()
        step = 2 * math.pi / 32
        rotation = np.array(
            [[math.cos(step), -math.sin(step)], [math.sin(step), math.cos(step)]]
        )
        rotated = pattern.s_locations @ rotation.T
        shifted = np.roll(pattern.s_locations, -8, axis=0)
        assert np.allclose(rotated, shifted, atol=1e-9)


def _bits(descriptor):
    return np.unpackbits(descriptor, bitorder="little")


class TestDescriptorRotation:
    def test_bit_rotation_moves_prefix_to_end(self):
        bits = (np.arange(256) * 5 // 3 % 2).astype(np.uint8)
        rotated = _bits(rotate_descriptor_bytes(np.packbits(bits, bitorder="little"), 1))
        assert np.array_equal(rotated[:248], bits[8:])
        assert np.array_equal(rotated[248:], bits[:8])

    def test_bit_rotation_by_zero_is_identity(self):
        descriptor = np.arange(32, dtype=np.uint8) * 7
        assert np.array_equal(rotate_descriptor_bytes(descriptor, 0), descriptor)

    def test_full_turn_is_identity(self):
        descriptor = np.arange(32, dtype=np.uint8) * 3
        assert np.array_equal(rotate_descriptor_bytes(descriptor, 32), descriptor)

    def test_byte_rotation_equals_bit_rotation(self):
        """The byte barrel shifter is the BRIEF Rotator's circular left
        rotation by ``8 * n`` bits."""
        rng = np.random.default_rng(0)
        descriptor = rng.integers(0, 256, size=32, dtype=np.uint8)
        for orientation in (0, 1, 5, 17, 31):
            rotated_bytes = rotate_descriptor_bytes(descriptor, orientation)
            rotated_bits = np.roll(_bits(descriptor), -8 * orientation)
            assert np.array_equal(_bits(rotated_bytes), rotated_bits)

    def test_rotation_composition_is_additive(self):
        rng = np.random.default_rng(1)
        descriptor = rng.integers(0, 256, size=32, dtype=np.uint8)
        once = rotate_descriptor_bytes(rotate_descriptor_bytes(descriptor, 3), 7)
        direct = rotate_descriptor_bytes(descriptor, 10)
        assert np.array_equal(once, direct)

    def test_rejects_bad_lengths(self):
        with pytest.raises(DescriptorError):
            rotate_descriptor_bytes(np.zeros((2, 8)), 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_rotation_is_invertible(self, a, b):
        rng = np.random.default_rng(a * 64 + b)
        descriptor = rng.integers(0, 256, size=32, dtype=np.uint8)
        forward = rotate_descriptor_bytes(descriptor, a % 32)
        backward = rotate_descriptor_bytes(forward, (32 - a % 32) % 32)
        assert np.array_equal(backward, descriptor)
