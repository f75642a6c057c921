"""Tests for BRIEF patterns: original, rotated and the 30-angle LUT."""

import math

import numpy as np
import pytest

from repro.errors import DescriptorError
from repro.features import (
    BriefPattern,
    RotatedPatternLUT,
    original_brief_pattern,
    rotated_pattern,
)


class TestBriefPattern:
    def test_default_has_256_pairs_inside_radius(self):
        pattern = original_brief_pattern()
        assert pattern.num_bits == 256
        assert pattern.max_radius() <= 15.0 + 1e-9

    def test_deterministic_for_seed(self):
        a = original_brief_pattern(seed=1)
        b = original_brief_pattern(seed=1)
        assert np.allclose(a.s_locations, b.s_locations)
        assert np.allclose(a.d_locations, b.d_locations)

    def test_different_seeds_differ(self):
        a = original_brief_pattern(seed=1)
        b = original_brief_pattern(seed=2)
        assert not np.allclose(a.s_locations, b.s_locations)

    def test_rounded_is_integer(self):
        pattern = original_brief_pattern()
        s_int, d_int = pattern.rounded()
        assert s_int.dtype == np.int64
        assert d_int.shape == (256, 2)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DescriptorError):
            BriefPattern(np.zeros((4, 2)), np.zeros((5, 2)), patch_radius=15)

    def test_rejects_out_of_radius_locations(self):
        s = np.array([[20.0, 0.0]])
        d = np.array([[0.0, 0.0]])
        with pytest.raises(DescriptorError):
            BriefPattern(s, d, patch_radius=15)

    def test_rejects_empty_pattern(self):
        with pytest.raises(DescriptorError):
            BriefPattern(np.zeros((0, 2)), np.zeros((0, 2)), patch_radius=15)

    def test_gaussian_locations_concentrated_near_center(self):
        pattern = original_brief_pattern(num_bits=512, patch_radius=15, seed=3)
        radii = np.sqrt((pattern.s_locations**2).sum(axis=1))
        # a Gaussian with sigma = radius/2 puts well over half the mass inside r/2... loosely
        assert (radii < 15 / 2).mean() > 0.4


class TestRotatedPattern:
    def test_rotation_preserves_radii(self):
        pattern = original_brief_pattern(seed=4)
        rotated = rotated_pattern(pattern, 0.7)
        original_radii = np.sqrt((pattern.s_locations**2).sum(axis=1))
        rotated_radii = np.sqrt((rotated.s_locations**2).sum(axis=1))
        assert np.allclose(original_radii, rotated_radii)

    def test_rotation_by_zero_is_identity(self):
        pattern = original_brief_pattern(seed=4)
        rotated = rotated_pattern(pattern, 0.0)
        assert np.allclose(pattern.s_locations, rotated.s_locations)

    def test_rotation_composition(self):
        pattern = original_brief_pattern(seed=4)
        once = rotated_pattern(rotated_pattern(pattern, 0.3), 0.4)
        direct = rotated_pattern(pattern, 0.7)
        assert np.allclose(once.s_locations, direct.s_locations, atol=1e-9)

    def test_equation_2_explicit(self):
        # verify the paper's rotation formula on a single point
        pattern = BriefPattern(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), patch_radius=2
        )
        rotated = rotated_pattern(pattern, math.pi / 2)
        assert rotated.s_locations[0] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert rotated.d_locations[0] == pytest.approx([-1.0, 0.0], abs=1e-12)


class TestRotatedPatternLUT:
    def test_thirty_angles_by_default(self):
        lut = RotatedPatternLUT(original_brief_pattern(seed=5))
        assert len(lut) == 30

    def test_angle_index_rounding(self):
        lut = RotatedPatternLUT(original_brief_pattern(seed=5))
        assert lut.angle_index(0.0) == 0
        assert lut.angle_index(math.radians(12.0)) == 1
        assert lut.angle_index(math.radians(5.0)) == 0
        assert lut.angle_index(math.radians(7.0)) == 1

    def test_storage_cost_matches_paper_motivation(self):
        # 30 patterns x 2 sets x 256 locations = 15360 stored locations;
        # this is the memory cost RS-BRIEF eliminates
        lut = RotatedPatternLUT(original_brief_pattern(seed=5))
        assert lut.storage_locations() == 30 * 2 * 256

    def test_lut_patterns_are_rotations_of_base(self):
        base = original_brief_pattern(seed=6)
        lut = RotatedPatternLUT(base, num_angles=12)
        expected = rotated_pattern(base, 2 * math.pi * 5 / 12)
        fifth = lut.pattern_for_angle(2 * math.pi * 5 / 12)
        assert np.allclose(fifth.s_locations, expected.s_locations)
