"""Tests for the software ORB extractor (both workflow orders)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import DescriptorConfig, ExtractorConfig, PyramidConfig
from repro.features import (
    Feature,
    Keypoint,
    OrbExtractor,
)
from repro.image import GrayImage, shift_image


class TestExtraction:
    def test_finds_features_on_textured_image(self, extraction_result):
        assert len(extraction_result.features) > 50

    def test_respects_max_features(self, extraction_result, small_extractor_config):
        assert len(extraction_result.features) <= small_extractor_config.max_features

    def test_descriptors_shape(self, extraction_result):
        matrix = extraction_result.descriptor_matrix()
        assert matrix.shape == (len(extraction_result.features), 32)
        assert matrix.dtype == np.uint8

    def test_keypoint_array_shape(self, extraction_result):
        array = extraction_result.keypoint_array()
        assert array.shape == (len(extraction_result.features), 2)

    def test_features_sorted_by_score(self, extraction_result):
        scores = [f.score for f in extraction_result.features]
        assert scores == sorted(scores, reverse=True)

    def test_all_features_have_orientation(self, extraction_result):
        for feature in extraction_result.features:
            assert feature.keypoint.orientation_bin is not None
            assert 0 <= feature.keypoint.orientation_bin < 32

    def test_flat_image_yields_no_features(self, flat_image, small_extractor_config):
        result = OrbExtractor(small_extractor_config).extract(flat_image)
        assert result.features == []

    def test_profile_counts_consistent(self, extraction_result):
        profile = extraction_result.profile
        assert profile.keypoints_after_nms <= profile.keypoints_detected
        assert profile.features_retained <= profile.descriptors_computed
        assert profile.features_retained == len(extraction_result.features)
        assert profile.pixels_processed > 0
        assert len(profile.per_level_keypoints) == 2  # two pyramid levels

    def test_level0_coordinates_scaled(self, extraction_result, small_extractor_config):
        for feature in extraction_result.features:
            if feature.keypoint.level > 0:
                scale = small_extractor_config.pyramid.level_scale(feature.keypoint.level)
                assert feature.x0 == pytest.approx(feature.keypoint.x * scale)
                break
        else:
            pytest.skip("no level-1 features found")

    def test_multi_level_features_present(self, extraction_result):
        levels = {f.keypoint.level for f in extraction_result.features}
        assert 0 in levels


class TestWorkflows:
    def test_rescheduled_equals_original_keypoints(self, blocks_image):
        config = ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=150,
        )
        keys = [
            OrbExtractor(replace(config, rescheduled_workflow=rescheduled))
            .extract(blocks_image)
            .feature_arrays()
            .keypoint_keys()
            for rescheduled in (True, False)
        ]
        assert keys[0] == keys[1]

    def test_rescheduled_computes_more_descriptors(self, blocks_image):
        base = dict(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=50,
        )
        rescheduled = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=True, **base)
        ).extract(blocks_image)
        original = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=False, **base)
        ).extract(blocks_image)
        # the rescheduled profile counts a descriptor for every detected
        # keypoint (M), the work of the streaming hardware; the original
        # order counts only the retained N < M
        assert (
            rescheduled.profile.descriptors_computed
            > original.profile.descriptors_computed
        )
        assert rescheduled.profile.extra_descriptors > 0

    def test_descriptors_identical_across_workflows(self, blocks_image):
        base = dict(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=100,
        )
        rescheduled = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=True, **base)
        ).extract(blocks_image)
        original = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=False, **base)
        ).extract(blocks_image)
        key = lambda f: (f.keypoint.level, f.keypoint.x, f.keypoint.y)  # noqa: E731
        descriptors_a = {key(f): f.descriptor.tobytes() for f in rescheduled.features}
        descriptors_b = {key(f): f.descriptor.tobytes() for f in original.features}
        assert descriptors_a == descriptors_b


class TestMatchingStability:
    def test_shifted_image_features_match(self, blocks_image, small_extractor_config):
        """Features must be repeatable under small translations (tracking relies on it)."""
        from repro.matching import BruteForceMatcher

        extractor = OrbExtractor(small_extractor_config)
        original = extractor.extract(blocks_image)
        shifted = extractor.extract(shift_image(blocks_image, 3, 2, fill=128))
        matches = BruteForceMatcher().match(
            original.descriptor_matrix(), shifted.descriptor_matrix()
        )
        assert len(matches) > 0.5 * len(original.features)
        distances = sorted(match.distance for match in matches)
        assert distances[len(distances) // 2] <= 16  # median near-exact


class TestFeatureDataclass:
    def test_descriptor_validation(self):
        keypoint = Keypoint(x=5, y=5, score=1.0)
        with pytest.raises(Exception):
            Feature(keypoint=keypoint, descriptor=np.zeros((2, 2), dtype=np.uint8))

    def test_default_level0_coordinates(self):
        keypoint = Keypoint(x=7, y=9, score=1.0)
        feature = Feature(keypoint=keypoint, descriptor=np.zeros(32, dtype=np.uint8))
        assert feature.x0 == 7.0
        assert feature.y0 == 9.0
        assert feature.num_bits == 256

    def test_descriptor_bits_roundtrip(self):
        rng = np.random.default_rng(0)
        descriptor = rng.integers(0, 256, 32, dtype=np.uint8)
        feature = Feature(
            keypoint=Keypoint(x=1, y=1, score=0.0), descriptor=descriptor
        )
        assert np.array_equal(
            np.packbits(feature.descriptor_bits(), bitorder="little"), descriptor
        )
