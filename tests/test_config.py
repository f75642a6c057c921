"""Tests for the configuration dataclasses."""

import pytest

from repro.config import (
    AcceleratorConfig,
    ENGINES,
    DescriptorConfig,
    ExtractorConfig,
    FastConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)


class TestPyramidConfig:
    def test_default_matches_paper(self):
        config = PyramidConfig()
        assert config.num_levels == 4
        assert config.scale_factor == pytest.approx(1.2)

    def test_level_scale_grows_geometrically(self):
        config = PyramidConfig(num_levels=4, scale_factor=1.5)
        assert config.level_scale(0) == pytest.approx(1.0)
        assert config.level_scale(2) == pytest.approx(2.25)

    def test_level_scale_rejects_out_of_range(self):
        config = PyramidConfig(num_levels=3)
        with pytest.raises(ValueError):
            config.level_scale(3)
        with pytest.raises(ValueError):
            config.level_scale(-1)


class TestFastConfig:
    def test_defaults(self):
        config = FastConfig()
        assert config.arc_length == 9
        assert config.threshold == 20

    def test_rejects_invalid_arc_length(self):
        with pytest.raises(ValueError):
            FastConfig(arc_length=0)
        with pytest.raises(ValueError):
            FastConfig(arc_length=17)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            FastConfig(threshold=-1)


class TestDescriptorConfig:
    def test_default_is_256_bit_32_fold(self):
        config = DescriptorConfig()
        assert config.num_bits == 256
        assert config.seed_pairs == 8
        assert config.symmetry == 32
        assert config.num_bytes == 32

    def test_rejects_inconsistent_bit_budget(self):
        with pytest.raises(ValueError):
            DescriptorConfig(num_bits=256, seed_pairs=8, symmetry=16)

    def test_alternative_consistent_configuration(self):
        config = DescriptorConfig(num_bits=128, seed_pairs=4, symmetry=32)
        assert config.num_bytes == 16


class TestExtractorConfig:
    def test_default_image_shape_is_vga(self):
        config = ExtractorConfig()
        assert config.image_shape == (480, 640)
        assert config.max_features == 1024

    def test_default_backend_is_vectorized(self):
        assert ExtractorConfig().engine == "vectorized"

    def test_rejects_non_positive_max_features(self):
        with pytest.raises(ValueError):
            ExtractorConfig(max_features=0)
        with pytest.raises(ValueError):
            ExtractorConfig(max_features=-5)

    def test_rejects_non_positive_image_dimensions(self):
        with pytest.raises(ValueError):
            ExtractorConfig(image_width=0)
        with pytest.raises(ValueError):
            ExtractorConfig(image_height=-1)

    def test_rejects_empty_backend_name(self):
        with pytest.raises(ValueError):
            ExtractorConfig(engine="")

    def test_hwexact_requires_rs_brief(self):
        with pytest.raises(ValueError, match="RS-BRIEF"):
            ExtractorConfig(engine="hwexact", use_rs_brief=False)
        assert ExtractorConfig(engine="hwexact").use_rs_brief

    def test_three_engine_pairs(self):
        from repro.features import OrbExtractor

        assert ENGINES == ("reference", "vectorized", "hwexact")
        for name in ENGINES:
            extractor = OrbExtractor(ExtractorConfig(engine=name))
            assert extractor.engine.name == name


class TestRegistryErrorMessages:
    """Unknown engine names must list the available alternatives."""

    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(ValueError) as excinfo:
            ExtractorConfig(engine="nonexistent")
        message = str(excinfo.value)
        for name in ("hwexact", "reference", "vectorized"):
            assert name in message

    def test_unknown_frontend_suggests_closest_match(self):
        with pytest.raises(ValueError) as excinfo:
            ExtractorConfig(engine="vectorised")
        message = str(excinfo.value)
        assert "did you mean 'vectorized'?" in message
        assert "extraction engine" in message

    def test_shared_helper_formats_empty_registry(self):
        from repro.registry import unknown_name_message

        message = unknown_name_message("widget", "x", [])
        assert "unknown widget 'x'" in message
        assert "<none registered>" in message


class TestMatcherConfig:
    def test_defaults_valid(self):
        from repro.config import MatcherConfig

        config = MatcherConfig()
        assert config.max_hamming_distance == 64
        assert 0 < config.ratio_threshold <= 1

    def test_rejects_negative_max_distance(self):
        from repro.config import MatcherConfig

        with pytest.raises(ValueError):
            MatcherConfig(max_hamming_distance=-1)

    def test_rejects_ratio_outside_unit_interval(self):
        from repro.config import MatcherConfig

        with pytest.raises(ValueError):
            MatcherConfig(ratio_threshold=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(ratio_threshold=1.5)

    def test_ratio_of_exactly_one_allowed(self):
        from repro.config import MatcherConfig

        assert MatcherConfig(ratio_threshold=1.0).ratio_threshold == 1.0


class TestAcceleratorConfig:
    def test_clock_matches_paper(self):
        config = AcceleratorConfig()
        assert config.clock_hz == pytest.approx(100e6)

    def test_heap_capacity_default(self):
        assert AcceleratorConfig().heap_capacity == 1024


class TestCompositeConfigs:
    def test_slam_config_composes_defaults(self):
        config = SlamConfig()
        assert config.extractor.max_features == 1024
        assert config.tracker.min_matches > 0
        assert config.matcher.max_hamming_distance > 0

    def test_tracker_thresholds_positive(self):
        tracker = TrackerConfig()
        assert tracker.keyframe_translation_m > 0
        assert tracker.keyframe_rotation_rad > 0
