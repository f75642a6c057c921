"""Tests for the ORB Extractor datapath units (functional behaviour vs software)."""

import numpy as np
import pytest

from repro.config import DescriptorConfig, FastConfig
from repro.errors import HardwareModelError
from repro.features import (
    Keypoint,
    RsBriefDescriptorEngine,
    compute_orientation,
    fast_corner_mask,
)
from repro.hw.orb_extractor import (
    BriefComputingUnit,
    BriefRotatorUnit,
    FastDetectionUnit,
    FeatureHeapUnit,
    HeapEntry,
    ImageSmootherUnit,
    NmsUnit,
    OrientationUnit,
)
from repro.image import GrayImage, gaussian_blur, random_blocks


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

    def test_counts_windows(self):
        unit = FastDetectionUnit()
        unit.evaluate_window(np.zeros((7, 7)))
        unit.evaluate_window(np.zeros((7, 7)))
        assert unit.windows_evaluated == 2


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

    def test_multiplier_count(self):
        assert ImageSmootherUnit().multipliers_required() == 49

    def test_rejects_wrong_window(self):
        with pytest.raises(HardwareModelError):
            ImageSmootherUnit().smooth_window(np.zeros((3, 3)))


class TestNmsUnit:
    def test_center_maximum_survives(self):
        window = np.array([[1, 2, 3], [4, 9, 5], [6, 7, 8]], dtype=float)
        assert NmsUnit().is_local_maximum(window)

    def test_center_not_maximum_suppressed(self):
        window = np.array([[1, 2, 3], [4, 5, 9], [6, 7, 8]], dtype=float)
        assert not NmsUnit().is_local_maximum(window)

    def test_tie_with_earlier_neighbour_suppressed(self):
        window = np.zeros((3, 3))
        window[1, 1] = 5.0
        window[0, 0] = 5.0  # earlier in raster order wins
        assert not NmsUnit().is_local_maximum(window)

    def test_tie_with_later_neighbour_kept(self):
        window = np.zeros((3, 3))
        window[1, 1] = 5.0
        window[2, 2] = 5.0  # later in raster order loses
        assert NmsUnit().is_local_maximum(window)

    def test_nonpositive_center_rejected(self):
        window = np.zeros((3, 3))
        assert not NmsUnit().is_local_maximum(window)

    def test_window_shape_validated(self):
        with pytest.raises(HardwareModelError):
            NmsUnit().is_local_maximum(np.zeros((5, 5)))


class TestOrientationUnit:
    def test_matches_software_orientation(self, texture):
        smoothed = gaussian_blur(texture)
        unit = OrientationUnit()
        agreements = 0
        total = 0
        for y in range(20, 76, 5):
            for x in range(20, 76, 5):
                software_bin, _ = compute_orientation(smoothed, x, y, radius=15)
                patch = smoothed.patch(x, y, 15)
                hardware_bin = unit.orientation_bin(patch)
                total += 1
                # fixed-point v/u quantisation may move the angle across a bin
                # boundary; allow a one-bin difference but require it to be rare
                difference = min((software_bin - hardware_bin) % 32, (hardware_bin - software_bin) % 32)
                assert difference <= 1
                if difference == 0:
                    agreements += 1
        assert agreements / total > 0.9

    def test_uniform_patch_bin_zero(self):
        unit = OrientationUnit()
        assert unit.orientation_bin(np.full((31, 31), 90, dtype=np.uint8)) == 0

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
        unit = BriefComputingUnit(config)
        rotator = BriefRotatorUnit()
        for (x, y) in [(40, 40), (50, 60), (64, 30)]:
            orientation_bin, orientation_rad = compute_orientation(smoothed, x, y)
            keypoint = Keypoint(x, y, 1.0).with_orientation(orientation_bin, orientation_rad)
            software = engine.describe(smoothed, keypoint)
            patch = smoothed.patch(x, y, config.patch_radius)
            hardware = rotator.rotate(unit.describe(patch), orientation_bin)
            assert np.array_equal(software, hardware)

    def test_cycles_per_feature(self):
        unit = BriefComputingUnit(comparators_per_cycle=32)
        assert unit.cycles_per_feature() == pytest.approx(8.0)

    def test_patch_too_small_rejected(self):
        unit = BriefComputingUnit()
        with pytest.raises(HardwareModelError):
            unit.describe(np.zeros((7, 7), dtype=np.uint8))

    def test_rotator_validates_bin(self):
        with pytest.raises(HardwareModelError):
            BriefRotatorUnit().rotate(np.zeros(32, dtype=np.uint8), 32)

    def test_rotator_is_byte_roll(self):
        descriptor = np.arange(32, dtype=np.uint8)
        rotated = BriefRotatorUnit().rotate(descriptor, 3)
        assert np.array_equal(rotated, np.roll(descriptor, -3))


class TestFeatureHeapUnit:
    def _entry(self, score):
        return HeapEntry(x=0, y=0, level=0, score=score, descriptor=np.zeros(32, dtype=np.uint8))

    def test_keeps_best_scores(self):
        heap = FeatureHeapUnit(capacity=3)
        for score in (1.0, 5.0, 3.0, 7.0, 2.0):
            heap.offer(self._entry(score))
        retained_scores = [entry.score for entry in heap.retained()]
        assert retained_scores == [7.0, 5.0, 3.0]

    def test_insertion_cycles_logarithmic(self):
        assert FeatureHeapUnit(capacity=1024).insertion_cycles() == 11

    def test_cycle_breakdown_counts_offers(self):
        heap = FeatureHeapUnit(capacity=4)
        for score in range(10):
            heap.offer(self._entry(float(score)))
        breakdown = heap.cycle_breakdown()
        assert breakdown.components["heap.insert"] == 10 * heap.insertion_cycles()
        assert breakdown.components["heap.flush"] == 4
