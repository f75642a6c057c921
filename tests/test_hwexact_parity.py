"""hwexact parity: the quantized engine vs the scalar hardware walk.

The ``hwexact`` extraction engine runs the FPGA model's fixed-point
arithmetic batched over whole levels; the oracle of ``tests/hw_oracle.py``
drives the same arithmetic unit by unit (per-window FAST/Harris,
per-feature orientation and BRIEF, scalar heap offers).  These tests pin
down that the two are bit-identical — kernels first, then end to end, with
a one-LSB engine fault the end-to-end comparison must catch — that the
engine's detection reuses the ``vectorized`` FAST pass exactly, and that
the quantized engine runs full synthetic-TUM sequences through the SLAM
stack.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, FastConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.errors import HardwareModelError
from repro.engines import HwExactEngine
from repro.engines import hwexact as hwexact_module
from repro.features import (
    OrbExtractor,
    OrientationGrid,
    fast_corner_mask,
    intensity_centroids,
    suppress_keypoints_sparse,
)
from repro.image import GrayImage, checkerboard, random_blocks, within_border
from repro.quant import (
    HARRIS_SCORE_FORMAT,
    harris_scores_quantized,
    orientation_bins_quantized,
    quantization_overrides,
    quantize_gaussian_kernel,
    smooth_image_quantized,
)
from repro.quant.kernels import HARRIS_WINDOW_RADIUS
from repro.analysis import compare_float_vs_fixed_extraction, run_quantization_divergence

from hw_oracle import (
    FastDetectionUnit,
    ImageSmootherUnit,
    extract_quantized,
    harris_window_score_quantized,
    orientation_bin_from_patch_quantized,
    run_hwexact_parity,
)


def _config(**kwargs) -> ExtractorConfig:
    defaults = dict(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=100,
        engine="hwexact",
    )
    defaults.update(kwargs)
    return ExtractorConfig(**defaults)


@pytest.fixture(scope="module")
def texture():
    return random_blocks(120, 160, block=10, seed=7)


@pytest.fixture(scope="module")
def parity_images(texture):
    """The end-to-end parity inputs at the default 160x120 workload."""
    return [texture, random_blocks(120, 160, block=10, seed=21)]


class TestHwExactRegistry:
    def test_config_selects_hwexact_classes(self):
        extractor = OrbExtractor(_config())
        assert isinstance(extractor.engine, HwExactEngine)
        assert extractor.engine.name == "hwexact"

    def test_backend_requires_rs_brief(self):
        with pytest.raises(HardwareModelError):
            HwExactEngine(ExtractorConfig(use_rs_brief=False))

    def test_engine_construction(self):
        engine = HwExactEngine(_config())
        assert int(engine._kernel_fixed.sum()) == 256


def _dense_quantized_detect(image: GrayImage, fast: FastConfig):
    """hwexact detection composed from the dense reference FAST mask."""
    mask = fast_corner_mask(image, fast)
    ys, xs = np.nonzero(mask)
    xs, ys = xs.astype(np.int64), ys.astype(np.int64)
    inside = within_border(xs, ys, image.shape, HARRIS_WINDOW_RADIUS)
    xs, ys = xs[inside], ys[inside]
    scores = harris_scores_quantized(image, xs, ys).astype(np.float64)
    positive = scores > 0
    xs, ys, scores = xs[positive], ys[positive], scores[positive]
    keep = suppress_keypoints_sparse(xs, ys, scores, image.shape, radius=1)
    return xs[keep], ys[keep], scores[keep], int(mask.sum())


_FAST_REUSE_IMAGES = {
    "blocks": random_blocks(120, 160, block=10, seed=7),
    "checkerboard": checkerboard(96, 128, square=5),
}


class TestFastReuse:
    """hwexact detects with the vectorized FAST pass, exactly."""

    @pytest.mark.parametrize("threshold", [5, 20, 60])
    @pytest.mark.parametrize("border", [1, 2, 3, 16])
    @pytest.mark.parametrize("image_name", list(_FAST_REUSE_IMAGES))
    def test_matches_dense_mask_composition(self, image_name, border, threshold):
        image = _FAST_REUSE_IMAGES[image_name]
        fast = FastConfig(border=border, threshold=threshold)
        engine = HwExactEngine(ExtractorConfig(fast=fast))
        xs, ys, scores, corners = engine.detect_with_count(image)
        ref_xs, ref_ys, ref_scores, ref_corners = _dense_quantized_detect(image, fast)
        assert corners == ref_corners > 0
        assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)
        assert scores.tobytes() == ref_scores.tobytes()
        assert xs.size > 0


class TestQuantizedHarrisParity:
    def test_batched_matches_per_window_unit(self, texture):
        unit = FastDetectionUnit()
        rng = np.random.default_rng(3)
        xs = rng.integers(3, 157, 200).astype(np.int64)
        ys = rng.integers(3, 117, 200).astype(np.int64)
        batched = harris_scores_quantized(texture, xs, ys)
        for index in range(xs.size):
            x, y = int(xs[index]), int(ys[index])
            window = texture.pixels[y - 3 : y + 4, x - 3 : x + 4]
            assert int(batched[index]) == harris_window_score_quantized(window)
            # the unit's corner score is the same kernel
            is_corner, score = unit.evaluate_window(window)
            if is_corner:
                assert score == float(batched[index])

    def test_score_shift_override_reaches_both_forms(self, texture):
        xs = np.arange(10, 150, 7, dtype=np.int64)
        ys = np.full(xs.size, 60, dtype=np.int64)
        windows = [texture.pixels[57:64, x - 3 : x + 4] for x in xs.tolist()]
        default = [harris_window_score_quantized(window) for window in windows]
        with quantization_overrides(harris_score_shift=20):
            batched = harris_scores_quantized(texture, xs, ys).tolist()
            per_window = [harris_window_score_quantized(window) for window in windows]
        assert batched == per_window
        assert per_window != default

    def test_score_register_never_saturates(self):
        # worst-case windows: extreme alternating patterns stay inside Q24.0
        # (the HARRIS_SCORE_SHIFT rescale is chosen so clipping cannot occur)
        patterns = [
            np.tile([[0, 255]], (7, 4))[:, :7],
            np.tile([[255, 0]], (7, 4))[:, :7],
            np.tile([[0], [255]], (4, 7))[:7, :],
            np.indices((7, 7)).sum(axis=0) * 36,
        ]
        limit = int(HARRIS_SCORE_FORMAT.max_value)
        for window in patterns:
            score = harris_window_score_quantized(window)
            assert -(limit + 1) < score <= limit
            assert abs(score) < limit  # strictly inside: nothing was clipped

    def test_out_of_bounds_points_rejected(self, texture):
        with pytest.raises(HardwareModelError):
            harris_scores_quantized(texture, np.array([1]), np.array([50]))


class TestQuantizedSmootherParity:
    def test_image_matches_window_by_window(self):
        image = random_blocks(48, 64, block=6, seed=5)
        unit = ImageSmootherUnit()
        smoothed = unit.smooth_image(image)
        for y in range(3, 45, 3):
            for x in range(3, 61, 4):
                window = image.pixels[y - 3 : y + 4, x - 3 : x + 4]
                assert int(smoothed.pixels[y, x]) == unit.smooth_window(window)

    def test_constant_image_unchanged(self):
        unit = ImageSmootherUnit()
        flat = unit.smooth_image(GrayImage.full(32, 32, 93))
        assert np.all(flat.pixels == 93)


def _smooth_taps_oracle(pixels: np.ndarray, kernel_fixed: np.ndarray, weight_bits: int):
    """Every tap of the kernel, one int64 multiply-add each, over the padded image."""
    half = kernel_fixed.shape[0] // 2
    height, width = pixels.shape
    padded = np.pad(pixels.astype(np.int64), half, mode="edge")
    accumulator = np.zeros((height, width), dtype=np.int64)
    for row, col in np.ndindex(*kernel_fixed.shape):
        accumulator += int(kernel_fixed[row, col]) * padded[row : row + height, col : col + width]
    return np.clip(accumulator >> weight_bits, 0, 255).astype(np.uint8)


class TestBandedQuantizedSmoother:
    @pytest.mark.parametrize("weight_bits", [8, 12])
    @pytest.mark.parametrize("height", [1, 2, 3, 6, 7, 63, 64, 65, 130])
    def test_band_edges_match_per_tap_accumulation(self, height, weight_bits):
        # 2**8 weights accumulate in uint16, 2**12 ones in uint32
        kernel_fixed = quantize_gaussian_kernel(7, 2.0, weight_bits)
        rng = np.random.default_rng(height)
        for width in (1, 2, 7, 33):
            for pixels in (
                rng.integers(0, 256, (height, width), dtype=np.uint8),
                rng.integers(0, 2, (height, width)).astype(np.uint8) * 255,
            ):
                smoothed = smooth_image_quantized(GrayImage(pixels), kernel_fixed, weight_bits)
                expected = _smooth_taps_oracle(pixels, kernel_fixed, weight_bits)
                assert np.array_equal(smoothed.pixels, expected)

    def test_rejects_negative_weight(self):
        kernel_fixed = quantize_gaussian_kernel()
        kernel_fixed[0, 0] = -1
        with pytest.raises(HardwareModelError):
            smooth_image_quantized(GrayImage.full(8, 8, 255), kernel_fixed)


class TestQuantizedOrientationParity:
    def test_batched_matches_per_patch_unit(self, texture):
        engine = HwExactEngine(_config())
        smoothed = engine.smooth(texture)
        xs, ys = np.meshgrid(np.arange(20, 140, 7), np.arange(20, 100, 7))
        xs = xs.ravel().astype(np.int64)
        ys = ys.ravel().astype(np.int64)
        us, vs = intensity_centroids(smoothed, xs, ys, OrientationGrid.build(15))
        bins = orientation_bins_quantized(us, vs)
        for index in range(xs.size):
            patch = smoothed.patch(int(xs[index]), int(ys[index]), 15)
            assert int(bins[index]) == orientation_bin_from_patch_quantized(patch)

    def test_axis_aligned_and_degenerate_centroids(self):
        us = np.array([0.0, 0.0, 0.0, 5.0, -5.0, 1e-13])
        vs = np.array([0.0, 4.0, -4.0, 0.0, 0.0, 1e-13])
        bins = orientation_bins_quantized(us, vs)
        assert bins.tolist() == [0, 8, 24, 0, 16, 0]


class TestEndToEndParity:
    def test_engine_pair_bit_identical_to_hw_model(self, parity_images):
        report = run_hwexact_parity(parity_images, _config())
        assert report["bit_identical"]
        assert all(row["engine_features"] > 50 for row in report["rows"])

    def test_parity_harness_reports_bit_identical(self):
        report = run_hwexact_parity(
            images=[random_blocks(96, 128, block=9, seed=31)],
            config=_config(image_width=128, image_height=96, max_features=80),
        )
        assert report["bit_identical"]
        assert report["total_mismatches"] == 0
        assert report["rows"][0]["engine_features"] > 30

    def test_parity_catches_one_lsb_engine_harris_fault(self, parity_images, monkeypatch):
        """The mutant: the engine's best level-0 score is 1 LSB higher, the
        oracle is untouched, and the comparison must report it."""
        faulty_calls = []

        def one_lsb_high(image, xs, ys):
            scores = harris_scores_quantized(image, xs, ys)
            if not faulty_calls:
                scores[np.argmax(scores)] += 1
            faulty_calls.append(xs.size)
            return scores

        monkeypatch.setattr(hwexact_module, "harris_scores_quantized", one_lsb_high)
        report = run_hwexact_parity(parity_images, _config())
        assert faulty_calls
        assert not report["bit_identical"]
        assert report["total_mismatches"] == 1

    def test_hw_model_rejects_partial_windows(self):
        config = _config(fast=FastConfig(border=2))
        with pytest.raises(HardwareModelError):
            extract_quantized(random_blocks(64, 64, block=6, seed=1), config)

    def test_quantized_scores_are_integers(self, texture):
        result = OrbExtractor(_config()).extract(texture)
        scores = result.feature_arrays().scores
        assert np.all(scores == np.rint(scores))
        assert np.all(scores > 0)
        assert float(scores.max()) <= HARRIS_SCORE_FORMAT.max_value


class TestHwExactAtScale:
    """Full synthetic-TUM sequences through SlamSystem."""

    @pytest.fixture(scope="class")
    def slam_config(self):
        return SlamConfig(
            extractor=_config(max_features=150),
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )

    def test_slam_system_runs_end_to_end(self, slam_config):
        sequence = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
        )
        from repro.slam import SlamSystem

        result = SlamSystem(slam_config).run(sequence)
        assert result.num_frames == 5
        assert result.tracking_success_ratio > 0.5
        assert np.isfinite(result.ate().mean_cm)

    def test_sequence_sweep_shares_one_quantized_engine(self, slam_config):
        from repro.slam import SlamSystem

        extractor = OrbExtractor(slam_config.extractor)
        errors_cm = []
        for name in ("fr1/xyz", "fr2/rpy"):
            spec = SequenceSpec(name=name, num_frames=3, image_width=160, image_height=120)
            run = SlamSystem(slam_config, extractor=extractor).run(make_sequence(spec))
            errors_cm.append(run.ate().mean_cm)
        assert extractor.engine.name == "hwexact"
        assert all(np.isfinite(error) for error in errors_cm)


class TestQuantizationDivergence:
    def test_extraction_divergence_metrics(self, texture):
        metrics = compare_float_vs_fixed_extraction(texture, _config())
        assert metrics["float_features"] > 50
        assert metrics["fixed_features"] > 50
        # the quantized detector must still land near the float detector
        assert metrics["fixed_coverage_1px"] > 0.5
        assert metrics["float_coverage_1px"] > 0.5
        assert 0.0 <= metrics["descriptor_identical_ratio"] <= 1.0
        assert metrics["descriptor_mean_hamming_bits"] < 64.0

    def test_divergence_harness_trajectories(self):
        report = run_quantization_divergence(num_frames=5)
        assert report["float"]["tracking_success_ratio"] > 0.5
        assert report["fixed"]["tracking_success_ratio"] > 0.5
        assert np.isfinite(report["fixed"]["ate_mean_cm"])
        assert np.isfinite(report["trajectory_divergence_rmse_cm"])
        # the paper's claim: fixed-point arithmetic preserves accuracy to the
        # same order of magnitude as the float pipeline
        assert report["fixed"]["ate_mean_cm"] < 10.0 * max(
            1.0, report["float"]["ate_mean_cm"]
        )
