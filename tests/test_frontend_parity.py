"""Detection parity: the vectorized engine's front end must be bit-identical.

The ``vectorized`` engine's detection and smoothing replace the dense per-stage front-end
(full corner map, full Harris map, per-survivor NMS tie-break loop) with a
fused bit-sliced-FAST / sparse-Harris / loop-free-NMS pass.  These tests pin down
that it is a pure reformulation — same corner sets, same Harris scores (to
the bit), same NMS survivors including tie chains, same retained features
for both workflow orders — on randomized synthetic images.  They also
cover engine selection by name.
"""

import numpy as np
import pytest

from repro.config import ENGINES, ExtractorConfig, FastConfig, PyramidConfig
from repro.errors import FeatureError
from repro.features import (
    OrbExtractor,
    fast_corner_mask,
    harris_response_map,
    harris_scores_sparse,
    non_maximum_suppression,
    suppress_keypoints_sparse,
)
from repro.features.fast import segment_arc_network
from repro.engines import HwExactEngine, ReferenceEngine, VectorizedEngine
from repro.image import GrayImage, checkerboard, gaussian_blur, random_blocks


def _config(engine: str, width: int = 160, height: int = 120, **kwargs) -> ExtractorConfig:
    defaults = dict(
        image_width=width,
        image_height=height,
        pyramid=PyramidConfig(num_levels=2),
        max_features=100,
    )
    defaults.update(kwargs)
    return ExtractorConfig(engine=engine, **defaults)


@pytest.fixture(scope="module")
def engines():
    config = ExtractorConfig()
    return ReferenceEngine(config), VectorizedEngine(config)


_ENGINE_CLASSES = {
    "reference": ReferenceEngine,
    "vectorized": VectorizedEngine,
    "hwexact": HwExactEngine,
}


class TestEngineRegistry:
    """Engine selection: each engine name builds the engine of that name."""

    def test_builtin_engines_registered(self):
        for name in ENGINES:
            assert OrbExtractor(ExtractorConfig(engine=name)).engine.name == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig(engine="nonexistent")

    def test_config_selects_engine_class(self):
        for name, engine_class in _ENGINE_CLASSES.items():
            assert type(OrbExtractor(ExtractorConfig(engine=name)).engine) is engine_class
        assert type(OrbExtractor().engine) is VectorizedEngine  # the default

    def test_invalid_frontend_config_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig(engine="")


class TestArcNetwork:
    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "bool"])
    def test_every_mask_every_arc_length(self, packed):
        # all 65536 ring masks, every arc length, against a literal
        # wrap-around run counter; packed planes hold 8 masks per byte
        masks = np.arange(1 << 16)
        bits = ((masks[None, :] >> np.arange(16)[:, None]) & 1).astype(bool)
        planes = np.packbits(bits, axis=1) if packed else bits
        for arc_length in range(1, 17):
            doubled = np.concatenate([bits, bits[: arc_length - 1]])
            run = np.zeros(masks.size, dtype=np.int64)
            expected = np.zeros(masks.size, dtype=bool)
            for flags in doubled:
                run = np.where(flags, run + 1, 0)
                expected |= run >= arc_length
            arcs = segment_arc_network(planes, arc_length)
            if packed:
                arcs = np.unpackbits(arcs, count=masks.size).astype(bool)
            assert np.array_equal(arcs, expected), arc_length

    def test_rejects_bad_arguments(self):
        planes = np.zeros((16, 4), dtype=np.uint8)
        for arc_length in (0, 17):
            with pytest.raises(FeatureError):
                segment_arc_network(planes, arc_length)
        with pytest.raises(FeatureError):
            segment_arc_network(planes[:15], 9)


class TestFastParity:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("threshold", [10, 20, 45])
    def test_corner_sets_match_dense_mask(self, seed, threshold):
        image = random_blocks(120, 160, block=9, seed=seed)
        config = ExtractorConfig(fast=FastConfig(threshold=threshold))
        xs, ys = VectorizedEngine(config)._fast_corners(image)
        mask = fast_corner_mask(image, config.fast)
        ref_ys, ref_xs = np.nonzero(mask)
        assert np.array_equal(xs, ref_xs)
        assert np.array_equal(ys, ref_ys)

    def test_candidate_dense_image_matches(self):
        # uniform noise at threshold 1: most of the inner box is a candidate
        rng = np.random.default_rng(3)
        image = GrayImage(rng.integers(0, 256, (96, 128), dtype=np.uint8))
        config = ExtractorConfig(fast=FastConfig(threshold=1))
        xs, ys = VectorizedEngine(config)._fast_corners(image)
        ref_ys, ref_xs = np.nonzero(fast_corner_mask(image, config.fast))
        assert np.array_equal(xs, ref_xs)
        assert np.array_equal(ys, ref_ys)

    @pytest.mark.parametrize("arc_length", [1, 5, 9, 12, 16])
    @pytest.mark.parametrize("border", [3, 4, 16])
    def test_inner_widths_off_the_byte_grid(self, border, arc_length):
        # inner widths that are not multiples of 8 leave a partial last byte
        # in every packed plane; its padding bits must never become corners
        found = 0
        for inner_width in (1, 7, 13, 37):
            shape = (2 * border + 19, 2 * border + inner_width)
            image = random_blocks(shape[0], shape[1], block=3, seed=inner_width)
            for threshold in (0, 1, 20, 250):
                fast = FastConfig(threshold=threshold, arc_length=arc_length, border=border)
                xs, ys = VectorizedEngine(ExtractorConfig(fast=fast))._fast_corners(image)
                ref_ys, ref_xs = np.nonzero(fast_corner_mask(image, fast))
                assert np.array_equal(xs, ref_xs), (inner_width, threshold)
                assert np.array_equal(ys, ref_ys), (inner_width, threshold)
                found += xs.size
        assert found > 0

    def test_checkerboard_and_flat_images(self):
        config = ExtractorConfig()
        engine = VectorizedEngine(config)
        board = checkerboard(96, 96, square=12)
        xs, ys = engine._fast_corners(board)
        assert xs.size == int(fast_corner_mask(board, config.fast).sum())
        flat = GrayImage.full(64, 64, 100)
        xs, ys = engine._fast_corners(flat)
        assert xs.size == 0


class TestSparseHarrisParity:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_bit_identical_to_response_map(self, seed):
        image = random_blocks(120, 160, block=10, seed=seed)
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 160, 300).astype(np.int64)
        ys = rng.integers(0, 120, 300).astype(np.int64)
        sparse = harris_scores_sparse(image, xs, ys)
        dense = harris_response_map(image)[ys, xs]
        assert sparse.tobytes() == dense.tobytes()

    def test_border_points_included(self, blocks_image):
        # clipped windows at the image edge must match the padded dense path
        edge_points = [(0, 0), (159, 0), (0, 119), (159, 119), (1, 2), (158, 117)]
        xs = np.array([p[0] for p in edge_points])
        ys = np.array([p[1] for p in edge_points])
        sparse = harris_scores_sparse(blocks_image, xs, ys)
        dense = harris_response_map(blocks_image)[ys, xs]
        assert sparse.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("block_radius", [1, 2, 3, 4])
    def test_edges_corners_and_single_points(self, block_radius):
        # windows that leave the level on each side, alone and together, so
        # the cropped box is edge-replicated on every side it crosses
        height, width = 37, 53
        image = random_blocks(height, width, block=4, seed=block_radius)
        dense = harris_response_map(image, block_radius=block_radius)
        near = range(block_radius + 2)
        points = (
            [(x, y) for x in near for y in near]
            + [(width - 1 - x, y) for x in near for y in near]
            + [(x, height - 1 - y) for x in near for y in near]
            + [(width - 1 - x, height - 1 - y) for x in near for y in near]
            + [(26, 0), (26, height - 1), (0, 18), (width - 1, 18), (26, 18)]
        )
        xs = np.array([p[0] for p in points], dtype=np.int64)
        ys = np.array([p[1] for p in points], dtype=np.int64)
        sparse = harris_scores_sparse(image, xs, ys, block_radius=block_radius)
        assert sparse.tobytes() == dense[ys, xs].tobytes()
        for x, y in points:
            single = harris_scores_sparse(
                image, np.array([x]), np.array([y]), block_radius=block_radius
            )
            assert single.tobytes() == dense[y : y + 1, x].tobytes(), (x, y)

    def test_wide_windows_sum_without_wrapping(self):
        # period-4 stripes give |gx| = 4*255 at every pixel, so one 47x47
        # window of gx**2 exceeds 2**31 and must be summed in int64; 45x45
        # is the widest window that fits int32
        image = GrayImage(np.tile(np.array([0, 0, 255, 255], dtype=np.uint8), (60, 20)))
        xs = np.array([30, 41, 0, 79])
        ys = np.array([30, 20, 59, 0])
        for block_radius in (22, 23):
            sparse = harris_scores_sparse(image, xs, ys, block_radius=block_radius)
            dense = harris_response_map(image, block_radius=block_radius)[ys, xs]
            assert sparse.tobytes() == dense.tobytes(), block_radius

    def test_scores_at_matches_response_map(self, blocks_image):
        xs, ys = np.array([20, 40, 0, 159]), np.array([30, 50, 0, 119])
        scores = harris_scores_sparse(blocks_image, xs, ys)
        assert scores.tolist() == harris_response_map(blocks_image)[ys, xs].tolist()

    def test_rejects_outside_points(self, blocks_image):
        with pytest.raises(FeatureError):
            harris_scores_sparse(blocks_image, np.array([1000]), np.array([10]))

    def test_empty_points(self, blocks_image):
        assert harris_scores_sparse(blocks_image, np.zeros(0), np.zeros(0)).size == 0


class TestSparseNmsParity:
    def _dense_keep(self, xs, ys, scores, shape, radius=1):
        corner = np.zeros(shape, dtype=bool)
        score_map = np.full(shape, -np.inf)
        corner[ys, xs] = True
        score_map[ys, xs] = scores
        keep_map = non_maximum_suppression(corner, score_map, radius=radius)
        return keep_map[ys, xs]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", [1, 2])
    def test_random_corners_with_forced_ties(self, seed, radius):
        rng = np.random.default_rng(seed)
        shape = (48, 64)
        count = 160
        flat = rng.choice(shape[0] * shape[1], size=count, replace=False)
        ys, xs = np.divmod(flat, shape[1])
        # quantized scores force plenty of exact ties, incl. tie chains
        scores = rng.integers(0, 4, count).astype(np.float64)
        keep = suppress_keypoints_sparse(xs, ys, scores, shape, radius=radius)
        assert np.array_equal(keep, self._dense_keep(xs, ys, scores, shape, radius))

    def test_tie_chain_resurrection(self):
        # A kills B, so C (B's neighbour) survives — the sequential raster
        # semantics the vectorised rounds must reproduce
        xs = np.array([3, 4, 5])
        ys = np.array([3, 3, 3])
        scores = np.array([5.0, 5.0, 5.0])
        keep = suppress_keypoints_sparse(xs, ys, scores, (8, 8), radius=1)
        assert keep.tolist() == [True, False, True]
        assert np.array_equal(keep, self._dense_keep(xs, ys, scores, (8, 8)))

    def test_unsorted_input_raster_tie_break(self):
        # raster-first wins regardless of the input order (lexsort path)
        xs = np.array([4, 3])
        ys = np.array([3, 3])
        scores = np.array([7.0, 7.0])
        keep = suppress_keypoints_sparse(xs, ys, scores, (8, 8), radius=1)
        assert keep.tolist() == [False, True]

    def test_validation(self):
        with pytest.raises(FeatureError):
            suppress_keypoints_sparse(np.array([1]), np.array([1]), np.array([1.0, 2.0]), (8, 8))
        with pytest.raises(FeatureError):
            suppress_keypoints_sparse(np.array([9]), np.array([1]), np.array([1.0]), (8, 8))
        with pytest.raises(FeatureError):
            suppress_keypoints_sparse(
                np.array([1]), np.array([1]), np.array([1.0]), (8, 8), radius=0
            )
        assert suppress_keypoints_sparse(
            np.zeros(0), np.zeros(0), np.zeros(0), (8, 8)
        ).size == 0


class TestEngineParity:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_detect_bit_identical(self, engines, seed):
        reference, vectorized = engines
        image = random_blocks(240, 320, block=11, seed=seed)
        ref = reference.detect_with_count(image)
        vec = vectorized.detect_with_count(image)
        assert ref[3] == vec[3]  # corner counts
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(ref[1], vec[1])
        assert ref[2].tobytes() == vec[2].tobytes()  # scores, to the bit
        assert ref[0].size > 50  # the scene must actually exercise the path

    def test_smooth_bit_identical(self, engines):
        reference, vectorized = engines
        for seed, shape in ((0, (120, 160)), (1, (75, 99)), (2, (33, 47))):
            image = random_blocks(shape[0], shape[1], block=7, seed=seed)
            assert np.array_equal(
                reference.smooth(image).pixels, vectorized.smooth(image).pixels
            )
            assert np.array_equal(
                vectorized.smooth(image).pixels, gaussian_blur(image).pixels
            )

    @pytest.mark.parametrize("saturated", [False, True], ids=["random", "saturated"])
    @pytest.mark.parametrize("height", [1, 2, 3, 6, 7, 63, 64, 65, 130])
    def test_smooth_band_edges_bit_identical(self, engines, height, saturated):
        # levels shorter than the 7-tap kernel, than one 64-row band, and a
        # band boundary one row either side
        _, vectorized = engines
        rng = np.random.default_rng(height)
        for width in (1, 2, 7, 33):
            if saturated:
                pixels = rng.integers(0, 2, (height, width)).astype(np.uint8) * 255
            else:
                pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
            image = GrayImage(pixels)
            assert np.array_equal(vectorized.smooth(image).pixels, gaussian_blur(image).pixels)

    def test_workspace_reuse_across_level_sizes(self):
        # one engine instance fed shrinking and growing level sizes: every
        # call allocates its own arrays, so no call may see another's shape
        config = ExtractorConfig()
        vectorized = VectorizedEngine(config)
        reference = ReferenceEngine(config)
        for shape in ((240, 320), (96, 128), (200, 264), (54, 76)):
            image = random_blocks(shape[0], shape[1], block=8, seed=shape[1])
            ref = reference.detect_with_count(image)
            vec = vectorized.detect_with_count(image)
            assert np.array_equal(ref[0], vec[0])
            assert ref[2].tobytes() == vec[2].tobytes()
            assert np.array_equal(
                reference.smooth(image).pixels, vectorized.smooth(image).pixels
            )

    def test_small_border_falls_back_to_dense(self):
        config = ExtractorConfig(fast=FastConfig(border=2))
        vectorized = VectorizedEngine(config)
        reference = ReferenceEngine(config)
        image = random_blocks(64, 64, block=6, seed=9)
        ref = reference.detect_with_count(image)
        vec = vectorized.detect_with_count(image)
        assert np.array_equal(ref[0], vec[0])
        assert ref[2].tobytes() == vec[2].tobytes()


class TestEndToEndParity:
    @pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
    def test_bit_identical_extraction(self, rescheduled):
        image = random_blocks(120, 160, block=10, seed=7)
        reference = OrbExtractor(
            _config("reference", rescheduled_workflow=rescheduled)
        ).extract(image)
        vectorized = OrbExtractor(
            _config("vectorized", rescheduled_workflow=rescheduled)
        ).extract(image)
        assert len(reference.features) == len(vectorized.features)
        assert len(reference.features) > 50
        for ref, vec in zip(reference.features, vectorized.features):
            assert (ref.keypoint.level, ref.keypoint.x, ref.keypoint.y) == (
                vec.keypoint.level,
                vec.keypoint.x,
                vec.keypoint.y,
            )
            # bit-exact: == on the raw floats, not approx
            assert ref.keypoint.score == vec.keypoint.score
            assert ref.keypoint.orientation_rad == vec.keypoint.orientation_rad
            assert ref.descriptor.tobytes() == vec.descriptor.tobytes()
            assert (ref.x0, ref.y0) == (vec.x0, vec.y0)

    @pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
    def test_identical_profiles(self, rescheduled):
        """The workload counters feeding the hardware models must not drift."""
        image = random_blocks(120, 160, block=10, seed=7)
        reference = OrbExtractor(
            _config("reference", rescheduled_workflow=rescheduled)
        ).extract(image)
        vectorized = OrbExtractor(
            _config("vectorized", rescheduled_workflow=rescheduled)
        ).extract(image)
        assert vars(reference.profile) == vars(vectorized.profile)


class TestFrontendSpeedup:
    def test_vectorized_front_end_at_least_2x_reference(self):
        """A modest tier-1 bar; the >=4x VGA bar lives in the benchmark.

        The true ratio is ~4-5x at VGA and ~3-4x at quarter resolution, so
        2x leaves ample headroom for machine noise.
        """
        import time

        config = ExtractorConfig(image_width=320, image_height=240)
        image = random_blocks(240, 320, block=12, seed=4)
        timings = {}
        for engine_class in (ReferenceEngine, VectorizedEngine):
            engine = engine_class(config)
            engine.detect_with_count(image)
            engine.smooth(image)  # warm-up
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                engine.detect_with_count(image)
                engine.smooth(image)
                best = min(best, time.perf_counter() - start)
            timings[engine.name] = best
        assert timings["reference"] / timings["vectorized"] >= 2.0
