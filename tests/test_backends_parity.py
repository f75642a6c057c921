"""Describe parity: the vectorized engine must be bit-identical to reference.

The ``vectorized`` engine's orientation and description replace
per-keypoint Python call chains with whole-level array passes; these tests
pin down that it is a pure reformulation — same retained features, same
orientations (to the bit), same descriptors and same operation counts — for
both workflow orders and both descriptor modes.  They also cover the
describe border contract, describe-side engine selection, the heap filter's
equivalence to streaming heap offers and the batch-aware SLAM frame APIs.
"""

import numpy as np
import pytest

from repro.config import ENGINES, ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.engines import HwExactEngine, ReferenceEngine, VectorizedEngine
from repro.errors import FeatureError
from repro.features import BoundedScoreHeap, OrbExtractor, select_top
from repro.image import gaussian_blur, random_blocks, within_border


def _config(engine: str, use_rs_brief: bool, rescheduled: bool) -> ExtractorConfig:
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=100,
        use_rs_brief=use_rs_brief,
        rescheduled_workflow=rescheduled,
        engine=engine,
    )


@pytest.fixture(scope="module")
def parity_image():
    return random_blocks(120, 160, block=10, seed=7)


class TestBackendParity:
    @pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
    @pytest.mark.parametrize("use_rs_brief", [True, False], ids=["rs_brief", "orb_brief"])
    def test_bit_identical_extraction(self, parity_image, use_rs_brief, rescheduled):
        reference = OrbExtractor(_config("reference", use_rs_brief, rescheduled)).extract(
            parity_image
        )
        vectorized = OrbExtractor(_config("vectorized", use_rs_brief, rescheduled)).extract(
            parity_image
        )
        assert len(reference.features) == len(vectorized.features)
        assert len(reference.features) > 50  # the scene must actually exercise the path
        for ref, vec in zip(reference.features, vectorized.features):
            assert (ref.keypoint.level, ref.keypoint.x, ref.keypoint.y) == (
                vec.keypoint.level,
                vec.keypoint.x,
                vec.keypoint.y,
            )
            assert ref.keypoint.orientation_bin == vec.keypoint.orientation_bin
            # bit-exact: == on the raw float, not approx
            assert ref.keypoint.orientation_rad == vec.keypoint.orientation_rad
            assert ref.descriptor.tobytes() == vec.descriptor.tobytes()
            assert ref.score == vec.score
            assert (ref.x0, ref.y0) == (vec.x0, vec.y0)

    @pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
    @pytest.mark.parametrize("use_rs_brief", [True, False], ids=["rs_brief", "orb_brief"])
    def test_identical_profiles(self, parity_image, use_rs_brief, rescheduled):
        """The workload counters feeding the hardware models must not drift."""
        reference = OrbExtractor(_config("reference", use_rs_brief, rescheduled)).extract(
            parity_image
        )
        vectorized = OrbExtractor(_config("vectorized", use_rs_brief, rescheduled)).extract(
            parity_image
        )
        assert vars(reference.profile) == vars(vectorized.profile)

    def test_batch_level_parity(self, parity_image):
        """Engine-level check: same DescribedBatch contents on raw candidates."""
        config = _config("vectorized", True, True)
        smoothed = gaussian_blur(parity_image)
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 160, 64).astype(np.int64)
        ys = rng.integers(0, 120, 64).astype(np.int64)
        inside = within_border(xs, ys, smoothed.shape, config.descriptor.patch_radius)
        xs, ys, scores = xs[inside], ys[inside], rng.random(64)[inside]
        assert xs.size > 10  # the scene must actually exercise the path
        ref = ReferenceEngine(config).describe(smoothed, xs, ys, scores)
        vec = VectorizedEngine(config).describe(smoothed, xs, ys, scores)
        assert ref.size == vec.size == xs.size
        assert np.array_equal(ref.xs, vec.xs) and np.array_equal(ref.ys, vec.ys)
        assert np.array_equal(ref.orientation_bins, vec.orientation_bins)
        assert ref.orientation_rads.tobytes() == vec.orientation_rads.tobytes()
        assert np.array_equal(ref.descriptors, vec.descriptors)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_border_keypoint_raises(self, parity_image, engine):
        """``describe`` never drops a keypoint: one patch off the level raises."""
        extractor = OrbExtractor(_config(engine, True, True))
        smoothed = extractor.engine.smooth(parity_image)
        radius = extractor.config.descriptor.patch_radius
        xs = np.array([80, 60, radius - 1], dtype=np.int64)
        ys = np.array([60, 50, 60], dtype=np.int64)
        scores = np.ones(3)
        assert extractor.engine.describe(smoothed, xs[:2], ys[:2], scores[:2]).size == 2
        assert extractor.engine.describe(smoothed, xs[:0], ys[:0], scores[:0]).size == 0
        with pytest.raises(FeatureError):
            extractor.engine.describe(smoothed, xs, ys, scores)


class TestBackendRegistry:
    """Describe-side selection: the engine built by name describes as its class."""

    def test_builtin_backends_registered(self, parity_image):
        xs = np.array([80, 60], dtype=np.int64)
        ys = np.array([60, 50], dtype=np.int64)
        for name in ENGINES:
            config = _config(name, True, True)
            engine = OrbExtractor(config).engine
            assert engine.name == name
            batch = engine.describe(engine.smooth(parity_image), xs, ys, np.ones(2))
            assert batch.descriptors.shape == (2, config.descriptor.num_bytes)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig(engine="nonexistent")

    def test_config_selects_backend_class(self, parity_image):
        classes = {
            "reference": ReferenceEngine,
            "vectorized": VectorizedEngine,
            "hwexact": HwExactEngine,
        }
        xs = np.array([80, 60, 100], dtype=np.int64)
        ys = np.array([60, 50, 40], dtype=np.int64)
        scores = np.ones(3)
        for name, engine_class in classes.items():
            config = _config(name, True, True)
            selected = OrbExtractor(config).engine
            direct = engine_class(config)
            assert type(selected) is engine_class
            smoothed = direct.smooth(parity_image)
            got = selected.describe(smoothed, xs, ys, scores)
            want = direct.describe(smoothed, xs, ys, scores)
            assert np.array_equal(got.descriptors, want.descriptors)
            assert np.array_equal(got.orientation_bins, want.orientation_bins)
        assert type(OrbExtractor().engine) is VectorizedEngine  # the default


def _heap_replay(scores, capacity):
    """Offer ``scores`` to a streaming heap one at a time, in order."""
    heap = BoundedScoreHeap(capacity=capacity)
    for index, score in enumerate(scores):
        heap.offer(float(score), index)
    return heap.items_by_score(), vars(heap.stats)


_SELECT_TOP_CASES = {
    "random": (np.random.default_rng(3).random(2000), 300),
    "integer-ties": (np.random.default_rng(4).integers(0, 6, 1500).astype(np.float64), 100),
    "ascending": (np.arange(1200, dtype=np.float64), 64),
    "descending": (np.arange(1200, 0, -1).astype(np.float64), 64),
    "n=0": (np.zeros(0), 10),
    "n<N": (np.random.default_rng(5).random(7), 10),
    "n=N": (np.random.default_rng(6).random(10), 10),
    "capacity-1": (np.random.default_rng(7).random(600), 1),
    "all-equal": (np.full(3000, 5.0), 1024),
    "all-equal n<N": (np.full(9, 5.0), 16),
    "all-equal capacity-1": (np.full(100, 5.0), 1),
}


class TestHeapFilter:
    """``select_top`` is the closed form of streaming offers to the heap."""

    @pytest.mark.parametrize("case", list(_SELECT_TOP_CASES))
    def test_select_top_matches_sequential_heap(self, case):
        scores, capacity = _SELECT_TOP_CASES[case]
        rows, stats = select_top(scores, capacity)
        items, heap_stats = _heap_replay(scores, capacity)
        assert rows.tolist() == items
        assert vars(stats) == heap_stats

    def test_select_top_validates_input(self):
        with pytest.raises(FeatureError):
            select_top(np.ones((2, 2)), 2)
        with pytest.raises(FeatureError):
            select_top(np.ones(3), 0)

    @pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_frame_filter_matches_heap_replay(self, parity_image, engine, rescheduled):
        """A frame keeps, in order, what the heap keeps of its detected scores,
        and describes exactly those keypoints, in both workflows."""
        extractor = OrbExtractor(_config(engine, True, rescheduled))
        offered = []
        described = []
        detect = extractor._detect_level_candidates
        describe = extractor.engine.describe

        def recording_detect(*args):
            candidates = detect(*args)
            offered.append(candidates[2])
            return candidates

        def recording_describe(smoothed, xs, ys, scores):
            described.append(sorted(zip(xs.tolist(), ys.tolist())))
            return describe(smoothed, xs, ys, scores)

        extractor._detect_level_candidates = recording_detect
        extractor.engine.describe = recording_describe
        result = extractor.extract(parity_image)
        offers = np.concatenate(offered)
        items, heap_stats = _heap_replay(offers, extractor.config.max_features)
        assert result.feature_arrays().scores.tolist() == offers[items].tolist()
        # one describe call per level that keeps a feature, on exactly the
        # features that level keeps
        arrays = result.feature_arrays()
        retained = []
        for level in np.unique(arrays.levels):
            kept = arrays.levels == level
            retained.append(sorted(zip(arrays.xs[kept].tolist(), arrays.ys[kept].tolist())))
        assert described == retained
        assert sum(len(points) for points in described) == result.feature_count
        if rescheduled:
            assert heap_stats["replacements"] > 0  # the frame overflows the heap
            assert result.profile.heap_comparisons == heap_stats["comparisons"]
            # the profile counts the streaming hardware's M descriptors
            assert result.profile.descriptors_computed == offers.size
        else:
            # this workflow's profile counts only the retained set and no
            # heap work
            assert result.profile.descriptors_computed == result.feature_count
            assert result.profile.heap_comparisons == 0


class TestFrameBatchApis:
    def test_feature_depths_match_scalar(self, tiny_sequence, tiny_slam_config):
        from repro.slam.frame import Frame

        rgbd = next(iter(tiny_sequence))
        frame = Frame(
            index=rgbd.index,
            timestamp=rgbd.timestamp,
            image=rgbd.image,
            depth=rgbd.depth,
            camera=tiny_sequence.camera,
        )
        extractor = OrbExtractor(tiny_slam_config.extractor)
        frame.set_features(extractor.extract(rgbd.image))
        assert len(frame.features) > 0
        vectorized = frame.feature_depths()
        scalar = np.array(
            [frame.feature_depth(i) for i in range(len(frame.features))]
        )
        assert np.array_equal(vectorized, scalar)

    def test_descriptor_matrix_uses_extraction_cache(self, extraction_result):
        from repro.slam.frame import Frame  # noqa: F401  (import sanity)

        first = extraction_result.descriptor_matrix()
        second = extraction_result.descriptor_matrix()
        assert first is second  # cached, not rebuilt per call
        assert first.shape == (len(extraction_result.features), 32)
        assert extraction_result.keypoint_array().shape == (len(extraction_result.features), 2)
        arrays = extraction_result.feature_arrays()
        assert arrays.scores.shape == (len(extraction_result.features),)
        assert arrays.levels.shape == (len(extraction_result.features),)


class TestComputeEngineSpeedup:
    def test_vectorized_engine_at_least_5x_reference(self):
        """The acceptance bar, enforced in tier-1 on a small workload.

        True ratio is ~10x+, so the 5x bar leaves ample headroom for machine
        noise.  The full bench workloads live in bench_backend_speedup.py.
        """
        import time

        from repro.features.orb import ExtractionProfile
        from repro.image import ImagePyramid

        config = ExtractorConfig(
            image_width=320,
            image_height=240,
            pyramid=PyramidConfig(num_levels=2),
            max_features=500,
        )
        image = random_blocks(240, 320, block=12, seed=4)
        extractor = OrbExtractor(config)
        level = ImagePyramid(image, config.pyramid).level(0)
        smoothed = gaussian_blur(level.image)
        xs, ys, scores = extractor._detect_level_candidates(
            level.image, 0, ExtractionProfile()
        )
        assert xs.size > 200
        timings = {}
        for engine_class in (ReferenceEngine, VectorizedEngine):
            engine = engine_class(config)
            engine.describe(smoothed, xs, ys, scores)  # warm-up
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                engine.describe(smoothed, xs, ys, scores)
                best = min(best, time.perf_counter() - start)
            timings[engine.name] = best
        assert timings["reference"] / timings["vectorized"] >= 5.0


class TestSharedEngine:
    def test_tracker_rejects_mismatched_extractor(self):
        from repro.errors import TrackingError
        from repro.slam.tracker import Tracker

        foreign = OrbExtractor(ExtractorConfig(image_width=320, image_height=240))
        with pytest.raises(TrackingError):
            Tracker(SlamConfig(), extractor=foreign)

    def test_sequence_sweep_shares_one_engine(self):
        from repro.dataset import SequenceSpec, make_sequence
        from repro.slam import SlamSystem

        config = SlamConfig(
            extractor=ExtractorConfig(
                image_width=160,
                image_height=120,
                pyramid=PyramidConfig(num_levels=2),
                max_features=200,
            ),
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        extractor = OrbExtractor(config.extractor)
        for name in ("fr1/xyz", "fr1/desk"):
            system = SlamSystem(config, extractor=extractor)
            assert system.tracker.extractor is extractor  # never rebuilt
            spec = SequenceSpec(name=name, num_frames=3, image_width=160, image_height=120)
            assert system.run(make_sequence(spec)).num_frames == 3
        assert extractor.engine.name == "vectorized"
