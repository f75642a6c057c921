"""FrameServer: many frames in flight, results identical to sequential."""

import numpy as np
import pytest

from repro.analysis import BatchRunner
from repro.config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import random_blocks
from repro.serving import FrameServer
from repro.slam import SlamSystem


@pytest.fixture(scope="module")
def serving_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def serving_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(6)]


def _feature_key(result):
    return result.feature_records()


class TestFrameServer:
    def test_results_identical_to_sequential(self, serving_config, serving_images):
        extractor = OrbExtractor(serving_config)
        sequential = [extractor.extract(image) for image in serving_images]
        with FrameServer(extractor=extractor, max_workers=3) as server:
            served = server.extract_many(serving_images)
        assert len(served) == len(sequential)
        for seq_result, par_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(par_result)
            assert vars(seq_result.profile) == vars(par_result.profile)

    def test_shares_one_engine_and_backend(self, serving_config):
        extractor = OrbExtractor(serving_config)
        with FrameServer(extractor=extractor) as server:
            assert server.extractor is extractor
            assert server.extractor.engine is extractor.engine

    def test_stats_and_bounded_in_flight(self, serving_config, serving_images):
        with FrameServer(
            config=serving_config, max_workers=2, max_in_flight=3
        ) as server:
            server.extract_many(serving_images)
            stats = server.stats
        assert stats.frames_submitted == len(serving_images)
        assert stats.frames_completed == len(serving_images)
        assert 1 <= stats.max_in_flight <= 3
        # latency/throughput metrics, comparable with ClusterStats
        assert len(stats.latencies_s) == len(serving_images)
        assert stats.latency_p95_ms >= stats.latency_p50_ms > 0.0
        assert stats.elapsed_s > 0.0
        assert stats.throughput_fps > 0.0
        report = stats.as_dict()
        assert report["frames_completed"] == len(serving_images)
        assert report["latency_p50_ms"] == stats.latency_p50_ms

    def test_submit_after_close_rejected(self, serving_config, serving_images):
        server = FrameServer(config=serving_config)
        server.close()
        with pytest.raises(ReproError):
            server.submit(serving_images[0])

    def test_invalid_configuration_rejected(self, serving_config):
        with pytest.raises(ReproError):
            FrameServer(config=serving_config, max_workers=0)
        with pytest.raises(ReproError):
            FrameServer(config=serving_config, max_workers=4, max_in_flight=2)
        with pytest.raises(ReproError):
            FrameServer(
                extractor=OrbExtractor(serving_config),
                config=ExtractorConfig(image_width=64, image_height=64),
            )


class TestServedSlam:
    @pytest.fixture(scope="class")
    def slam_setup(self, serving_config):
        config = SlamConfig(
            extractor=serving_config,
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        sequence = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
        )
        return config, sequence

    def test_pipelined_run_identical(self, slam_setup):
        config, sequence = slam_setup
        extractor = OrbExtractor(config.extractor)
        sequential = SlamSystem(config, extractor=extractor).run(sequence)
        with FrameServer(extractor=extractor, max_workers=3) as server:
            served = SlamSystem(config, extractor=extractor).run(
                sequence, frame_server=server
            )
        assert served.num_frames == sequential.num_frames
        assert served.ate().mean_cm == sequential.ate().mean_cm
        for a, b in zip(sequential.frame_results, served.frame_results):
            assert a.num_matches == b.num_matches
            assert a.num_inliers == b.num_inliers
            assert np.array_equal(a.pose.rotation, b.pose.rotation)
            assert np.array_equal(a.pose.translation, b.pose.translation)

    def test_mismatched_server_config_rejected(self, slam_setup):
        config, sequence = slam_setup
        with FrameServer(config=ExtractorConfig(image_width=64, image_height=64)) as server:
            with pytest.raises(ReproError):
                SlamSystem(config).run(sequence, frame_server=server)


class TestServingEngineMatrix:
    """FrameServer must serve every extraction engine unchanged."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "hwexact"])
    def test_served_results_identical_to_sequential(
        self, engine, serving_config, serving_images
    ):
        from dataclasses import replace

        config = replace(serving_config, engine=engine)
        extractor = OrbExtractor(config)
        sequential = [extractor.extract(image) for image in serving_images[:4]]
        with FrameServer(extractor=extractor, max_workers=3) as server:
            served = server.extract_many(serving_images[:4])
        assert extractor.engine.name == engine
        for seq_result, par_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(par_result)
            assert vars(seq_result.profile) == vars(par_result.profile)


class TestParallelBatchRunner:
    def test_parallel_sweep_identical_to_sequential(self, serving_config):
        config = SlamConfig(
            extractor=serving_config,
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        specs = [
            SequenceSpec(name=name, num_frames=3, image_width=160, image_height=120)
            for name in ("fr1/xyz", "fr1/desk", "fr2/rpy")
        ]
        sequential = BatchRunner(config=config)
        parallel = BatchRunner(config=config)
        seq_records = sequential.run_all(specs)
        par_records = parallel.run_all_parallel(specs, max_workers=3)
        assert par_records == seq_records
        assert parallel.records == sequential.records  # appended in spec order
        assert parallel.summary()["engine"] == "vectorized"
