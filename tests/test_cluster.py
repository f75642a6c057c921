"""ClusterServer: process-sharded serving, bit-identical to sequential.

The serving parity matrix runs sequential extraction and the process
:class:`~repro.cluster.ClusterServer` across every extraction engine;
the remaining classes pin down the transport, back-pressure, crash
surfacing and the SLAM wiring.
"""

import time

import numpy as np
import pytest

from repro.cluster import server as server_module
from repro.cluster import worker as worker_module
from repro.cluster import (
    WORKER_FAILED,
    ClusterServer,
    SharedFrameRing,
    SharedResultRing,
    SupervisorConfig,
)
from repro.config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import GrayImage, random_blocks
from repro.slam import SlamSystem, stable_frame_id


@pytest.fixture(scope="module")
def cluster_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def cluster_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(5)]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


class TestSharedFrameRing:
    def test_write_then_view_roundtrip(self, cluster_images):
        pixels = cluster_images[0].pixels
        with SharedFrameRing(num_slots=2, slot_bytes=pixels.size) as ring:
            slot = ring.acquire()
            height, width = ring.write(slot, pixels)
            from multiprocessing import shared_memory

            from repro.cluster.shared_ring import attach_slot_view

            shm = shared_memory.SharedMemory(name=ring.name)
            try:
                view = attach_slot_view(shm, slot, pixels.size, height, width)
                assert np.array_equal(view, pixels)
            finally:
                del view  # drop the buffer reference before closing the map
                shm.close()
            ring.release(slot)

    def test_backpressure_and_release(self):
        with SharedFrameRing(num_slots=2, slot_bytes=16) as ring:
            first = ring.acquire()
            second = ring.acquire()
            assert {first, second} == {0, 1}
            assert ring.in_flight() == 2
            assert ring.acquire(timeout=0.05) is None  # full: back-pressure
            ring.release(first)
            assert ring.acquire(timeout=0.05) == first

    def test_double_release_rejected(self):
        with SharedFrameRing(num_slots=1, slot_bytes=16) as ring:
            slot = ring.acquire()
            ring.release(slot)
            with pytest.raises(ReproError):
                ring.release(slot)

    def test_oversize_frame_rejected(self):
        with SharedFrameRing(num_slots=1, slot_bytes=4) as ring:
            slot = ring.acquire()
            with pytest.raises(ReproError):
                ring.write(slot, np.zeros((3, 3), dtype=np.uint8))
            ring.release(slot)


class TestServingParityMatrix:
    """sequential == ClusterServer, every engine."""

    @pytest.fixture(scope="class")
    def sequential_by_engine(self, cluster_config, cluster_images):
        from dataclasses import replace

        results = {}
        for engine in ("reference", "vectorized", "hwexact"):
            config = replace(cluster_config, engine=engine)
            extractor = OrbExtractor(config)
            results[engine] = [extractor.extract(image) for image in cluster_images]
        return results

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "hwexact"])
    def test_cluster_bit_identical_to_sequential(
        self, engine, cluster_config, cluster_images, sequential_by_engine
    ):
        from dataclasses import replace

        config = replace(cluster_config, engine=engine)
        sequential = sequential_by_engine[engine]
        with ClusterServer(config, num_workers=2) as server:
            served = server.extract_many(cluster_images)
        assert len(served) == len(sequential)
        for seq_result, cluster_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
            assert vars(seq_result.profile) == vars(cluster_result.profile)


class TestClusterServer:
    def test_satisfies_serving_protocol(self, cluster_config):
        with ClusterServer(cluster_config, num_workers=1) as server:
            assert server.extractor_config == cluster_config

    def test_stats_and_bounded_in_flight(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, max_in_flight=3
        ) as server:
            server.extract_many(cluster_images)
            stats = server.stats
        assert stats.frames_submitted == len(cluster_images)
        assert stats.frames_completed == len(cluster_images)
        assert stats.frames_failed == 0
        assert 1 <= stats.max_in_flight <= 3
        assert stats.queue_depth == 0
        assert stats.latency_p50_ms > 0.0
        assert stats.latency_p95_ms >= stats.latency_p50_ms
        assert stats.throughput_fps > 0.0
        per_worker = sum(worker.frames_completed for worker in stats.workers)
        assert per_worker == len(cluster_images)
        assert all(worker.queue_depth == 0 for worker in stats.workers)
        report = stats.as_dict()
        assert report["frames_completed"] == len(cluster_images)
        assert report["frames_via_ring"] == len(cluster_images)
        assert report["ring_bytes_copied"] == sum(
            image.pixels.size for image in cluster_images
        )
        assert len(report["workers"]) == 2

    def test_round_robin_spreads_frames(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.extract_many(cluster_images[:4])
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert counts == [2, 2]

    def test_submit_after_close_rejected(self, cluster_config, cluster_images):
        server = ClusterServer(cluster_config, num_workers=1)
        server.close()
        with pytest.raises(ReproError):
            server.submit(cluster_images[0])

    def test_close_is_idempotent(self, cluster_config):
        server = ClusterServer(cluster_config, num_workers=1)
        server.close()
        server.close()

    def test_invalid_configuration_rejected(self, cluster_config):
        with pytest.raises(ReproError):
            ClusterServer(cluster_config, num_workers=0)
        with pytest.raises(ReproError):
            ClusterServer(cluster_config, num_workers=4, max_in_flight=2)

    def test_bad_engine_rejected_before_any_worker_starts(self, cluster_config):
        # rejected by ExtractorConfig itself, so no worker ever starts with it
        import multiprocessing
        from dataclasses import replace

        workers_before = multiprocessing.active_children()
        with pytest.raises(ValueError, match="did you mean 'vectorized'"):
            ClusterServer(replace(cluster_config, engine="vectorised"), num_workers=1)
        with pytest.raises(ValueError, match="RS-BRIEF"):
            ClusterServer(
                replace(cluster_config, engine="hwexact", use_rs_brief=False),
                num_workers=1,
            )
        assert multiprocessing.active_children() == workers_before

    def test_oversize_frame_rejected_at_submit(self, cluster_config):
        big = GrayImage(np.zeros((240, 320), dtype=np.uint8))
        with ClusterServer(cluster_config, num_workers=1) as server:
            with pytest.raises(ReproError):
                server.submit(big)
            # the reserved slot was returned: serving still works afterwards
            small = GrayImage(np.zeros((120, 160), dtype=np.uint8))
            assert server.submit(small).result(timeout=30) is not None

    def test_negative_frame_id_rejected(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=1) as server:
            with pytest.raises(ReproError):
                server.submit(cluster_images[0], frame_id=-1)


class TestClusterCrash:
    def test_killed_worker_fails_its_frames_and_spares_others(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.extract_many(cluster_images[:2])  # jobs 0, 1: warm both workers
            # worker 0 is stopped, so job 2 is still its frame in flight when
            # the kill lands; kill_worker folds the death in before returning
            assert server.chaos_stall(0, duration_s=30.0) == 0
            futures = [server.submit(image) for image in cluster_images[:2]]
            server.kill_worker(0)
            with pytest.raises(ReproError, match="died"):
                futures[0].result(timeout=30)  # job 2 -> dead worker 0
            assert len(futures[1].result(timeout=30).features) > 0  # worker 1 lives
            assert not server.stats.workers[0].alive
            assert server.stats.frames_failed >= 1

    def test_death_between_routing_and_registration_fails_the_frame(
        self, cluster_config, cluster_images
    ):
        # the collector can notice a death after submit routed the job but
        # before it registered it; unsupervised, the job must not move
        with ClusterServer(cluster_config, num_workers=2) as server:
            route = server._route_once

            def route_then_die(job_id):
                worker_id = route(job_id)
                server.kill_worker(worker_id)
                return worker_id

            server._route_once = route_then_die
            future = server.submit(cluster_images[0])  # job 0 -> worker 0
            server._route_once = route
            with pytest.raises(ReproError, match="died"):
                future.result(timeout=30)
            assert len(server.submit(cluster_images[1]).result(timeout=30).features) > 0
            # the failed frame gave back its admission and ring slots
            assert server._admitted == 0
            assert server._ring.in_flight() == 0
            report = server.stats.as_dict()
        assert report["frames_failed"] == 1
        assert [w["frames_completed"] for w in report["workers"]] == [0, 1]

    def test_submit_to_dead_worker_rejected(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.kill_worker(0)
            with pytest.raises(ReproError, match="died"):
                # round-robin hits worker 0 within two submissions
                for image in cluster_images[:2]:
                    server.submit(image)

    def test_all_workers_dead_halts_serving(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.kill_worker(0)
            server.kill_worker(1)
            with pytest.raises(ReproError):
                server.extract_many(cluster_images[:2])

    def test_supervised_routes_around_failed_worker(
        self, cluster_config, cluster_images
    ):
        # no restart budget: worker 0 stays down, so every job whose
        # round-robin slot is worker 0 goes to the shallowest alive queue
        supervision = SupervisorConfig(max_restarts=0)
        expected = [OrbExtractor(cluster_config).extract(i) for i in cluster_images]
        with ClusterServer(
            cluster_config, num_workers=2, supervision=supervision
        ) as server:
            server.kill_worker(0)
            deadline = time.monotonic() + 15.0
            while server.stats.workers[0].state != WORKER_FAILED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            served = server.extract_many(cluster_images)
            counts = [worker.frames_completed for worker in server.stats.workers]
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert counts == [0, len(cluster_images)]


class TestClusterSlam:
    @pytest.fixture(scope="class")
    def slam_setup(self, cluster_config):
        config = SlamConfig(
            extractor=cluster_config,
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        sequence = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
        )
        return config, sequence

    def test_pipelined_run_identical(self, slam_setup):
        config, sequence = slam_setup
        sequential = SlamSystem(config).run(sequence)
        with ClusterServer(config.extractor, num_workers=2) as server:
            served = SlamSystem(config).run(sequence, frame_server=server)
        assert served.num_frames == sequential.num_frames
        assert served.ate().mean_cm == sequential.ate().mean_cm
        for a, b in zip(sequential.frame_results, served.frame_results):
            assert a.num_matches == b.num_matches
            assert a.num_inliers == b.num_inliers
            assert np.array_equal(a.pose.rotation, b.pose.rotation)
            assert np.array_equal(a.pose.translation, b.pose.translation)

    def test_mismatched_server_config_rejected(self, slam_setup):
        config, sequence = slam_setup
        other = ExtractorConfig(image_width=64, image_height=64)
        with ClusterServer(other, num_workers=1) as server:
            with pytest.raises(ReproError):
                SlamSystem(config).run(sequence, frame_server=server)


class TestConditionVariableBackPressure:
    """The ring's free pool is a condition variable, not a poll loop."""

    def test_blocked_acquire_wakes_on_release(self):
        import threading

        with SharedFrameRing(num_slots=1, slot_bytes=16) as ring:
            slot = ring.acquire()
            woken = []
            waiter = threading.Thread(
                target=lambda: woken.append(ring.acquire(timeout=5.0))
            )
            waiter.start()
            time.sleep(0.05)  # let the waiter park on the condition variable
            ring.release(slot)
            waiter.join(timeout=1.0)  # a notify wake, not a poll tick
            assert not waiter.is_alive()
            assert woken == [slot]

    def test_blocked_acquire_raises_on_close(self):
        import threading

        ring = SharedFrameRing(num_slots=1, slot_bytes=16)
        ring.acquire()
        errors = []

        def wait_for_slot():
            try:
                ring.acquire(timeout=5.0)
            except ReproError as error:
                errors.append(error)

        waiter = threading.Thread(target=wait_for_slot)
        waiter.start()
        time.sleep(0.05)
        ring.close()  # waiters must be released immediately, not time out
        waiter.join(timeout=1.0)
        assert not waiter.is_alive()
        assert len(errors) == 1


class TestSharedResultRing:
    def test_claim_write_free_cycle(self):
        with SharedResultRing(2, 3, slot_bytes=64) as ring:
            slot = ring.try_claim(1)
            assert slot is not None and 3 <= slot < 6  # inside range 1
            view = ring.slot_view(slot)
            view[:4] = [1, 2, 3, 4]
            assert ring.in_use() == 1
            ring.free(slot)
            assert ring.in_use() == 0

    def test_exhausted_range_returns_none_not_blocks(self):
        with SharedResultRing(2, 2, slot_bytes=8) as ring:
            assert ring.try_claim(0) is not None
            assert ring.try_claim(0) is not None
            assert ring.try_claim(0) is None  # own range full
            assert ring.try_claim(1) is not None  # other range unaffected

    def test_reclaim_range_frees_only_the_dead_workers_slots(self):
        with SharedResultRing(2, 2, slot_bytes=8) as ring:
            ring.try_claim(0)
            survivor = ring.try_claim(1)
            assert ring.reclaim_range(0) == 1
            assert ring.in_use() == 1  # the survivor's slot is untouched
            ring.free(survivor)

    def test_attach_sees_owner_claims(self):
        with SharedResultRing(1, 2, slot_bytes=32) as ring:
            attached = SharedResultRing.attach(ring.handle())
            slot = attached.try_claim(0)
            attached.slot_view(slot)[:3] = [7, 8, 9]
            assert ring.in_use() == 1
            assert list(ring.slot_view(slot)[:3]) == [7, 8, 9]
            attached.close()

    def test_rejects_bad_geometry_and_ranges(self):
        with pytest.raises(ReproError):
            SharedResultRing(0, 1, slot_bytes=8)
        with SharedResultRing(1, 1, slot_bytes=8) as ring:
            with pytest.raises(ReproError):
                ring.try_claim(5)
            with pytest.raises(ReproError):
                ring.free(99)


class TestResultTransport:
    def test_ring_transport_counts_zero_copy_results(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=2) as server:
            expected = [
                OrbExtractor(cluster_config).extract(image)
                for image in cluster_images
            ]
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert report["results_zero_copy"] == len(cluster_images)
        assert report["results_via_pickle"] == 0
        assert report["result_bytes_saved"] > 0
        assert report["leaked_slots"] == 0

    def test_forced_pickle_fallback_is_bit_identical(
        self, cluster_config, cluster_images, monkeypatch
    ):
        # result-ring slots too small for any packed result: every result
        # must take the per-result pickle fallback through the queue
        monkeypatch.setattr(server_module, "max_packed_nbytes", lambda config: 64)
        with ClusterServer(cluster_config, num_workers=2) as server:
            expected = [
                OrbExtractor(cluster_config).extract(image)
                for image in cluster_images
            ]
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert report["results_zero_copy"] == 0
        assert report["results_via_pickle"] == len(cluster_images)
        assert report["result_bytes_saved"] == 0
        assert report["leaked_slots"] == 0

    def test_result_batch_of_one_flushes_every_result(
        self, cluster_config, cluster_images, monkeypatch
    ):
        # fork-started workers inherit the patched module constant
        monkeypatch.setattr(worker_module, "DEFAULT_RESULT_BATCH", 1)
        with ClusterServer(cluster_config, num_workers=1) as server:
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        assert len(served) == len(cluster_images)
        assert report["results_zero_copy"] == len(cluster_images)


class TestStableFrameIds:
    def test_stable_and_collision_resistant(self):
        base = stable_frame_id("fr1/xyz", 3)
        assert base == stable_frame_id("fr1/xyz", 3)  # deterministic
        assert base >= 0
        assert stable_frame_id("fr1/xyz", 4) == base + 1  # index in low bits
        assert stable_frame_id("fr1/desk", 3) != base  # sequences separated
        with pytest.raises(ReproError):
            stable_frame_id("fr1/xyz", -1)
