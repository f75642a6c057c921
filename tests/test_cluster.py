"""ClusterServer: process-sharded serving, bit-identical to sequential.

The serving parity matrix runs sequential extraction and the process
:class:`~repro.cluster.ClusterServer` across every extraction engine;
the remaining classes pin down the queue transport, back-pressure, crash
surfacing and the SLAM wiring.
"""

import os
import time

import numpy as np
import pytest

from repro.cluster import WORKER_FAILED, ClusterServer, SupervisorConfig
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
            assert server.config == cluster_config

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
        assert stats.active_throughput_fps > 0.0
        per_worker = sum(worker.frames_completed for worker in stats.workers)
        assert per_worker == len(cluster_images)
        assert all(worker.queue_depth == 0 for worker in stats.workers)
        report = stats.as_dict()
        assert report["frames_completed"] == len(cluster_images)
        assert len(report["workers"]) == 2
        # admission audit: every frame left the pending table
        assert not server._pending

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
        undersized = GrayImage(np.zeros((60, 80), dtype=np.uint8))
        with ClusterServer(cluster_config, num_workers=1) as server:
            for wrong in (big, undersized):
                with pytest.raises(ReproError, match="image shape"):
                    server.submit(wrong)
            # nothing was admitted: serving still works afterwards
            assert not server._pending
            assert server.stats.queue_depth == 0
            fitting = GrayImage(np.zeros((120, 160), dtype=np.uint8))
            assert server.submit(fitting).result(timeout=30) is not None

    def test_caller_may_reuse_its_pixels_after_submit(
        self, cluster_config, cluster_images
    ):
        # submit keeps a private copy: the queue pickles it only later, on
        # its feeder thread, so an overwrite right after submit must not land
        expected = OrbExtractor(cluster_config).extract(cluster_images[0])
        frame = GrayImage(cluster_images[0].pixels.copy())
        with ClusterServer(cluster_config, num_workers=1) as server:
            future = server.submit(frame)
            frame.pixels[:] = 0
            served = future.result(timeout=30)
        assert _feature_key(served) == _feature_key(expected)

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
            # the kill lands; chaos_kill folds the death in before returning
            assert server.chaos_stall(0, duration_s=30.0) == 0
            futures = [server.submit(image) for image in cluster_images[:2]]
            assert server.chaos_kill(0) == 0
            with pytest.raises(ReproError, match="with frames in flight"):
                futures[0].result(timeout=30)  # job 2 -> dead worker 0
            assert len(futures[1].result(timeout=30).features) > 0  # worker 1 lives
            assert not server.stats.workers[0].alive
            assert server.stats.frames_failed >= 1

    def test_submit_to_dead_worker_rejected(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            assert server.chaos_kill(0) == 0
            with pytest.raises(ReproError, match="died"):
                # round-robin hits worker 0 within two submissions
                for image in cluster_images[:2]:
                    server.submit(image)

    def test_all_workers_dead_halts_serving(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            assert server.chaos_kill(0) == 0
            assert server.chaos_kill(1) == 1
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
            assert server.chaos_kill(0) == 0
            deadline = time.monotonic() + 15.0
            while server.stats.workers[0].state != WORKER_FAILED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            served = server.extract_many(cluster_images)
            counts = [worker.frames_completed for worker in server.stats.workers]
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert counts == [0, len(cluster_images)]


class TestPipeOwnership:
    """Only a worker holds the pipe ends its death must close.

    A worker killed halfway through putting a result leaves half a message
    in its result pipe: the collector then reads EOF only if no other
    process holds that pipe's write end, and it blocks forever otherwise.
    Likewise a frame halfway into a dead worker's job pipe fails the
    server's feeder thread only if nobody else holds the read end.
    """

    @staticmethod
    def _holders(pids, inode, writable):
        found = []
        for pid in pids:
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    if os.readlink(f"/proc/{pid}/fd/{fd}") != f"pipe:[{inode}]":
                        continue
                    with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                        flags = int(info.read().split("flags:")[1].split()[0], 8)
                except OSError:
                    continue  # closed while listing
                if bool(flags & os.O_WRONLY) == writable:
                    found.append(pid)
        return found

    def _assert_each_worker_owns_its_ends(self, server):
        pids = [os.getpid()] + [process.pid for process in server._processes]
        for worker_id, process in enumerate(server._processes):
            result_reader = server._result_queues[worker_id]._reader
            job_writer = server._job_queues[worker_id]._writer
            result_pipe = os.fstat(result_reader.fileno()).st_ino
            job_pipe = os.fstat(job_writer.fileno()).st_ino
            assert self._holders(pids, result_pipe, writable=True) == [process.pid]
            assert self._holders(pids, job_pipe, writable=False) == [process.pid]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fdinfo"), reason="reads /proc/<pid>/fdinfo"
    )
    def test_only_the_worker_holds_the_ends_a_crash_must_close(
        self, cluster_config, cluster_images
    ):
        supervision = SupervisorConfig(restart_backoff_s=0.02)
        with ClusterServer(
            cluster_config, num_workers=2, supervision=supervision
        ) as server:
            self._assert_each_worker_owns_its_ends(server)
            assert server.chaos_kill(0) == 0
            deadline = time.monotonic() + 15.0
            while server.stats.workers[0].restarts < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # the replacement got fresh queues; no sibling inherited them
            self._assert_each_worker_owns_its_ends(server)
            assert server.submit(cluster_images[0]).result(timeout=30) is not None


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


class TestResultTransport:
    def test_result_batch_of_one_flushes_every_result(
        self, cluster_config, cluster_images, monkeypatch, tmp_path
    ):
        # each result leaves the worker as it completes: frame 0 resolves
        # while the one worker is still held on frame 1, queued behind it
        expected = [OrbExtractor(cluster_config).extract(i) for i in cluster_images[:2]]
        release = tmp_path / "release"
        extract = OrbExtractor.extract

        def held_extract(self, image, frame_id=None):
            if frame_id == 1:
                give_up = time.monotonic() + 60.0
                while not release.exists() and time.monotonic() < give_up:
                    time.sleep(0.01)
            return extract(self, image, frame_id=frame_id)

        # fork-started workers inherit the patched method
        monkeypatch.setattr(OrbExtractor, "extract", held_extract)
        with ClusterServer(cluster_config, num_workers=1) as server:
            first = server.submit(cluster_images[0], frame_id=0)
            held = server.submit(cluster_images[1], frame_id=1)
            first.result(timeout=30)
            assert not held.done()
            release.touch()
            served = [first.result(), held.result(timeout=30)]
        assert [_feature_key(result) for result in served] == [
            _feature_key(result) for result in expected
        ]


class TestWorkerErrors:
    def test_failed_extraction_is_counted_journaled_and_serving_continues(
        self, cluster_config, cluster_images, monkeypatch
    ):
        expected = OrbExtractor(cluster_config).extract(cluster_images[1])
        extract = OrbExtractor.extract

        def failing_extract(self, image, frame_id=None):
            if frame_id == 7:
                raise RuntimeError("injected extraction failure")
            return extract(self, image, frame_id=frame_id)

        # fork-started workers inherit the patched method
        monkeypatch.setattr(OrbExtractor, "extract", failing_extract)
        with ClusterServer(cluster_config, num_workers=1) as server:
            failed = server.submit(cluster_images[0], frame_id=7)
            with pytest.raises(ReproError, match="injected extraction failure"):
                failed.result(timeout=30)
            served = server.submit(cluster_images[1], frame_id=8).result(timeout=30)
            rows = server.journal.events(kind="frame_failed")
            report = server.stats.as_dict()
        assert report["frames_failed"] == 1
        assert len(rows) == 1
        assert rows[0].worker_id == 0
        assert rows[0].detail["frame"] == 7
        assert "injected extraction failure" in rows[0].detail["error"]
        assert _feature_key(served) == _feature_key(expected)


class TestStableFrameIds:
    def test_stable_and_collision_resistant(self):
        base = stable_frame_id("fr1/xyz", 3)
        assert base == stable_frame_id("fr1/xyz", 3)  # deterministic
        assert base >= 0
        assert stable_frame_id("fr1/xyz", 4) == base + 1  # index in low bits
        assert stable_frame_id("fr1/desk", 3) != base  # sequences separated
        with pytest.raises(ReproError):
            stable_frame_id("fr1/xyz", -1)
