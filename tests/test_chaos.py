"""Chaos matrix: the cluster serves bit-identical results through faults.

Every scenario here drives a :class:`~repro.cluster.ClusterServer` through
seeded faults — worker kills and stalls — and asserts the robustness
contract from ``docs/serving.md``: every submitted frame either completes
**bit-identical to sequential extraction, in submission order**, or fails
with a *structured* error carrying its attempt history; no submission
hangs; and after the storm the admission audit shows **nothing admitted
and nothing pending** and every killed worker slot is serving again.

The host may have a single core, so the assertions are about correctness
and counters, never about timing or throughput.
"""

import os
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.chaos import FAULT_KINDS, FaultEvent, FaultPlan
from repro.cluster import WORKER_DEAD, ClusterServer, JobFailed, SupervisorConfig
from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import random_blocks

ENGINES = ("reference", "vectorized", "hwexact")

#: Fast supervision for tests: immediate-ish restarts, short control ticks.
FAST_SUPERVISION = SupervisorConfig(
    restart_backoff_s=0.02, restart_backoff_max_s=0.2, heartbeat_timeout_s=30.0
)


@pytest.fixture(scope="module")
def chaos_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def chaos_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(12)]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


def _sequential_baseline(config, images):
    extractor = OrbExtractor(config)
    return [_feature_key(extractor.extract(image)) for image in images]


def _wait_until(predicate, timeout_s=15.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _assert_nothing_admitted(server):
    """Admission audit after drain or close: no job is left in the pending
    table (the admission window) or counted in flight."""
    assert not server._pending
    assert server.stats.queue_depth == 0


def _warm_up(server, images, count=2):
    """Serve a couple of frames so every worker has booted and beaten.

    With the default two frames on a two-worker cluster, job ids 0 and 1
    land one on each worker, so round-robin sends the even job ids of the
    submissions that follow to worker 0.
    """
    futures = [
        server.submit(images[index % len(images)], frame_id=1_000_000 + index)
        for index in range(count)
    ]
    for future in futures:
        future.result(timeout=60)


class TestFaultPlan:
    def test_storm_is_deterministic(self):
        first = FaultPlan.storm(frames=64, every=8, num_workers=4, seed=3)
        second = FaultPlan.storm(frames=64, every=8, num_workers=4, seed=3)
        assert first.events == second.events
        assert len(first.events) == 7  # submits 8, 16, ..., 56

    def test_different_seed_different_storm(self):
        first = FaultPlan.storm(
            frames=64, every=4, kinds=FAULT_KINDS, num_workers=4, seed=1
        )
        second = FaultPlan.storm(
            frames=64, every=4, kinds=FAULT_KINDS, num_workers=4, seed=2
        )
        assert first.events != second.events

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultEvent(at_submit=0, kind="meteor")

    def test_events_fire_at_most_once(self):
        class StallRecorder:
            def __init__(self):
                self.stalled = []

            def chaos_stall(self, worker_id, duration_s):
                self.stalled.append(worker_id)
                return worker_id

        server = StallRecorder()
        plan = FaultPlan([FaultEvent(at_submit=2, kind="stall", worker_id=1)])
        plan.on_submit(server=server, job_id=2)
        plan.on_submit(server=server, job_id=2)
        assert len(plan.fired) == 1
        assert server.stalled == [1]


class TestKillStorm:
    """The acceptance gate: seeded kill-every-N storm, per engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_in_order_through_kill_storm(
        self, engine, chaos_config, chaos_images
    ):
        config = replace(chaos_config, engine=engine)
        baseline = _sequential_baseline(config, chaos_images)
        plan = FaultPlan.storm(
            frames=len(chaos_images), every=4, num_workers=2, seed=13
        )
        server = ClusterServer(
            config, num_workers=2, supervision=FAST_SUPERVISION, fault_plan=plan
        )
        with server:
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(chaos_images)
            ]
            results = [future.result(timeout=120) for future in futures]
            served = [_feature_key(result) for result in results]
            assert served == baseline  # bit-identical AND in submission order
            assert plan.report()["fired_by_kind"] == {"kill": 2}
            assert server.stats.restarts > 0
            assert server.stats.requeued > 0
            # the pool healed: every killed worker slot is serving again
            assert _wait_until(lambda: len(server.alive_worker_ids()) == 2)
        _assert_nothing_admitted(server)
        assert server.stats.as_dict()["frames_failed"] == 0

    def test_storm_with_more_workers_than_cores(self, chaos_config, chaos_images):
        # submit, requeue and respawn share _pending and the worker queues;
        # with four workers on a small host, kills and stalls every third
        # submission and a short switch interval, a lost update shows as a
        # wrong or missing result or an admission never given back
        images = chaos_images * 2
        baseline = _sequential_baseline(chaos_config, images)
        plan = FaultPlan.storm(
            frames=len(images), every=3, kinds=FAULT_KINDS, num_workers=4, seed=5
        )
        supervision = replace(FAST_SUPERVISION, max_retries=len(plan.events))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server = ClusterServer(
                chaos_config,
                num_workers=4,
                max_in_flight=8,
                supervision=supervision,
                fault_plan=plan,
            )
            with server:
                futures = [
                    server.submit(image, frame_id=index)
                    for index, image in enumerate(images)
                ]
                served = [_feature_key(f.result(timeout=120)) for f in futures]
                assert _wait_until(lambda: len(server.alive_worker_ids()) == 4)
        finally:
            sys.setswitchinterval(interval)
        assert served == baseline
        assert server.stats.frames_failed == 0
        _assert_nothing_admitted(server)


class TestStaleExit:
    """A death folded twice must not take down the slot's replacement."""

    def test_exit_of_a_replaced_process_leaves_the_replacement_serving(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(chaos_config, num_workers=2, supervision=FAST_SUPERVISION)
        with server:
            _warm_up(server, chaos_images)
            victim = server._processes[0]
            victim.kill()
            victim.join()
            # the supervisor's health check folds the death and respawns
            assert _wait_until(lambda: server.stats.restarts >= 1)
            assert _wait_until(lambda: server.alive_worker_ids() == [0, 1])
            # the killer's own, later fold of the same exit is stale
            server._on_worker_exit(0, victim, reason="chaos kill")
            assert server.alive_worker_ids() == [0, 1]
            assert server._processes[0] is not victim
            assert server.submit(chaos_images[0]).result(timeout=60).feature_count > 0
        assert [event.kind for event in server.journal.events("worker_dead")] == [
            "worker_dead"
        ]


class TestRestartMidFlight:
    """Kill between dispatch and result flush; the admissions must come back."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_killed_dispatched_jobs_retry_and_reclaim(
        self, engine, chaos_config, chaos_images
    ):
        config = replace(chaos_config, engine=engine)
        images = chaos_images[:4]
        baseline = _sequential_baseline(config, images)
        server = ClusterServer(
            config,
            num_workers=2,
            max_in_flight=8,
            supervision=FAST_SUPERVISION,
        )
        with server:
            _warm_up(server, images)
            # stall worker 0 so the jobs round-robin sends it (job ids 2
            # and 4) are provably in flight (queued, result not sent),
            # then kill it mid-flight
            assert server.chaos_stall(0, duration_s=30.0) == 0
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(images)
            ]
            assert server.stats.workers[0].queue_depth == 2
            assert server.chaos_kill(0) == 0
            served = [_feature_key(f.result(timeout=120)) for f in futures]
            assert served == baseline
            assert server.stats.requeued > 0
            assert server.stats.retries == 1  # the victim's first job re-ran
            assert _wait_until(lambda: server.stats.restarts >= 1)
            # every admission the requeued jobs held came back
            _assert_nothing_admitted(server)
        _assert_nothing_admitted(server)


class TestStallDetection:
    def test_stalled_worker_is_killed_restarted_and_jobs_requeued(
        self, chaos_config, chaos_images
    ):
        supervision = SupervisorConfig(
            restart_backoff_s=0.02,
            restart_backoff_max_s=0.2,
            heartbeat_timeout_s=0.5,
        )
        images = chaos_images[:3]
        baseline = _sequential_baseline(chaos_config, images)
        server = ClusterServer(
            chaos_config,
            num_workers=2,
            max_in_flight=8,
            supervision=supervision,
        )
        with server:
            _warm_up(server, images)  # both workers have beaten
            # round-robin sends job ids 2 and 4 to the stalled worker 0
            assert server.chaos_stall(0, duration_s=60.0) == 0
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(images)
            ]
            # no manual kill: the supervisor must notice the flat heartbeat
            served = [_feature_key(f.result(timeout=120)) for f in futures]
        assert served == baseline
        report = server.stats.as_dict()
        assert report["restarts"] >= 1
        assert report["requeued"] >= 1
        _assert_nothing_admitted(server)


class TestSupervisorTickErrors:
    def test_failed_tick_is_counted_journaled_and_supervision_continues(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(
            chaos_config, num_workers=2, supervision=FAST_SUPERVISION
        )
        with server:
            supervisor = server._supervisor
            real_tick = supervisor.tick
            raised = []

            def tick_failing_once():
                if not raised:
                    raised.append(True)
                    raise RuntimeError("injected tick failure")
                real_tick()

            supervisor.tick = tick_failing_once
            errors = server.registry.counter("cluster_supervisor_tick_errors_total")
            assert _wait_until(lambda: errors.value == 1)
            rows = server.journal.events(kind="supervisor_tick_error")
            assert len(rows) == 1
            assert rows[0].detail["error"] == "RuntimeError"
            # later ticks still supervise: a killed worker is respawned
            assert server.chaos_kill(0) == 0
            assert _wait_until(lambda: server.stats.workers[0].restarts == 1)
            assert _wait_until(lambda: len(server.alive_worker_ids()) == 2)
            served = _feature_key(server.submit(chaos_images[0]).result(timeout=60))
            assert errors.value == 1
        assert served == _sequential_baseline(chaos_config, chaos_images[:1])[0]


class TestRetryBudget:
    def test_exhausted_retry_budget_fails_with_history(
        self, chaos_config, chaos_images
    ):
        supervision = replace(FAST_SUPERVISION, max_retries=0)
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=supervision
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0)
            assert _wait_until(lambda: server.stats.workers[0].queue_depth > 0)
            server.chaos_kill(0)
            with pytest.raises(JobFailed) as excinfo:
                future.result(timeout=120)
        assert len(excinfo.value.attempts) == 1
        assert excinfo.value.attempts[0].worker_id == 0
        assert "retry budget" in str(excinfo.value)

    def test_budgeted_job_survives_within_budget(self, chaos_config, chaos_images):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=FAST_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0)
            assert _wait_until(lambda: server.stats.workers[0].queue_depth > 0)
            server.chaos_kill(0)  # attempt 1 of the default budget of 2
            assert _feature_key(future.result(timeout=120)) == baseline[0]
        report = server.stats.as_dict()
        assert report["retries"] >= 1
        assert report["restarts"] >= 1

    def test_only_the_earliest_sent_job_burns_budget(
        self, chaos_config, chaos_images
    ):
        # the worker runs its queue first in, first out and sends each
        # result as it completes, so of three jobs stuck behind a stall
        # only the first can have started: it alone is charged
        images = chaos_images[:3]
        baseline = _sequential_baseline(chaos_config, images)
        supervision = replace(FAST_SUPERVISION, max_retries=0)
        server = ClusterServer(
            chaos_config, num_workers=1, max_in_flight=4, supervision=supervision
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(images)
            ]
            assert server.stats.workers[0].queue_depth == 3
            server.chaos_kill(0)
            with pytest.raises(JobFailed, match="retry budget") as excinfo:
                futures[0].result(timeout=120)
            served = [_feature_key(f.result(timeout=120)) for f in futures[1:]]
        assert served == baseline[1:]
        assert len(excinfo.value.attempts) == 1
        report = server.stats.as_dict()
        assert report["frames_failed"] == 1
        assert report["requeued"] == 2
        assert report["retries"] == 0
        _assert_nothing_admitted(server)

    def test_requeued_job_is_charged_by_its_place_in_the_new_queue(
        self, chaos_config, chaos_images
    ):
        # job 2 (worker 0) is requeued behind job 3 on worker 1; when worker
        # 1 dies too, job 3 is the one that can have started, so job 2 is
        # not charged a second time and survives a budget of one retry
        images = chaos_images[:2]
        baseline = _sequential_baseline(chaos_config, images)
        supervision = replace(FAST_SUPERVISION, max_retries=1)
        server = ClusterServer(chaos_config, num_workers=2, supervision=supervision)
        with server:
            _warm_up(server, chaos_images)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            assert server.chaos_stall(1, duration_s=60.0) == 1
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(images)
            ]
            assert server.chaos_kill(0) == 0
            assert server.stats.workers[1].queue_depth == 2
            assert server.chaos_kill(1) == 1
            served = [_feature_key(f.result(timeout=120)) for f in futures]
        assert served == baseline
        report = server.stats.as_dict()
        assert report["frames_failed"] == 0
        assert report["retries"] == 2
        _assert_nothing_admitted(server)


class TestDeadSlots:
    """A slot that is dead with its restart pending holds work, not loses it."""

    #: the supervisor ticks only when a test calls ``tick()``
    MANUAL_SUPERVISION = replace(FAST_SUPERVISION, interval_s=3600.0)

    def test_submit_while_every_slot_is_dead_is_served_after_respawn(
        self, chaos_config, chaos_images
    ):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=self.MANUAL_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_kill(0) == 0
            futures = []
            submitter = threading.Thread(
                target=lambda: futures.append(
                    server.submit(chaos_images[0], frame_id=0)
                )
            )
            submitter.start()
            time.sleep(0.2)
            assert not futures  # waiting: nothing alive, restart pending
            server._supervisor.tick()
            submitter.join(timeout=60)
            assert not submitter.is_alive()
            assert _feature_key(futures[0].result(timeout=60)) == baseline[0]
        assert server.stats.restarts == 1
        _assert_nothing_admitted(server)

    def test_job_parked_on_a_dead_slot_is_sent_at_respawn(
        self, chaos_config, chaos_images
    ):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=self.MANUAL_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            # the only worker holds the job, stopped, when it dies: with
            # nothing alive, the job parks on the dead slot
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0)
            assert server.chaos_kill(0) == 0
            assert server.stats.workers[0].state == WORKER_DEAD
            assert server.stats.workers[0].queue_depth == 1
            assert not future.done()
            server._supervisor.tick()  # respawns the slot, which sends it
            assert _feature_key(future.result(timeout=60)) == baseline[0]
        report = server.stats.as_dict()
        assert report["restarts"] == 1
        assert report["requeued"] == report["retries"] == 1
        _assert_nothing_admitted(server)


class TestCloseRobustness:
    def test_close_is_idempotent_after_crash(self, chaos_config, chaos_images):
        server = ClusterServer(chaos_config, num_workers=2)
        future = server.submit(chaos_images[0], frame_id=0)
        future.result(timeout=60)
        assert server.chaos_kill(0) == 0
        server.close()
        server.close()  # second close must be a no-op, not a crash
        _assert_nothing_admitted(server)
        with pytest.raises(ReproError):
            server.submit(chaos_images[0])

    def test_close_reclaims_slots_killed_mid_flight(
        self, chaos_config, chaos_images
    ):
        # unsupervised: the killed worker's jobs fail, and close() must
        # still join cleanly and give back every admission; one worker,
        # so every submission is in flight on the killed one
        server = ClusterServer(chaos_config, num_workers=1, max_in_flight=8)
        _warm_up(server, chaos_images)
        server.chaos_stall(0, duration_s=30.0)
        futures = [
            server.submit(image, frame_id=index)
            for index, image in enumerate(chaos_images[:3])
        ]
        time.sleep(0.2)
        server.chaos_kill(0)
        for future in futures:
            with pytest.raises(ReproError):
                future.result(timeout=60)
        server.close()
        _assert_nothing_admitted(server)

    def test_workers_ignore_sigint(self, chaos_config, chaos_images):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        with ClusterServer(chaos_config, num_workers=1) as server:
            _warm_up(server, chaos_images, count=1)
            pid = server._processes[0].pid
            os.kill(pid, signal.SIGINT)  # Ctrl-C fans out to the group
            time.sleep(0.3)
            assert server._processes[0].exitcode is None  # still alive
            future = server.submit(chaos_images[0], frame_id=0)
            assert _feature_key(future.result(timeout=60)) == baseline[0]
