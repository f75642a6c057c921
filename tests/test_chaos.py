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
import time
from dataclasses import replace

import pytest

from repro.chaos import FAULT_KINDS, FaultEvent, FaultPlan
from repro.cluster import ClusterServer, JobFailed, SupervisorConfig
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
    """Admission audit after drain or close: every frame gave its window
    slot back and no job is left pending."""
    assert server._admitted == 0
    assert not server._pending


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
            # and 4) are provably in flight (dispatched, result not
            # flushed), then kill it mid-flight
            assert server.chaos_stall(0, duration_s=30.0) == 0
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(images)
            ]
            time.sleep(0.2)  # let the dispatcher hand jobs to the victim
            assert server.chaos_kill(0) == 0
            served = [_feature_key(f.result(timeout=120)) for f in futures]
            assert served == baseline
            assert server.stats.requeued > 0
            assert server.stats.retries > 0  # dispatched jobs were re-run
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
            server.kill_worker(0)
            assert _wait_until(lambda: server.stats.workers[0].restarts == 1)
            assert _wait_until(lambda: len(server.alive_worker_ids()) == 2)
            served = _feature_key(server.submit(chaos_images[0]).result(timeout=60))
            assert errors.value == 1
        assert served == _sequential_baseline(chaos_config, chaos_images[:1])[0]


class TestDeadlines:
    def test_undispatched_jobs_expire_with_attempt_history(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(
            chaos_config,
            num_workers=1,
            max_in_flight=6,
            supervision=FAST_SUPERVISION,
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=1.0) == 0
            futures = [
                server.submit(image, frame_id=index, deadline_s=0.3)
                for index, image in enumerate(chaos_images[:6])
            ]
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=120)
                    outcomes.append("ok")
                except JobFailed as error:
                    assert error.attempts  # structured history, never bare
                    assert "deadline" in str(error)
                    outcomes.append("deadline")
            # the dispatch window reached the stalled worker: those frames
            # complete (late); the queued remainder expired at the deadline
            assert "deadline" in outcomes
        _assert_nothing_admitted(server)

    def test_dispatched_job_past_deadline_fails_at_worker_death(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=FAST_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0, deadline_s=0.2)
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
            time.sleep(0.3)  # push the job past its budget while in flight
            server.chaos_kill(0)
            with pytest.raises(JobFailed) as excinfo:
                future.result(timeout=120)
        assert excinfo.value.attempts
        assert excinfo.value.attempts[0].worker_id == 0
        assert "deadline" in str(excinfo.value)


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
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
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
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
            server.chaos_kill(0)  # attempt 1 of the default budget of 2
            assert _feature_key(future.result(timeout=120)) == baseline[0]
        report = server.stats.as_dict()
        assert report["retries"] >= 1
        assert report["restarts"] >= 1


class TestCloseRobustness:
    def test_close_is_idempotent_after_crash(self, chaos_config, chaos_images):
        server = ClusterServer(chaos_config, num_workers=2)
        future = server.submit(chaos_images[0], frame_id=0)
        future.result(timeout=60)
        server.kill_worker(0)
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


class TestSlamDeadlinePassThrough:
    def test_frame_deadline_forwarded_to_server(self, chaos_config):
        from repro.config import SlamConfig
        from repro.dataset import SequenceSpec, make_sequence
        from repro.slam import SlamSystem

        slam_config = SlamConfig(extractor=chaos_config)
        sequence = make_sequence(
            SequenceSpec(
                name="fr1/xyz", num_frames=3, image_width=160, image_height=120
            )
        )
        system = SlamSystem(slam_config)
        with ClusterServer(
            slam_config.extractor, num_workers=2, supervision=FAST_SUPERVISION
        ) as frame_server:
            deadlines = []
            submit = frame_server.submit

            def recording_submit(image, frame_id=None, deadline_s=None):
                deadlines.append(deadline_s)
                return submit(image, frame_id=frame_id, deadline_s=deadline_s)

            frame_server.submit = recording_submit
            # a generous budget: every frame must serve inside it
            result = system.run(
                sequence, frame_server=frame_server, frame_deadline_s=60.0
            )
        assert len(result.frame_results) == 3
        assert deadlines == [60.0] * 3
