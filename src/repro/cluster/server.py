"""Process-sharded frame serving: one extraction engine per worker process.

:class:`ClusterServer` is the one frame server: it keeps extraction busy
on frames ahead of the tracker.  The extractor's Python-level stages hold
the interpreter lock, so the cluster spawns ``num_workers`` worker
*processes*, each owning the extraction engine its configuration names
(``reference``, ``vectorized`` or ``hwexact``).  Frames and results ride
each worker's own ``multiprocessing`` queues.

Semantics:

* **back-pressure** — the pending table is the admission window: at most
  ``max_in_flight`` jobs are pending, and a submit beyond that waits on a
  condition variable over the server's one lock, which every job leaving
  the table notifies, instead of queueing unbounded pixels;
* **in-order results** — :meth:`ClusterServer.extract_many` returns results
  in submission order regardless of worker completion order;
* **identical output** — every worker builds its engine from the same
  :class:`~repro.config.ExtractorConfig`, extraction is a pure per-frame
  function, and the queues carry exact copies, so results are
  bit-identical to sequential extraction (``tests/test_cluster.py``,
  ``tests/test_chaos.py``) no matter which worker ends up running a frame
  — including frames requeued after a crash;
* **clean lifecycle** — context manager, graceful drain on idempotent
  close, and crashed-worker handling: **unsupervised** (default), a dead
  worker fails its submissions with a :class:`~repro.errors.ReproError`
  and the cluster serves on survivors; **supervised** (pass a
  :class:`~repro.cluster.supervisor.SupervisorConfig`), a dead worker is
  respawned under capped exponential backoff and its jobs are *requeued*
  to alive workers instead of failed, bounded by ``max_retries`` — past
  that budget the job fails with a structured
  :class:`~repro.errors.JobFailed` carrying its attempt history.

Placement is one rule, shared by ``submit`` and the death handler: job
``n`` goes to its owner, worker ``n % num_workers``, while that worker is
alive; otherwise (supervised) to the alive worker with the shallowest queue
(lowest worker id on ties); otherwise it parks on a dead slot until that
slot respawns.  ``submit`` waits for room and for a live worker, routes,
registers and puts in one critical section, so only a death parks a job.
A pending job is in exactly one of two places: its owner's job queue (the
owner is running), or parked on a dead slot.  Requeueing moves *where* a
job runs, never *what* it computes: the job's future and pixels are
untouched, so results stay bit-identical and in submission order.

Every frame travels the same way: ``submit`` takes one private copy of the
pixels and puts the job message ``(job_id, key, pixels)`` on the routed
worker's job queue, whose feeder thread pickles it; the worker puts each
:class:`~repro.features.ExtractionResult` on its result queue as soon as
it completes (``docs/serving.md`` → Transport).  Per-worker and aggregate
counters — including restarts, retries and requeues — live in
:class:`ClusterStats`.

Failure semantics (supervision, retry budgets) are documented in
``docs/serving.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from multiprocessing.connection import wait as mp_connection_wait
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..errors import JobAttempt, JobFailed, ReproError
from ..features import ExtractionResult
from ..image import GrayImage
from ..telemetry import (
    ActivityWindow,
    EventJournal,
    MetricsRegistry,
    Trace,
    Tracer,
)
from .supervisor import (
    WORKER_DEAD,
    WORKER_FAILED,
    WORKER_RUNNING,
    Supervisor,
    SupervisorConfig,
)
from .worker import SHUTDOWN, worker_main

#: How often the collector wakes to check worker health (seconds).
_HEALTH_POLL_S = 0.05


class WorkerStats:
    """Counters of one worker process, maintained by the parent.

    A view over the cluster's :class:`~repro.telemetry.MetricsRegistry`:
    the numeric attributes are read-only properties over
    ``cluster_worker_*{worker="<id>"}`` metrics, which
    :class:`ClusterStats`' bookkeeping updates directly, so the registry
    is the only store.  Latency percentiles read a bounded log-bucket
    histogram (O(buckets), no deque sort).

    ``state`` tracks the worker lifecycle (``running`` / ``dead`` /
    ``failed`` — see :mod:`repro.cluster.supervisor`); ``alive`` reads it
    and is true exactly while ``state == "running"``.  ``restarts``
    counts supervised respawns of this worker slot.
    """

    def __init__(
        self, worker_id: int, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worker_id = worker_id
        self.state = WORKER_RUNNING
        labels = {"worker": str(worker_id)}
        self._completed_counter = self.registry.counter(
            "cluster_worker_frames_completed_total",
            help="frames completed by this worker",
            labels=labels,
        )
        self._failed_counter = self.registry.counter(
            "cluster_worker_frames_failed_total",
            help="frames failed on this worker",
            labels=labels,
        )
        self._queue_depth_gauge = self.registry.gauge(
            "cluster_worker_queue_depth",
            help="frames owned by this worker (queued, running or parked)",
            labels=labels,
        )
        self._restarts_counter = self.registry.counter(
            "cluster_worker_restarts_total",
            help="supervised respawns of this worker slot",
            labels=labels,
        )
        self._latency_histogram = self.registry.histogram(
            "cluster_worker_latency_s",
            help="per-frame latency of this worker (seconds)",
            labels=labels,
        )

    @property
    def alive(self) -> bool:
        return self.state == WORKER_RUNNING

    # -- registry-backed read-only attributes -------------------------------
    @property
    def frames_completed(self) -> int:
        return self._completed_counter.value

    @property
    def frames_failed(self) -> int:
        return self._failed_counter.value

    @property
    def queue_depth(self) -> int:
        return self._queue_depth_gauge.value

    @property
    def restarts(self) -> int:
        return self._restarts_counter.value

    @property
    def latency_p50_ms(self) -> float:
        return 1000.0 * self._latency_histogram.percentile(50.0)

    @property
    def latency_p95_ms(self) -> float:
        return 1000.0 * self._latency_histogram.percentile(95.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "frames_completed": self.frames_completed,
            "frames_failed": self.frames_failed,
            "queue_depth": self.queue_depth,
            "restarts": self.restarts,
            "alive": self.alive,
            "state": self.state,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
        }


class ClusterStats:
    """Aggregate + per-worker counters of a :class:`ClusterServer`.

    A view over one :class:`~repro.telemetry.MetricsRegistry` (``cluster_*``
    metrics — naming scheme in ``docs/observability.md``): the aggregate
    counters are read-only properties over registry counters/gauges, the
    latency percentiles read a bounded log-bucket histogram, and an
    :class:`~repro.telemetry.ActivityWindow` adds ``active_elapsed_s`` /
    ``active_throughput_fps`` (throughput over the time the cluster was
    actually serving, immune to idle gaps between replays).

    The robustness counters make failure handling observable:
    ``restarts`` (supervised worker respawns), ``requeued`` (jobs moved
    off a dead worker instead of failed) and ``retries`` (requeued jobs
    that may have started on the dead worker — re-executions).
    """

    #: aggregate counter attributes -> registry metric names; each becomes a
    #: read-only property (via ``__getattr__``) and a row in the docs table
    _COUNTERS = {
        "frames_submitted": "cluster_frames_submitted_total",
        "frames_completed": "cluster_frames_completed_total",
        "frames_failed": "cluster_frames_failed_total",
        "restarts": "cluster_restarts_total",
        "retries": "cluster_retries_total",
        "requeued": "cluster_requeued_total",
    }

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        _clock=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # registry metrics are get-or-create: a second ClusterStats on the
        # same registry would count into the first one's series
        clash = [
            name for name in self.registry.metric_names() if name.startswith("cluster_")
        ]
        if clash:
            raise ReproError(
                f"registry already holds cluster series {clash}; "
                "give each ClusterServer its own MetricsRegistry"
            )
        self.workers: List[WorkerStats] = []
        self._clock = _clock if _clock is not None else time.perf_counter
        self._counters = {
            attr: self.registry.counter(name, help=attr.replace("_", " "))
            for attr, name in self._COUNTERS.items()
        }
        self._in_flight_gauge = self.registry.gauge(
            "cluster_in_flight", help="frames submitted but not yet completed"
        )
        self._max_in_flight_gauge = self.registry.gauge(
            "cluster_max_in_flight", help="high-watermark of the in-flight window"
        )
        self._latency_histogram = self.registry.histogram(
            "cluster_latency_s", help="per-frame serving latency (seconds)"
        )
        self._active_gauge = self.registry.gauge(
            "cluster_active_s",
            help="accumulated active serving time (idle gaps capped)",
        )
        self._window = ActivityWindow(clock=self._clock)
        self._lock = threading.Lock()

    def __getattr__(self, attr: str):
        # Aggregate counters read straight from the registry.  __getattr__
        # only fires for names with no real attribute/property, so the
        # bookkeeping hot paths below never pay for this indirection.
        counters = self.__dict__.get("_counters")
        if counters is not None and attr in counters:
            return counters[attr].value
        raise AttributeError(attr)

    # -- bookkeeping (server-internal) ------------------------------------
    def _touch_window(self) -> None:
        """Advance the activity window (caller holds ``self._lock``)."""
        self._window.touch()
        self._active_gauge.set(self._window.active_s)

    def _submitted(self, worker_id: int) -> None:
        with self._lock:
            self._counters["frames_submitted"].inc()
            self._in_flight_gauge.inc()
            self._max_in_flight_gauge.set_max(self._in_flight_gauge.value)
            self.workers[worker_id]._queue_depth_gauge.inc()
            self._touch_window()

    def _completed(self, worker_id: int, latency_s: float) -> None:
        with self._lock:
            self._counters["frames_completed"].inc()
            self._in_flight_gauge.dec()
            self._latency_histogram.observe(latency_s)
            worker = self.workers[worker_id]
            worker._completed_counter.inc()
            worker._queue_depth_gauge.dec()
            worker._latency_histogram.observe(latency_s)
            self._touch_window()

    def _failed(self, worker_id: int) -> None:
        with self._lock:
            self._counters["frames_failed"].inc()
            self._in_flight_gauge.dec()
            worker = self.workers[worker_id]
            worker._failed_counter.inc()
            worker._queue_depth_gauge.dec()
            self._touch_window()

    def _requeued(self, victim_id: int, target_id: int, retried: bool) -> None:
        """Move one crashed-worker job's accounting to its new owner."""
        with self._lock:
            self._counters["requeued"].inc()
            if retried:
                self._counters["retries"].inc()
            if victim_id != target_id:
                self.workers[victim_id]._queue_depth_gauge.dec()
                self.workers[target_id]._queue_depth_gauge.inc()

    def _restarted(self, worker_id: int) -> None:
        with self._lock:
            self._counters["restarts"].inc()
            self.workers[worker_id]._restarts_counter.inc()

    def _add_worker(self) -> WorkerStats:
        """Append stats for one running worker slot."""
        with self._lock:
            worker = WorkerStats(worker_id=len(self.workers), registry=self.registry)
            self.workers.append(worker)
            return worker

    # -- derived metrics ---------------------------------------------------
    @property
    def _in_flight(self) -> int:
        return self._in_flight_gauge.value

    @property
    def max_in_flight(self) -> int:
        return self._max_in_flight_gauge.value

    @property
    def queue_depth(self) -> int:
        """Frames submitted but not yet completed/failed, across all workers."""
        return self._in_flight

    @property
    def latency_p50_ms(self) -> float:
        """Median serving latency (ms), read from the bounded histogram."""
        return 1000.0 * self._latency_histogram.percentile(50.0)

    @property
    def latency_p95_ms(self) -> float:
        return 1000.0 * self._latency_histogram.percentile(95.0)

    @property
    def active_elapsed_s(self) -> float:
        """Accumulated *active* serving time (idle gaps capped)."""
        with self._lock:
            return self._window.active_s

    @property
    def active_throughput_fps(self) -> float:
        """Completed frames per second of *active* time, which does not
        deflate across idle gaps between replays on a long-lived server."""
        active = self.active_elapsed_s
        if active <= 0.0:
            return 0.0
        return self.frames_completed / active

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (benchmark reports)."""
        with self._lock:  # per-worker rows snapshot under the append lock
            workers = [worker.as_dict() for worker in self.workers]
        return {
            "frames_submitted": self.frames_submitted,
            "frames_completed": self.frames_completed,
            "frames_failed": self.frames_failed,
            "max_in_flight": self.max_in_flight,
            "queue_depth": self.queue_depth,
            # no shared-memory transport exists; perfbench's traced pass
            # still reads these two keys
            "frames_via_ring": 0,
            "results_zero_copy": 0,
            "restarts": self.restarts,
            "retries": self.retries,
            "requeued": self.requeued,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "active_elapsed_s": self.active_elapsed_s,
            "active_throughput_fps": self.active_throughput_fps,
            "workers": workers,
        }


@dataclass
class _PendingJob:
    future: "Future[ExtractionResult]"
    worker_id: int  # current owner: its job queue, or its dead slot (parked)
    key: int  # frame id (the caller's, or the job id when none supplied)
    pixels: np.ndarray  # private copy, kept so a requeue can rebuild the message
    submitted_s: float = 0.0  # perf_counter at submit (attempt elapsed base)
    attempts: List[JobAttempt] = field(default_factory=list)


class ClusterServer:
    """Multi-process sharded frame extraction over per-worker queues.

    Parameters
    ----------
    config:
        Extractor configuration every worker builds its extraction engine
        from (defaults to :class:`~repro.config.ExtractorConfig`).  A
        frame whose shape is not ``config.image_shape`` is rejected at
        submit.
    num_workers:
        Worker process count; job ``n`` goes to worker
        ``n % num_workers``.
    max_in_flight:
        Back-pressure bound across the whole cluster; defaults to
        ``2 * num_workers``.  Workers start by ``fork`` where the platform
        offers it (fast spin-up), else by ``spawn``.
    supervision:
        A :class:`~repro.cluster.supervisor.SupervisorConfig` turns crash
        handling from fail-fast into self-healing: dead workers respawn
        under capped exponential backoff, stalled workers (heartbeat) are
        killed and respawned, and their jobs are requeued to alive
        workers within the ``max_retries`` budget.
    fault_plan:
        A :class:`repro.chaos.FaultPlan` whose scheduled faults (worker
        kills and stalls) fire synchronously inside ``submit`` — the
        chaos-test entry point.
    registry:
        A :class:`~repro.telemetry.MetricsRegistry` to expose every
        ``cluster_*`` metric through (one is created when omitted;
        reachable as ``server.registry`` either way).
    tracer:
        A :class:`~repro.telemetry.Tracer` for the producer-side spans
        (submit, serve, resolve).  Pass one with
        ``enabled=True`` to trace a run; the default tracer is disabled
        and every instrumentation point is a guarded no-op.  Worker
        processes inherit the enabled flag and ship their spans back on
        the result queue; :meth:`trace` returns the merged
        :class:`~repro.telemetry.Trace`.
    journal:
        An :class:`~repro.telemetry.EventJournal` receiving every
        supervision event (deaths, restarts, requeues) and every frame a
        worker failed to extract — always on; one is created when omitted.
    """

    def __init__(
        self,
        config: Optional[ExtractorConfig] = None,
        num_workers: int = 2,
        max_in_flight: Optional[int] = None,
        supervision: Optional[SupervisorConfig] = None,
        fault_plan=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        if num_workers <= 0:
            raise ReproError("num_workers must be positive")
        self.config = config or ExtractorConfig()
        self.num_workers = num_workers
        self.max_in_flight = 2 * num_workers if max_in_flight is None else max_in_flight
        if self.max_in_flight < num_workers:
            raise ReproError("max_in_flight must be >= num_workers")
        self.supervision = supervision
        self.fault_plan = fault_plan
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        # stats first: a registry clash raises before any process starts
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ClusterStats(registry=self.registry)
        for _ in range(num_workers):
            self.stats._add_worker()
        # heartbeat board: one monotonic timestamp per worker slot, written
        # by the worker between jobs, read by the supervisor's stall check;
        # torn double reads are tolerable (the check is a heuristic and a
        # false kill only costs a retry, never a wrong result)
        self._heartbeats = self._context.Array("d", num_workers, lock=False)
        # makes "dequeue one result message + fold it" atomic, so when a
        # worker dies the death handler can drain its queue to empty and
        # know no result of the dead worker is still mid-fold on the
        # collector thread before it requeues the rest (see _on_worker_exit)
        self._collect_lock = threading.Lock()
        self.tracer = tracer if tracer is not None else Tracer(track="server")
        self.journal = journal if journal is not None else EventJournal()
        self._trace = Trace()
        # one job queue AND one result queue per worker: multiprocessing
        # queues guard their pipe ends with cross-process locks, and a
        # worker SIGKILLed mid-put would leave a *shared* result queue's
        # write lock held forever, deadlocking every other worker's flush.
        # Per-worker queues confine that damage to the dead worker's own
        # queues, which a respawn replaces wholesale.
        self._job_queues: List = []
        self._result_queues: List = []
        self._processes: List = []
        # the pending table is the admission window: at most max_in_flight
        # jobs, each in its owner's job queue or parked on a dead slot.  One
        # lock guards it with the worker states, queues and processes;
        # every job leaving the table notifies _room, so a blocked submit
        # wakes at once, and death, respawn, give-up and close notify all
        # waiters so they re-check liveness
        self._pending: Dict[int, _PendingJob] = {}
        self._lock = threading.Lock()
        self._room = threading.Condition(self._lock)
        self._next_job_id = 0
        self._closing = False  # close() has begun: no new submissions
        self._closed = False  # drain over: blocked submits raise
        self._stall_timers: List[threading.Timer] = []
        try:
            for worker_id in range(num_workers):
                process, job_queue, result_queue = self._start_worker_process(
                    worker_id
                )
                self._processes.append(process)
                self._job_queues.append(job_queue)
                self._result_queues.append(result_queue)
        except BaseException:
            # partial spin-up: tear down what started before surfacing the
            # error, so no worker blocks on a queue that will never be fed
            for process in self._processes:
                process.terminate()
                process.join(timeout=5.0)
            for any_queue in self._job_queues + self._result_queues:
                any_queue.close()
                any_queue.cancel_join_thread()
            raise
        self._collector = threading.Thread(
            target=self._collect_results, name="cluster-collector", daemon=True
        )
        self._collector.start()
        self._supervisor: Optional[Supervisor] = None
        if supervision is not None:
            self._supervisor = Supervisor(self, supervision)
            self._supervisor.start()

    def _start_worker_process(self, worker_id: int):
        """Start one worker over a fresh queue pair; returns
        ``(process, job_queue, result_queue)``.

        The worker must hold the only read end of its job pipe and the only
        write end of its result pipe.  Then, once it dies, a result it was
        killed halfway through writing reads as EOF instead of blocking the
        collector forever, and a frame halfway into its job pipe fails the
        feeder thread with EPIPE (ignored) instead of wedging it.  So the
        queues are made just before the start, and the server closes its
        own copies of those two ends right after it, before any sibling
        can be forked with them.
        """
        job_queue = self._context.Queue()
        result_queue = self._context.Queue()
        process = self._context.Process(
            target=worker_main,
            args=(
                worker_id,
                self.config,
                job_queue,
                result_queue,
                self._heartbeats,
                self.tracer.enabled,
            ),
            name=f"cluster-worker-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            for any_queue in (job_queue, result_queue):
                any_queue.close()
                any_queue.cancel_join_thread()
            raise
        job_queue._reader.close()
        job_queue._ignore_epipe = True
        result_queue._writer.close()
        return process, job_queue, result_queue

    # -- protocol ----------------------------------------------------------
    def trace(self) -> Trace:
        """The merged cross-process trace of this server's run so far.

        Drains the producer-side tracer into the merge (worker buffers are
        folded in as their results arrive) and returns the
        :class:`~repro.telemetry.Trace` — call after the frames of
        interest have resolved, then ``export_chrome_trace(path)`` it.
        """
        self._trace.add_spans(self.tracer.track, self.tracer.drain())
        return self._trace

    def alive_worker_ids(self) -> List[int]:
        """Worker ids currently serving (``state == "running"``)."""
        return [worker.worker_id for worker in self.stats.workers if worker.alive]

    # -- serving -----------------------------------------------------------
    def submit(
        self, image: GrayImage, frame_id: Optional[int] = None
    ) -> "Future[ExtractionResult]":
        """Queue one frame; blocks while ``max_in_flight`` frames are pending.

        Returns a future resolving to the same
        :class:`~repro.features.ExtractionResult` sequential extraction
        would produce.  ``frame_id`` labels the frame's trace spans and
        worker messages (the job id is used when it is omitted).  Raises
        :class:`~repro.errors.ReproError` when the server is closed, the
        frame's shape is not ``config.image_shape``, the routed worker has
        died (unsupervised), or every worker has died with no restart
        pending.
        """
        if self._closing:
            raise ReproError("ClusterServer is closed")
        if image.pixels.shape != self.config.image_shape:
            raise ReproError(
                f"frame shape {image.pixels.shape} does not match the configured "
                f"image shape {self.config.image_shape}"
            )
        if frame_id is not None and frame_id < 0:
            raise ReproError("frame ids must be non-negative")
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        key = int(frame_id) if frame_id is not None else job_id
        if self.fault_plan is not None:
            self.fault_plan.on_submit(self, job_id)
        submitted_s = time.perf_counter()
        # the queue pickles the message on its feeder thread after submit
        # returns, and the caller may reuse its array by then
        pixels = image.pixels.copy()
        # wait, route, register and put in one critical section: the worker
        # found alive here is still alive at the put, so only a death parks
        # a job.  The timeout is a lost-wakeup safety net, not the latency.
        with self._room:
            while True:
                if self._closed:
                    raise ReproError(
                        "ClusterServer closed while waiting for an admission slot"
                    )
                if any(worker.alive for worker in self.stats.workers):
                    if len(self._pending) < self.max_in_flight:
                        break
                elif not self._recovery_possible():
                    raise ReproError("every cluster worker has died; serving halted")
                self._room.wait(timeout=1.0)
            target = self._target_locked(job_id % self.num_workers)
            job = _PendingJob(Future(), target, key, pixels, submitted_s=submitted_s)
            self._send_locked(job_id, job, target)
            self.stats._submitted(target)
        self.tracer.complete("submit", submitted_s, frame=key, worker=target)
        return job.future

    def _target_locked(self, owner: int) -> int:
        """Where a job owned by slot ``owner`` goes; the caller holds ``_lock``.

        The owner while it is alive.  Otherwise, under supervision, the
        alive worker with the shallowest queue (lowest worker id on ties),
        else a dead slot awaiting its restart — the owner's own first —
        whose respawn sends the job.  Unsupervised, a dead owner fails the
        job; so does a supervised cluster with nothing alive or pending
        restart.
        """
        workers = self.stats.workers
        if workers[owner].alive:
            return owner
        if self.supervision is None:
            raise ReproError(f"cluster worker {owner} has died; frame cannot be served")
        alive = [worker for worker in workers if worker.alive]
        if alive:
            return min(alive, key=lambda w: (w.queue_depth, w.worker_id)).worker_id
        dead = [worker.worker_id for worker in workers if worker.state == WORKER_DEAD]
        if dead:
            return owner if owner in dead else dead[0]
        raise ReproError("every cluster worker has died; serving halted")

    def _send_locked(self, job_id: int, job: _PendingJob, target: int) -> None:
        """Give ``job`` to slot ``target``; the caller holds ``_lock``.

        A running target gets the message on its job queue (``put`` only
        appends to the feeder buffer; the feeder thread pickles it).  A dead
        target parks the job until :meth:`_respawn_worker` sends it.  Every
        send deletes and reinserts the job in ``_pending``, so each worker's
        jobs sit in ``_pending`` in the order they reached its queue — the
        order :meth:`_on_worker_exit` charges retries by.
        """
        if self.stats.workers[target].alive:
            self._job_queues[target].put((job_id, job.key, job.pixels))
        self._pending.pop(job_id, None)
        job.worker_id = target
        self._pending[job_id] = job

    def _owned_locked(self, worker_id: int) -> List[Tuple[int, _PendingJob]]:
        """``worker_id``'s pending jobs in send order; caller holds ``_lock``."""
        return [
            (job_id, job)
            for job_id, job in self._pending.items()
            if job.worker_id == worker_id
        ]

    def _retire_locked(
        self, job_id: int, latency_s: Optional[float] = None
    ) -> Optional[_PendingJob]:
        """Take ``job_id`` out of the window; the caller holds ``_lock``.

        Counts the job completed (``latency_s`` given) or failed against
        its current owner and wakes one blocked submit.  Counting in the
        same critical section that frees the slot keeps the in-flight
        gauge, and so its high-watermark, within ``max_in_flight``.  The
        caller resolves the returned future after releasing ``_lock``:
        callbacks run inline and may call :meth:`submit`.  Returns ``None``
        when the job already left (close failed it while its result was on
        the way).
        """
        job = self._pending.pop(job_id, None)
        if job is None:
            return None
        if latency_s is None:
            self.stats._failed(job.worker_id)
        else:
            self.stats._completed(job.worker_id, latency_s)
        self._room.notify()
        return job

    def _recovery_possible(self) -> bool:
        """True while a supervised restart could bring a worker back."""
        if self.supervision is None:
            return False
        return any(worker.state == WORKER_DEAD for worker in self.stats.workers)

    def extract_many(
        self,
        images: Iterable[GrayImage],
        frame_ids: Optional[Sequence[int]] = None,
    ) -> List[ExtractionResult]:
        """Extract every image across the cluster; results in submission order.

        ``frame_ids`` optionally supplies one frame id per image (trace
        labels).  Submission interleaves with completion through the
        bounded in-flight window, and the returned list is reassembled in
        order regardless of which worker finished first.
        """
        futures = [
            self.submit(
                image, frame_id=frame_ids[index] if frame_ids is not None else None
            )
            for index, image in enumerate(images)
        ]
        return [future.result() for future in futures]

    # -- result collection / worker health ---------------------------------
    def _collect_results(self) -> None:
        """Sweep every alive worker's result queue, folding results into futures.

        A dead worker's queue leaves the sweep: the death handler drains it
        (results sent before the death still complete their futures)
        before it requeues the rest, and at EOF a pipe would otherwise read
        as always ready.  Idle passes block on the queues' underlying pipes
        via ``connection.wait`` — one poll for N queues — falling back to a
        plain sleep when the pipe handles are not exposed.
        """
        while True:
            alive = self.alive_worker_ids()
            drained = [self._drain_worker_result_queue(worker_id) for worker_id in alive]
            if any(drained):
                continue
            if self._closed and not self._pending:
                return
            self._check_worker_health()
            try:
                readers = [self._result_queues[worker_id]._reader for worker_id in alive]
                mp_connection_wait(readers, timeout=_HEALTH_POLL_S)
            except (AttributeError, OSError, ValueError):
                time.sleep(_HEALTH_POLL_S)

    def _drain_worker_result_queue(self, worker_id: int) -> bool:
        """Fold everything worker ``worker_id``'s result queue holds now;
        True when it held anything.

        Each dequeue+fold is atomic under ``_collect_lock``, so when this
        returns on ``Empty`` no message from the queue is mid-fold
        anywhere: the death handler, which drains a dead worker's queue
        here before it requeues, knows that results the worker sent before
        dying have completed their futures and that exactly the jobs still
        pending need a new owner.  (A SIGKILL mid-put can truncate the
        stream; the dead worker held the pipe's only write end, so the
        remainder reads as EOF below and the jobs it carried are simply
        requeued like any other loss.)
        """
        folded = False
        while True:
            with self._collect_lock:
                result_queue = self._result_queues[worker_id]
                try:
                    message = result_queue.get_nowait()
                except queue_module.Empty:
                    return folded
                except (EOFError, OSError, ValueError):
                    return folded  # torn stream (killed mid-put / queue closed)
                self._fold_result(message)
                folded = True

    def _fold_result(self, message) -> None:
        worker_id, job_id, payload, latency_s, error, trace_blob = message
        if trace_blob is not None:
            # the worker's drained span buffer rode along with this result;
            # its clock-at-send stamp feeds the track's offset calibration
            worker_clock_s, worker_records = trace_blob
            self._trace.add_worker_spans(
                f"worker-{worker_id}", worker_records, worker_clock_s
            )
        with self._lock:
            job = self._retire_locked(job_id, latency_s if error is None else None)
        if job is None:
            return
        if error is not None:
            # the worker absorbed the exception to keep serving: count the
            # frame as failed and journal why
            self.journal.log(
                "frame_failed", worker_id=worker_id, frame=job.key, error=error
            )
            job.future.set_exception(
                ReproError(f"cluster worker {worker_id} extraction failed: {error}")
            )
            return
        # record before resolving: the future's callbacks may read trace()
        if self.tracer.enabled:
            self.tracer.record(
                "serve",
                job.submitted_s,
                time.perf_counter(),
                frame=job.key,
                worker=worker_id,
            )
            self.tracer.instant("resolve", frame=job.key)
        job.future.set_result(payload)

    def _check_worker_health(self) -> None:
        for worker_id, process in enumerate(list(self._processes)):
            if process.exitcode is None or not self.stats.workers[worker_id].alive:
                continue
            if self._closing and process.exitcode == 0:
                continue  # normal sentinel exit while close() drains
            self._on_worker_exit(worker_id, process)

    def _on_worker_exit(
        self, worker_id: int, process, reason: Optional[str] = None
    ) -> None:
        """Fold the exit of worker ``process`` into job state: fail or requeue.

        Without supervision the worker is permanently down and its jobs
        fail with a :class:`~repro.errors.ReproError`.  With supervision
        the worker is marked ``dead`` for the supervisor to respawn, and
        every job it owned goes by :meth:`_target_locked` to the back of an
        alive worker's queue (or parks on a dead slot while nothing is
        alive) unless its retry budget is exhausted, in which case it
        fails with a :class:`~repro.errors.JobFailed` carrying the attempt
        history.

        Only the slot's current process counts: the supervisor may already
        have folded this death and respawned the slot (a kill and the
        health check both see the exit), and the replacement must not be
        marked dead for its predecessor's exit.
        """
        if self._processes[worker_id] is not process:
            return  # already folded and respawned
        now = time.perf_counter()
        exitcode = process.exitcode
        reason = reason or f"died (exit code {exitcode})"
        # Fold whatever the dead worker sent before dying FIRST: those
        # futures complete (no wasted recompute), and — because
        # dequeue+fold is atomic — once the queue reads empty no result of
        # this worker is mid-fold anywhere, so the jobs still pending are
        # exactly the ones to requeue.  The process is already joined, so
        # the queue gains nothing more.
        self._drain_worker_result_queue(worker_id)
        failures: List[Tuple[_PendingJob, Exception]] = []
        requeued = 0
        with self._lock:
            worker = self.stats.workers[worker_id]
            if (
                worker.state != WORKER_RUNNING
                or self._processes[worker_id] is not process
            ):
                return  # already handled (kill + health check race)
            supervised = self.supervision is not None
            worker.state = WORKER_DEAD if supervised else WORKER_FAILED
            # The worker ran its queue first in, first out and sent each
            # result as it completed, and its result queue is drained: so
            # of its pending jobs, in send order (``_pending`` order, see
            # _send_locked), only the first can have started (unless the
            # worker died with an earlier result still in its feeder
            # buffer).  Only that one burns retry budget; the rest move
            # without cost.
            for position, (job_id, job) in enumerate(self._owned_locked(worker_id)):
                if not supervised:
                    error = ReproError(
                        f"cluster worker {worker_id} {reason} with frames in flight"
                    )
                    failures.append((self._retire_locked(job_id), error))
                    continue
                started = position == 0
                if started:
                    job.attempts.append(
                        JobAttempt(worker_id, reason, now - job.submitted_s)
                    )
                    if len(job.attempts) > self.supervision.max_retries:
                        error = JobFailed(
                            f"retry budget of {self.supervision.max_retries} exhausted",
                            tuple(job.attempts),
                        )
                        failures.append((self._retire_locked(job_id), error))
                        continue
                target = self._target_locked(worker_id)
                self._send_locked(job_id, job, target)
                self.stats._requeued(worker_id, target, retried=started)
                requeued += 1
            self._room.notify_all()  # blocked producers re-check liveness
        self.journal.log(
            "worker_dead",
            worker_id=worker_id,
            exitcode=exitcode,
            reason=reason,
            requeued=requeued,
            failed=len(failures),
        )
        if requeued:
            self.journal.log("requeue", worker_id=worker_id, jobs=requeued)
        for job, error in failures:
            job.future.set_exception(error)

    # -- chaos hooks (repro.chaos.FaultPlan) --------------------------------
    def chaos_kill(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Kill one alive worker (SIGKILL) and fold the death in synchronously.

        ``worker_id`` is a preference; a dead preference falls back
        to the first alive worker.  Returns the killed worker id, or
        ``None`` when nothing was alive to kill.  Without supervision the
        worker's pending frames fail with a :class:`~repro.errors.ReproError`;
        with it they are requeued and the supervisor respawns the slot.
        """
        target = self._pick_chaos_target(worker_id)
        if target is None:
            return None
        self._kill(target, reason="chaos kill")
        return target

    def chaos_stall(
        self, worker_id: Optional[int] = None, duration_s: float = 0.2
    ) -> Optional[int]:
        """SIGSTOP one alive worker, SIGCONT after ``duration_s`` (timer).

        While stopped the worker stops heartbeating, so a supervised
        cluster with a short ``heartbeat_timeout_s`` will kill and respawn
        it — the stall-detection path of the chaos matrix.  Returns the
        stalled worker id or ``None``.
        """
        target = self._pick_chaos_target(worker_id)
        if target is None:
            return None
        pid = self._processes[target].pid
        try:
            os.kill(pid, signal.SIGSTOP)
        except (ProcessLookupError, OSError):
            return None

        def _resume() -> None:
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass

        timer = threading.Timer(duration_s, _resume)
        timer.daemon = True
        timer.start()
        self._stall_timers.append(timer)
        return target

    def _pick_chaos_target(self, worker_id: Optional[int]) -> Optional[int]:
        workers = self.stats.workers
        if (
            worker_id is not None
            and 0 <= worker_id < len(workers)
            and workers[worker_id].alive
        ):
            return worker_id
        for worker in workers:
            if worker.alive:
                return worker.worker_id
        return None

    # -- supervisor-facing mechanics ---------------------------------------
    def _last_heartbeat(self, worker_id: int) -> float:
        return float(self._heartbeats[worker_id])

    def _kill(self, worker_id: int, reason: str) -> None:
        """SIGKILL worker ``worker_id``, join it and fold its death in."""
        process = self._processes[worker_id]
        if process.exitcode is None:
            process.kill()
        process.join(timeout=5.0)
        self._on_worker_exit(worker_id, process, reason=reason)

    def _respawn_worker(self, worker_id: int) -> bool:
        """Restart one dead worker slot with the same engine configuration.

        Fresh job AND result queues replace the dead worker's pair before
        the slot is marked alive: stale job messages (already requeued
        elsewhere) can never reach the replacement, and a lock the dead
        process held on either old queue can never wedge the new one.  The
        old result queue holds nothing more: the death handler drained it
        before marking the slot dead.  Every job parked on the slot goes
        onto the new job queue, in ``_pending`` order, in the same critical
        section that marks the slot alive.  Returns False when the server is
        closing, the slot is not restartable, or the spawn
        itself failed (the supervisor retries after backoff).
        """
        if self._closing:
            return self._respawn_refused(worker_id, "closing")
        worker = self.stats.workers[worker_id]
        if worker.state != WORKER_DEAD:
            return self._respawn_refused(worker_id, f"state {worker.state}")
        old_process = self._processes[worker_id]
        if old_process.exitcode is None:
            return self._respawn_refused(worker_id, "still exiting")  # next tick
        self._heartbeats[worker_id] = 0.0
        try:
            process, new_queue, new_result_queue = self._start_worker_process(
                worker_id
            )
        except Exception as error:
            return self._respawn_refused(
                worker_id, f"spawn failed: {type(error).__name__}: {error}"
            )
        old_queues = (self._job_queues[worker_id], self._result_queues[worker_id])
        with self._lock:
            self._job_queues[worker_id] = new_queue
            self._result_queues[worker_id] = new_result_queue
            self._processes[worker_id] = process
            worker.state = WORKER_RUNNING
            for job_id, job in self._owned_locked(worker_id):
                self._send_locked(job_id, job, worker_id)
            self._room.notify_all()  # blocked producers can route again
        self.stats._restarted(worker_id)
        self.journal.log(
            "restart",
            worker_id=worker_id,
            restarts=self.stats.workers[worker_id].restarts,
        )
        for old_queue in old_queues:
            old_queue.close()
            old_queue.cancel_join_thread()
        return True

    def _respawn_refused(self, worker_id: int, reason: str) -> bool:
        """Journal why :meth:`_respawn_worker` did not respawn; returns False."""
        self.journal.log("restart_refused", worker_id=worker_id, reason=reason)
        return False

    def _give_up_worker(self, worker_id: int) -> None:
        """Turn a crash-looping worker permanent-failed (restart budget out).

        Jobs still parked on it are rerouted if any worker is alive or
        another restart is pending; otherwise they fail with a
        :class:`~repro.errors.JobFailed` carrying their history.
        """
        now = time.perf_counter()
        failures: List[Tuple[_PendingJob, Exception]] = []
        with self._lock:
            worker = self.stats.workers[worker_id]
            if worker.state != WORKER_DEAD:
                return
            worker.state = WORKER_FAILED
            for job_id, job in self._owned_locked(worker_id):
                try:
                    target = self._target_locked(worker_id)
                except ReproError:
                    job.attempts.append(
                        JobAttempt(
                            worker_id,
                            "worker restart budget exhausted",
                            now - job.submitted_s,
                        )
                    )
                    error = JobFailed(
                        f"cluster worker {worker_id} permanently "
                        "failed (restart budget exhausted)",
                        tuple(job.attempts),
                    )
                    failures.append((self._retire_locked(job_id), error))
                    continue
                self._send_locked(job_id, job, target)
                self.stats._requeued(worker_id, target, retried=False)
            self._room.notify_all()  # no restart may be pending any more
        self.journal.log(
            "worker_failed", worker_id=worker_id, failed=len(failures)
        )
        for job, error in failures:
            job.future.set_exception(error)

    # -- lifecycle ---------------------------------------------------------
    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Gracefully drain in-flight frames and tear the cluster down.

        Idempotent and crash-safe: a second call returns immediately, a
        worker that died mid-drain does not hang the drain, every frame
        still pending fails with a :class:`~repro.errors.ReproError` and
        leaves the pending table, and every process is joined before the
        queues close.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        for timer in self._stall_timers:
            timer.cancel()
        for process in self._processes:
            if process.exitcode is None and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGCONT)  # undo chaos stalls
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.perf_counter() + drain_timeout_s
        while time.perf_counter() < deadline:
            with self._lock:
                drained = not self._pending
            if drained:
                break
            if not any(worker.alive for worker in self.stats.workers):
                if not self._recovery_possible():
                    break
            time.sleep(_HEALTH_POLL_S)
        if self._supervisor is not None:
            self._supervisor.stop()
        with self._lock:
            self._closed = True
            leftovers = [self._retire_locked(job_id) for job_id in list(self._pending)]
            self._room.notify_all()  # blocked producers raise, not hang
        for worker_id, worker in enumerate(self.stats.workers):
            if worker.alive:
                try:
                    self._job_queues[worker_id].put(SHUTDOWN)
                except (ValueError, OSError):
                    pass
        for job in leftovers:
            job.future.set_exception(
                ReproError("ClusterServer closed before the frame was served")
            )
        for process in self._processes:
            try:
                process.join(timeout=5.0)
                if process.exitcode is None:
                    process.terminate()
                    process.join(timeout=5.0)
            except OSError:
                pass  # the OS refused the signal; the queues still close
        self._collector.join(timeout=5.0)
        for any_queue in self._job_queues + self._result_queues:
            any_queue.close()
            any_queue.cancel_join_thread()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
