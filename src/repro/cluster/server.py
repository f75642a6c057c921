"""Process-sharded frame serving: one extraction engine per worker process.

:class:`ClusterServer` is the one frame server: it keeps extraction busy
on frames ahead of the tracker.  The extractor's Python-level stages hold
the interpreter lock, so the cluster spawns ``num_workers`` worker
*processes*, each owning the extraction engine its configuration names
(``reference``, ``vectorized`` or ``hwexact``), and moves pixels through
a shared-memory ring (:mod:`repro.cluster.shared_ring`) so no frame is
ever pickled.

Semantics:

* **back-pressure** — at most ``max_in_flight`` frames are in flight; a
  submit beyond that blocks the producer on a condition variable (woken
  the instant a completion frees the window) instead of queueing unbounded
  pixels;
* **in-order results** — :meth:`ClusterServer.extract_many` returns results
  in submission order regardless of worker completion order;
* **identical output** — every worker builds its engine from the same
  :class:`~repro.config.ExtractorConfig`, extraction is a pure per-frame
  function, and the shared-memory transports are byte-exact, so results are
  bit-identical to sequential extraction (``tests/test_cluster.py``,
  ``tests/test_chaos.py``) no matter which worker ends up running a frame
  — including frames requeued after a crash;
* **clean lifecycle** — context manager, graceful drain on idempotent
  close, and crashed-worker handling: **unsupervised** (default), a dead
  worker fails its submissions with a :class:`~repro.errors.ReproError`
  and the cluster serves on survivors; **supervised** (pass a
  :class:`~repro.cluster.supervisor.SupervisorConfig`), a dead worker is
  respawned under capped exponential backoff and its jobs are *requeued*
  to alive workers instead of failed, bounded by ``max_retries`` and the
  per-job ``deadline_s`` — past either budget the job fails with a
  structured :class:`~repro.errors.JobFailed` carrying its attempt
  history.

Placement is one rule: job ``n`` goes to worker ``n % num_workers``; when
that worker is down under supervision the job goes to the alive worker
with the shallowest queue (lowest worker id on ties).  A **dispatcher
thread** hands each worker at most :data:`DISPATCH_DEPTH` jobs at a time
and keeps the rest in per-worker backlogs, where a crash requeue can still
move them.  Requeueing moves *where* a job runs, never *what* it
computes: the job's future, frame ring slot and pixels are untouched, so
results stay bit-identical and in submission order.

Every frame travels the same way: the producer copies its pixels into a
:class:`~repro.cluster.shared_ring.SharedFrameRing` slot and the worker
reads them through a view of that slot.  Results come back through the
:class:`~repro.cluster.result_ring.SharedResultRing`, with a per-result
pickle fallback (``docs/serving.md`` → Result transport).  Per-worker and
aggregate counters — including restarts, retries, requeues and the
``leaked_slots`` audit — live in :class:`ClusterStats`.

Failure semantics (supervision, deadlines, retry budgets) are documented
in ``docs/serving.md``.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as mp_connection_wait
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from .context import get_mp_context
from .result_ring import RingSlotRef, SharedResultRing
from .resultpack import max_packed_nbytes, unpack_result
from .shared_ring import SharedFrameRing
from .supervisor import (
    WORKER_DEAD,
    WORKER_FAILED,
    WORKER_RUNNING,
    Supervisor,
    SupervisorConfig,
)
from .worker import DEFAULT_RESULT_BATCH, SHUTDOWN, worker_main

#: How often the collector wakes to check worker health (seconds).
_HEALTH_POLL_S = 0.05

#: Jobs handed to one worker's queue at a time.  Everything beyond this
#: stays in the server-side backlog, where a supervised requeue can still
#: move it after a crash and a deadline can still expire it before it
#: reaches a worker; large enough that a worker is never starved between
#: refills.
DISPATCH_DEPTH = 2

#: Safety net on ring acquisition.  Admission control guarantees a free
#: slot exists whenever the ring is used (in-flight frames never exceed the
#: slot count), so hitting this timeout indicates a leaked slot, not
#: back-pressure; it is counted in ``ClusterStats.leaked_slots``.
_RING_ACQUIRE_TIMEOUT_S = 5.0


def _safe_metric_read(fn):
    """Wrap a callback-gauge reader so a snapshot taken mid-close (shared
    memory already unlinked) reports 0 instead of raising."""

    def read() -> float:
        try:
            return float(fn())
        except Exception:
            return 0.0

    return read


class WorkerStats:
    """Counters of one worker process, maintained by the parent.

    A view over the cluster's :class:`~repro.telemetry.MetricsRegistry`:
    the numeric attributes are read/write properties backed by
    ``cluster_worker_*{worker="<id>"}`` metrics, so the existing
    ``worker.frames_completed += 1`` call sites keep working while every
    counter is scrape-able through the registry.  Latency percentiles read
    a bounded log-bucket histogram (O(buckets), no deque sort).

    ``state`` tracks the worker lifecycle (``running`` / ``dead`` /
    ``failed`` — see :mod:`repro.cluster.supervisor`); ``alive`` stays the
    routing-facing boolean and is true exactly while
    ``state == "running"``.  ``restarts`` counts supervised respawns of
    this worker slot.
    """

    def __init__(
        self, worker_id: int, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worker_id = worker_id
        self.alive = True
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
            help="frames owned by this worker (backlog + dispatched)",
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

    # -- registry-backed read/write attributes ------------------------------
    # Counter setters apply the delta against the live value; every write
    # happens under ClusterStats._lock, so read-modify-write is serialized.
    @property
    def frames_completed(self) -> int:
        return self._completed_counter.value

    @frames_completed.setter
    def frames_completed(self, value: int) -> None:
        self._completed_counter.add(value - self._completed_counter.value)

    @property
    def frames_failed(self) -> int:
        return self._failed_counter.value

    @frames_failed.setter
    def frames_failed(self, value: int) -> None:
        self._failed_counter.add(value - self._failed_counter.value)

    @property
    def queue_depth(self) -> int:
        return self._queue_depth_gauge.value

    @queue_depth.setter
    def queue_depth(self, value: int) -> None:
        self._queue_depth_gauge.set(value)

    @property
    def restarts(self) -> int:
        return self._restarts_counter.value

    @restarts.setter
    def restarts(self, value: int) -> None:
        self._restarts_counter.add(value - self._restarts_counter.value)

    def _observe_latency(self, latency_s: float) -> None:
        self._latency_histogram.observe(latency_s)

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
    actually serving, immune to idle gaps between replays).  All
    pre-telemetry ``as_dict()`` keys are preserved.

    The transport counters make the transports observable:
    ``frames_via_ring`` (frames carried by the frame ring) and
    ``ring_bytes_copied`` (producer-side memcpy volume).  The return path
    has its own trio: ``results_zero_copy`` (results collected as packed
    arrays from the shared result ring), ``results_via_pickle`` (results
    that rode the queue — range exhausted, or oversized) and
    ``result_bytes_saved`` (packed bytes that skipped the pickle pipe
    entirely).

    The robustness counters make failure handling observable:
    ``restarts`` (supervised worker respawns), ``requeued`` (jobs moved
    off a dead worker instead of failed), ``retries`` (requeued jobs that
    had already been dispatched — i.e. actual re-executions) and
    ``leaked_slots`` (transport slots that had to be force-reclaimed —
    zero in a healthy run, asserted by the chaos tests).
    """

    #: aggregate counter attributes -> registry metric names; each becomes a
    #: read-only property (via ``__getattr__``) and a row in the docs table
    _COUNTERS = {
        "frames_submitted": "cluster_frames_submitted_total",
        "frames_completed": "cluster_frames_completed_total",
        "frames_failed": "cluster_frames_failed_total",
        "frames_via_ring": "cluster_frames_via_ring_total",
        "ring_bytes_copied": "cluster_ring_bytes_copied_total",
        "results_zero_copy": "cluster_results_zero_copy_total",
        "results_via_pickle": "cluster_results_via_pickle_total",
        "result_bytes_saved": "cluster_result_bytes_saved_total",
        "restarts": "cluster_restarts_total",
        "retries": "cluster_retries_total",
        "requeued": "cluster_requeued_total",
        "leaked_slots": "cluster_leaked_slots_total",
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
        self._first_submit_s: Optional[float] = None
        self._last_completed_s: Optional[float] = None
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
            if self._first_submit_s is None:
                self._first_submit_s = self._clock()
            self._counters["frames_submitted"].inc()
            self._in_flight_gauge.inc()
            self._max_in_flight_gauge.set_max(self._in_flight_gauge.value)
            self.workers[worker_id].queue_depth += 1
            self._touch_window()

    def _completed(self, worker_id: int, latency_s: float) -> None:
        with self._lock:
            self._last_completed_s = self._clock()
            self._counters["frames_completed"].inc()
            self._in_flight_gauge.dec()
            self._latency_histogram.observe(latency_s)
            worker = self.workers[worker_id]
            worker.frames_completed += 1
            worker.queue_depth -= 1
            worker._observe_latency(latency_s)
            self._touch_window()

    def _failed(self, worker_id: int) -> None:
        with self._lock:
            self._last_completed_s = self._clock()
            self._counters["frames_failed"].inc()
            self._in_flight_gauge.dec()
            worker = self.workers[worker_id]
            worker.frames_failed += 1
            worker.queue_depth -= 1
            self._touch_window()

    def _abandoned(self, worker_id: int) -> None:
        """Undo a submission whose hand-off failed (never extracted)."""
        with self._lock:
            self._counters["frames_submitted"].add(-1)
            self._in_flight_gauge.dec()
            self.workers[worker_id].queue_depth -= 1

    def _via_ring(self, bytes_copied: int) -> None:
        """Record one frame carried by the frame ring and its copy volume."""
        with self._lock:
            self._counters["frames_via_ring"].inc()
            self._counters["ring_bytes_copied"].inc(bytes_copied)

    def _result_collected(self, zero_copy: bool, packed_nbytes: int) -> None:
        """Record which transport carried one collected result."""
        with self._lock:
            if zero_copy:
                self._counters["results_zero_copy"].inc()
                self._counters["result_bytes_saved"].inc(packed_nbytes)
            else:
                self._counters["results_via_pickle"].inc()

    def _requeued(self, victim_id: int, target_id: int, retried: bool) -> None:
        """Move one crashed-worker job's accounting to its new owner."""
        with self._lock:
            self._counters["requeued"].inc()
            if retried:
                self._counters["retries"].inc()
            if victim_id != target_id:
                self.workers[victim_id].queue_depth -= 1
                self.workers[target_id].queue_depth += 1

    def _restarted(self, worker_id: int) -> None:
        with self._lock:
            self._counters["restarts"].inc()
            self.workers[worker_id].restarts += 1

    def _leaked(self, count: int) -> None:
        with self._lock:
            self._counters["leaked_slots"].inc(count)

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
    def elapsed_s(self) -> float:
        """Wall-clock span from first submit to last completion."""
        if self._first_submit_s is None or self._last_completed_s is None:
            return 0.0
        return max(0.0, self._last_completed_s - self._first_submit_s)

    @property
    def throughput_fps(self) -> float:
        """Completed frames per wall-clock second across the whole cluster."""
        elapsed = self.elapsed_s
        if elapsed <= 0.0:
            return 0.0
        return self.frames_completed / elapsed

    @property
    def active_elapsed_s(self) -> float:
        """Accumulated *active* serving time (idle gaps capped)."""
        with self._lock:
            return self._window.active_s

    @property
    def active_throughput_fps(self) -> float:
        """Completed frames per second of *active* time — unlike the legacy
        ``throughput_fps``, this does not deflate across idle gaps between
        replays on a long-lived server."""
        active = self.active_elapsed_s
        if active <= 0.0:
            return 0.0
        return self.frames_completed / active

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (benchmark reports).

        Every pre-telemetry key is preserved; ``active_elapsed_s`` /
        ``active_throughput_fps`` are additive.
        """
        with self._lock:  # per-worker rows snapshot under the append lock
            workers = [worker.as_dict() for worker in self.workers]
        return {
            "frames_submitted": self.frames_submitted,
            "frames_completed": self.frames_completed,
            "frames_failed": self.frames_failed,
            "max_in_flight": self.max_in_flight,
            "queue_depth": self.queue_depth,
            "frames_via_ring": self.frames_via_ring,
            "ring_bytes_copied": self.ring_bytes_copied,
            "results_zero_copy": self.results_zero_copy,
            "results_via_pickle": self.results_via_pickle,
            "result_bytes_saved": self.result_bytes_saved,
            "restarts": self.restarts,
            "retries": self.retries,
            "requeued": self.requeued,
            "leaked_slots": self.leaked_slots,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "elapsed_s": self.elapsed_s,
            "throughput_fps": self.throughput_fps,
            "active_elapsed_s": self.active_elapsed_s,
            "active_throughput_fps": self.active_throughput_fps,
            "workers": workers,
        }


@dataclass
class _PendingJob:
    future: "Future[ExtractionResult]"
    worker_id: int  # current owner: backlog, or executor once dispatched
    slot: int  # frame ring slot holding the pixels
    key: int  # frame id (the caller's, or the job id when none supplied)
    height: int = 0  # frame shape, kept so a requeue can rebuild the message
    width: int = 0
    submitted_s: float = 0.0  # perf_counter at submit (attempt elapsed base)
    deadline: Optional[float] = None  # absolute perf_counter budget, or None
    dispatched: bool = False  # True once the message left for a worker queue
    attempts: List[JobAttempt] = field(default_factory=list)

    def message(self, job_id: int) -> Tuple:
        """The worker control message for this job (requeue rebuilds it)."""
        return (job_id, self.key, self.slot, self.height, self.width)


class ClusterServer:
    """Multi-process sharded frame extraction with shared-memory transport.

    Parameters
    ----------
    config:
        Extractor configuration every worker builds its extraction engine
        from (defaults to :class:`~repro.config.ExtractorConfig`).  The
        shared ring sizes its slots for ``config.image_shape``; larger
        frames are rejected at submit.
    num_workers:
        Worker process count; job ``n`` goes to worker
        ``n % num_workers``.
    max_in_flight:
        Back-pressure bound across the whole cluster; defaults to
        ``2 * num_workers``.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast spin-up), else ``spawn``.
    supervision:
        A :class:`~repro.cluster.supervisor.SupervisorConfig` turns crash
        handling from fail-fast into self-healing: dead workers respawn
        under capped exponential backoff, stalled workers (heartbeat) are
        killed and respawned, and their jobs are requeued to alive
        workers within ``max_retries`` / ``deadline_s`` budgets.
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
        (submit, backlog wait, transport, collect).  Pass one with
        ``enabled=True`` to trace a run; the default tracer is disabled
        and every instrumentation point is a guarded no-op.  Worker
        processes inherit the enabled flag and ship their spans back on
        the result queue; :meth:`trace` returns the merged
        :class:`~repro.telemetry.Trace`.
    journal:
        An :class:`~repro.telemetry.EventJournal` receiving every
        supervision event (deaths, restarts, requeues, expiries, leak
        reclaims) — always on; one is created when omitted.
    """

    def __init__(
        self,
        config: Optional[ExtractorConfig] = None,
        num_workers: int = 2,
        max_in_flight: Optional[int] = None,
        start_method: Optional[str] = None,
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
        self._context = get_mp_context(start_method)
        # stats first: a registry clash raises before any shared memory exists
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ClusterStats(registry=self.registry)
        for _ in range(num_workers):
            self.stats._add_worker()
        self._slot_bytes = self.config.image_height * self.config.image_width
        self._ring = SharedFrameRing(self.max_in_flight, self._slot_bytes)
        # heartbeat board: one monotonic timestamp per worker slot, written
        # by the worker between jobs, read by the supervisor's stall check;
        # torn double reads are tolerable (the check is a heuristic and a
        # false kill only costs a retry, never a wrong result)
        self._heartbeats = self._context.Array("d", num_workers, lock=False)
        # result ring: one slot range per worker slot.  A range holds
        # enough slots for a full unflushed batch plus the dispatch window
        # that can be in flight ahead of the collector; a momentarily
        # exhausted range just falls back to pickling that result.
        self._result_ring = SharedResultRing(
            num_workers,
            DEFAULT_RESULT_BATCH + DISPATCH_DEPTH + 2,
            max_packed_nbytes(self.config),
        )
        # makes "dequeue one result message + fold it" atomic, so when a
        # worker dies the death handler can drain its queue to empty and
        # know no stale descriptor into the dead range is still in flight
        # on the collector thread (see _on_worker_exit)
        self._collect_lock = threading.Lock()
        self.tracer = tracer if tracer is not None else Tracer(track="server")
        self.journal = journal if journal is not None else EventJournal()
        self._trace = Trace()
        # transport occupancy as callback gauges: read live from the rings at
        # snapshot time instead of mirroring every acquire/release
        self.registry.gauge(
            "cluster_frame_ring_in_flight",
            help="frame-ring slots currently acquired",
            fn=_safe_metric_read(lambda: self._ring.in_flight()),
        )
        self.registry.gauge(
            "cluster_result_ring_in_use",
            help="result-ring slots currently claimed",
            fn=_safe_metric_read(lambda: self._result_ring.in_use()),
        )
        # one job queue AND one result queue per worker: multiprocessing
        # queues guard their pipe ends with cross-process locks, and a
        # worker SIGKILLed mid-put would leave a *shared* result queue's
        # write lock held forever, deadlocking every other worker's flush.
        # Per-worker queues confine that damage to the dead worker's own
        # queues, which a respawn replaces wholesale.
        self._result_queues = [self._context.Queue() for _ in range(num_workers)]
        self._job_queues = [self._context.Queue() for _ in range(num_workers)]
        # queues of crashed workers: never written again, but drained until
        # close so results the dead worker flushed before dying still count
        self._retired_result_queues: List = []
        self._processes: List = []
        self._pending: Dict[int, _PendingJob] = {}
        self._lock = threading.Lock()
        self._next_job_id = 0
        self._closed = False
        self._closing = False
        self._close_lock = threading.Lock()
        self._draining = False
        self._stall_timers: List[threading.Timer] = []
        # admission window: one condition variable is the whole back-pressure
        # story — completions notify it, so a blocked submit wakes in
        # microseconds instead of a poll tick; worker death, respawn and
        # close also notify so blocked producers re-check liveness
        self._admission = threading.Condition()
        self._admitted = 0
        # dispatcher state: per-worker backlogs held server-side, at most
        # DISPATCH_DEPTH jobs resident in a worker's own queue at a time
        self._dispatch_cv = threading.Condition()
        self._backlogs: List[deque] = [deque() for _ in range(num_workers)]
        self._dispatched = [0] * num_workers
        self._dispatcher_stop = False
        try:
            for worker_id in range(num_workers):
                self._processes.append(
                    self._start_worker_process(
                        worker_id,
                        self._job_queues[worker_id],
                        self._result_queues[worker_id],
                    )
                )
        except BaseException:
            # partial spin-up: tear down what started before surfacing the
            # error, so no worker blocks on a queue that will never be fed
            for process in self._processes:
                process.terminate()
                process.join(timeout=5.0)
            for any_queue in self._job_queues + self._result_queues:
                any_queue.close()
                any_queue.cancel_join_thread()
            self._ring.close()
            self._result_ring.close()
            raise
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cluster-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._collector = threading.Thread(
            target=self._collect_results, name="cluster-collector", daemon=True
        )
        self._collector.start()
        self._supervisor: Optional[Supervisor] = None
        if supervision is not None:
            self._supervisor = Supervisor(self, supervision)
            self._supervisor.start()

    def _start_worker_process(self, worker_id: int, job_queue, result_queue):
        """Spawn one worker process over its queue pair and return it started."""
        process = self._context.Process(
            target=worker_main,
            args=(
                worker_id,
                self.config,
                self._ring.name,
                self._slot_bytes,
                job_queue,
                result_queue,
                self._heartbeats,
                self._result_ring.handle(),
                self.tracer.enabled,
            ),
            name=f"cluster-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    # -- protocol ----------------------------------------------------------
    @property
    def extractor_config(self) -> ExtractorConfig:
        """Configuration every worker's extraction engine was built from."""
        return self.config

    def trace(self) -> Trace:
        """The merged cross-process trace of this server's run so far.

        Drains the producer-side tracer into the merge (worker buffers are
        folded in as their result flushes arrive) and returns the
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
        self,
        image: GrayImage,
        frame_id: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> "Future[ExtractionResult]":
        """Queue one frame; blocks while ``max_in_flight`` frames are pending.

        Returns a future resolving to the same
        :class:`~repro.features.ExtractionResult` sequential extraction
        would produce.  ``frame_id`` labels the frame's trace spans and
        worker messages (the job id is used when it is omitted).
        ``deadline_s`` optionally bounds the frame's total serving budget;
        a supervised cluster fails the job with
        :class:`~repro.errors.JobFailed` (attempt history attached) instead
        of retrying it past the budget.  Raises
        :class:`~repro.errors.ReproError` when the server is closed, the
        routed worker has died (unsupervised), or every worker has died
        with no restart pending.
        """
        if self._closed or self._closing:
            raise ReproError("ClusterServer is closed")
        if frame_id is not None and frame_id < 0:
            raise ReproError("frame ids must be non-negative")
        if deadline_s is not None and deadline_s <= 0.0:
            raise ReproError("deadline_s must be positive")
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        key = int(frame_id) if frame_id is not None else job_id
        if self.fault_plan is not None:
            self.fault_plan.on_submit(self, job_id)
        submitted_s = time.perf_counter()
        deadline = submitted_s + deadline_s if deadline_s is not None else None
        self._acquire_admission()
        slot: Optional[int] = None
        registered = False
        worker_id = 0
        try:
            while True:
                worker_id = self._route_once(job_id)
                if worker_id is not None:
                    break
                self._wait_for_alive_worker()
            future: "Future[ExtractionResult]" = Future()
            with self.tracer.span("ring_write", frame=key):
                slot = self._ring.acquire(timeout=_RING_ACQUIRE_TIMEOUT_S)
                if slot is None:
                    self.stats._leaked(1)
                    self.journal.log(
                        "leak_reclaim",
                        job=job_id,
                        reason="frame ring exhausted inside admission window",
                    )
                    raise ReproError(
                        "no free frame ring slot inside the admission window "
                        "(slot leak?)"
                    )
                height, width = self._ring.write(slot, image.pixels)
            job = _PendingJob(
                future,
                worker_id,
                slot,
                key,
                height=height,
                width=width,
                submitted_s=submitted_s,
                deadline=deadline,
            )
            # register + backlog-append under BOTH locks (dispatch CV outer,
            # state lock inner — the same nesting the death handler takes),
            # so a worker death can never interleave between the alive
            # re-check and the append and orphan the message
            with self._dispatch_cv:
                with self._lock:
                    lost = not self.stats.workers[worker_id].alive
                    if lost and self.supervision is not None:
                        worker_id = self._fallback_target_locked(worker_id)
                        lost = False
                    job.worker_id = worker_id
                    if not lost:
                        self._pending[job_id] = job
                        registered = True
                self.stats._submitted(worker_id)
                self.stats._via_ring(height * width)
                if not lost:
                    self._backlogs[worker_id].append(job.message(job_id))
                    self._dispatch_cv.notify_all()
            if lost:
                # unsupervised, and the routed worker died after routing:
                # the frame fails as one in flight on that worker would
                self.stats._failed(worker_id)
                self._release_job_resources(job)
                self._release_admission()
                future.set_exception(
                    ReproError(
                        f"cluster worker {worker_id} died before the frame was queued"
                    )
                )
            self.tracer.complete("submit", submitted_s, frame=key, worker=worker_id)
            return future
        except BaseException:
            if registered:
                with self._lock:
                    job = self._pending.pop(job_id, None)
                if job is not None:
                    self.stats._abandoned(worker_id)
                    self._release_job_resources(job)
            elif slot is not None:
                self._ring.release(slot)
            self._release_admission()
            raise

    def _route_once(self, job_id: int) -> Optional[int]:
        """One routing pass: an alive worker id, or ``None`` (supervised,
        nothing alive right now — the caller waits for a restart).

        Job ``n`` goes to worker ``n % num_workers``.  When that worker is
        down, a supervised cluster reroutes to the shallowest alive queue;
        an unsupervised one fails the submission.
        """
        workers = self.stats.workers
        worker_id = job_id % self.num_workers
        if workers[worker_id].alive:
            return worker_id
        if self.supervision is not None:
            return self._shallowest_alive()
        if not any(worker.alive for worker in workers):
            raise ReproError("every cluster worker has died; serving halted")
        raise ReproError(
            f"cluster worker {worker_id} has died; frame cannot be served"
        )

    def _shallowest_alive(self) -> Optional[int]:
        """The alive worker with the shallowest queue (lowest worker id on
        ties), or ``None`` when no worker is alive."""
        alive = [worker for worker in self.stats.workers if worker.alive]
        if not alive:
            return None
        return min(alive, key=lambda w: (w.queue_depth, w.worker_id)).worker_id

    def _fallback_target_locked(self, worker_id: int) -> int:
        """Replacement owner when ``worker_id`` died after routing.

        Supervised clusters only; callers hold ``_dispatch_cv`` + ``_lock``.
        Prefers the shallowest alive queue; the routed worker's own backlog
        is an acceptable parking spot while its restart is pending (the
        dispatcher skips non-alive workers and the respawn drains it).
        """
        best = self._shallowest_alive()
        if best is not None:
            return best
        worker = self.stats.workers[worker_id]
        if worker.state == WORKER_DEAD:
            return worker_id  # held until the supervisor respawns it
        for candidate in self.stats.workers:
            if candidate.state == WORKER_DEAD:
                return candidate.worker_id
        raise ReproError("every cluster worker has died; serving halted")

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

    # -- admission (back-pressure) -----------------------------------------
    def _recovery_possible(self) -> bool:
        """True while a supervised restart could bring a worker back."""
        if self.supervision is None:
            return False
        return any(worker.state == WORKER_DEAD for worker in self.stats.workers)

    def _acquire_admission(self) -> None:
        """Block until the in-flight window has room, watching worker health.

        Wake-ups are notifications (completion, worker death/respawn,
        close) — the short wait timeout below is only a lost-wakeup safety
        net, not the release latency.
        """
        with self._admission:
            while True:
                if self._closed:
                    raise ReproError(
                        "ClusterServer closed while waiting for an admission slot"
                    )
                if not any(worker.alive for worker in self.stats.workers):
                    if not self._recovery_possible():
                        raise ReproError(
                            "every cluster worker has died; serving halted"
                        )
                elif self._admitted < self.max_in_flight:
                    self._admitted += 1
                    return
                self._admission.wait(timeout=1.0)

    def _release_admission(self) -> None:
        with self._admission:
            self._admitted -= 1
            self._admission.notify()

    def _wait_for_alive_worker(self) -> None:
        """Park a blocked producer until a worker is alive again."""
        with self._admission:
            while True:
                if self._closed:
                    raise ReproError(
                        "ClusterServer closed while waiting for a worker restart"
                    )
                if any(worker.alive for worker in self.stats.workers):
                    return
                if not self._recovery_possible():
                    raise ReproError("every cluster worker has died; serving halted")
                self._admission.wait(timeout=0.05)

    # -- dispatch ----------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Move backlog jobs into worker queues as dispatch windows open."""
        while True:
            with self._dispatch_cv:
                assignment = None
                while assignment is None:
                    if self._dispatcher_stop:
                        return
                    assignment = self._next_assignment()
                    if assignment is None:
                        self._dispatch_cv.wait(timeout=0.2)
                worker_id, message = assignment
                self._dispatched[worker_id] += 1
                job_id = message[0]
                with self._lock:
                    job = self._pending.get(job_id)
                    if job is not None:
                        job.dispatched = True
            if job is None:
                # the job expired or failed while queued; give the window
                # back and drop the stale message
                with self._dispatch_cv:
                    self._dispatched[worker_id] = max(
                        0, self._dispatched[worker_id] - 1
                    )
                continue
            if self.tracer.enabled:
                # backlog wait: submit hand-off until the dispatcher moved
                # the job toward a worker queue (cross-thread, async kind)
                self.tracer.record(
                    "backlog_wait",
                    job.submitted_s,
                    time.perf_counter(),
                    frame=job.key,
                    worker=worker_id,
                )
            try:
                self._job_queues[worker_id].put(message)
            except BaseException:
                self._dispatch_failed(worker_id, job_id)

    def _next_assignment(self):
        """One (worker, job message) pair, or None.  Caller holds the CV.

        The first alive worker with an open dispatch window and a non-empty
        backlog takes the oldest job of its own backlog.
        """
        for worker_id, backlog in enumerate(self._backlogs):
            if not backlog or not self.stats.workers[worker_id].alive:
                continue
            if self._dispatched[worker_id] < DISPATCH_DEPTH:
                return worker_id, backlog.popleft()
        return None

    def _dispatch_failed(self, worker_id: int, job_id: int) -> None:
        """Handle a job whose queue hand-off raised (torn-down queue)."""
        failed_job = None
        with self._dispatch_cv:
            self._dispatched[worker_id] = max(0, self._dispatched[worker_id] - 1)
            with self._lock:
                job = self._pending.get(job_id)
                if job is None or job.worker_id != worker_id:
                    return  # already failed or requeued by the death handler
                if self.supervision is not None and not self._closing:
                    # the death handler (or respawn) will move it; putting
                    # it back preserves submission order at the front
                    job.dispatched = False
                    self._backlogs[worker_id].appendleft(job.message(job_id))
                    self._dispatch_cv.notify_all()
                    return
                del self._pending[job_id]
                failed_job = job
        self.stats._failed(failed_job.worker_id)
        self._release_job_resources(failed_job)
        self._release_admission()
        failed_job.future.set_exception(
            ReproError(f"cluster worker {worker_id} queue rejected the frame")
        )

    # -- result collection / worker health ---------------------------------
    def _collect_results(self) -> None:
        """Sweep every worker's result queue, folding batches into futures.

        The sweep covers live queues AND the retired queues of crashed
        workers, so results a worker flushed just before dying still
        complete their futures (the requeued duplicate, if any, is
        discarded when ``_pending`` comes up empty).  Idle passes block on
        the queues' underlying pipes via ``connection.wait`` — one poll
        for N queues — falling back to a plain sleep when the pipe handles
        are not exposed.
        """
        while True:
            with self._lock:
                queues = list(self._result_queues) + self._retired_result_queues
            drained_any = False
            for result_queue in queues:
                while True:
                    # dequeue + fold under one lock: a death handler that
                    # sees this queue empty knows no descriptor from it is
                    # still being folded (range reclaim safety)
                    with self._collect_lock:
                        try:
                            message = result_queue.get_nowait()
                        except queue_module.Empty:
                            break
                        except (EOFError, OSError, ValueError):
                            break  # queue torn down (close, or crashed worker)
                        drained_any = True
                        self._fold_result_batch(message)
            if drained_any:
                continue
            if self._closed and not self._pending:
                return
            self._check_worker_health()
            try:
                readers = [result_queue._reader for result_queue in queues]
                mp_connection_wait(readers, timeout=_HEALTH_POLL_S)
            except (AttributeError, OSError, ValueError):
                time.sleep(_HEALTH_POLL_S)

    def _drain_worker_result_queue(self, worker_id: int) -> None:
        """Fold everything a (dead) worker's result queue still holds.

        Each dequeue+fold is atomic under ``_collect_lock`` — shared with
        the collector sweep — so when this returns on ``Empty`` no message
        from the queue is mid-fold anywhere: results the worker flushed
        before dying have completed their futures and returned their ring
        slots, and the caller may safely force-reclaim the range.  (A
        SIGKILL mid-put can truncate the stream; the unreadable remainder
        surfaces as an error below and the jobs it carried are simply
        requeued like any other loss.)
        """
        while True:
            with self._collect_lock:
                result_queue = self._result_queues[worker_id]
                try:
                    message = result_queue.get_nowait()
                except queue_module.Empty:
                    return
                except (EOFError, OSError, ValueError):
                    return  # torn stream (killed mid-put / queue closed)
                self._fold_result_batch(message)

    def _fold_result_batch(self, message) -> None:
        worker_id, batch, trace_blob = message
        if trace_blob is not None:
            # the worker's drained span buffer rode along with this flush;
            # its clock-at-flush stamp feeds the track's offset calibration
            worker_clock_s, worker_records = trace_blob
            self._trace.add_worker_spans(
                f"worker-{worker_id}", worker_records, worker_clock_s
            )
        with self._dispatch_cv:
            # the executor finished len(batch) jobs: reopen its window
            self._dispatched[worker_id] = max(
                0, self._dispatched[worker_id] - len(batch)
            )
            self._dispatch_cv.notify_all()
        for job_id, payload, latency_s, error in batch:
            with self._lock:
                job = self._pending.pop(job_id, None)
            if job is None:
                # failed/expired earlier, or a pre-requeue duplicate from
                # a worker that flushed before dying — but a packed slot
                # must return to its range either way
                if isinstance(payload, RingSlotRef):
                    self._result_ring.free(payload.slot)
                continue
            # account the completion BEFORE freeing transport resources
            # and the admission slot: a producer blocked on admission
            # must not see the window shrink before the in-flight
            # counter does (else max_in_flight can overshoot).  The
            # accounting target is the job's CURRENT owner — after a
            # crash requeue that is where its queue_depth sits.
            if error is None:
                if isinstance(payload, RingSlotRef):
                    # one memcpy out of the shared slot, then the slot is
                    # immediately reusable by its worker
                    packed = self._result_ring.slot_view(payload.slot)
                    result = unpack_result(packed[: payload.nbytes])
                    self._result_ring.free(payload.slot)
                    self.stats._result_collected(True, payload.nbytes)
                else:
                    result = payload
                    self.stats._result_collected(False, 0)
                self.stats._completed(job.worker_id, latency_s)
                self._release_job_resources(job)
                self._release_admission()
                job.future.set_result(result)
                if self.tracer.enabled:
                    self.tracer.record(
                        "serve",
                        job.submitted_s,
                        time.perf_counter(),
                        frame=job.key,
                        worker=worker_id,
                    )
                    self.tracer.instant("resolve", frame=job.key)
            else:
                self.stats._failed(job.worker_id)
                self._release_job_resources(job)
                self._release_admission()
                job.future.set_exception(
                    ReproError(
                        f"cluster worker {worker_id} extraction failed: {error}"
                    )
                )

    def _release_job_resources(self, job: _PendingJob) -> None:
        """Return a finished job's frame ring slot to the pool.

        A collected result (or a failure) proves no worker still reads the
        slot's pixels, so it can be reused at once.
        """
        self._ring.release(job.slot)

    def _check_worker_health(self) -> None:
        for worker_id, process in enumerate(list(self._processes)):
            worker = self.stats.workers[worker_id]
            if process.exitcode is None:
                continue
            if not worker.alive:
                continue
            if self._draining and process.exitcode == 0:
                continue  # normal sentinel exit while close() drains
            self._on_worker_exit(worker_id, process)

    def _on_worker_exit(
        self, worker_id: int, process, reason: Optional[str] = None
    ) -> None:
        """Fold the exit of worker ``process`` into job state: fail (legacy) or requeue.

        Without supervision this matches the historical fail-fast handling
        (jobs fail with a :class:`~repro.errors.ReproError`, the worker is
        permanently down).  With supervision the worker is marked ``dead``
        for the supervisor to respawn, and every job it owned is requeued
        to alive workers — front of the target backlog, submission order
        preserved — unless its deadline or retry budget is exhausted, in
        which case it fails with a :class:`~repro.errors.JobFailed`
        carrying the attempt history.

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
        # Fold whatever the dead worker flushed before dying FIRST: those
        # futures complete (no wasted recompute), their ring slots free,
        # and — because dequeue+fold is atomic — once the queue reads
        # empty no descriptor into the dead range is in flight anywhere.
        # The process is already joined, so the queue gains nothing more.
        self._drain_worker_result_queue(worker_id)
        failures: List[Tuple[_PendingJob, Exception]] = []
        requeued = 0
        with self._dispatch_cv:
            with self._lock:
                worker = self.stats.workers[worker_id]
                if (
                    worker.state != WORKER_RUNNING
                    or self._processes[worker_id] is not process
                ):
                    return  # already handled (kill + health check race)
                supervised = self.supervision is not None
                worker.state = WORKER_DEAD if supervised else WORKER_FAILED
                worker.alive = False
                doomed = sorted(
                    (
                        (job_id, job)
                        for job_id, job in self._pending.items()
                        if job.worker_id == worker_id
                    ),
                    reverse=True,  # appendleft in descending id keeps order
                )
                for job_id, _ in doomed:
                    del self._pending[job_id]
                self._backlogs[worker_id].clear()
                self._dispatched[worker_id] = 0
                # force-reclaim the dead range: the drain above proved no
                # descriptor into it survives, and a respawn cannot begin
                # before this block publishes the DEAD state, so the
                # reclaim can never race a replacement worker's claims
                self._result_ring.reclaim_range(worker_id)
                for job_id, job in doomed:
                    if not supervised:
                        failures.append(
                            (
                                job,
                                ReproError(
                                    f"cluster worker {worker_id} {reason} "
                                    "with frames in flight"
                                ),
                            )
                        )
                        continue
                    was_dispatched = job.dispatched
                    if was_dispatched:
                        # only a job that actually reached the worker burns
                        # retry budget; a queued job just moves
                        job.attempts.append(
                            JobAttempt(worker_id, reason, now - job.submitted_s)
                        )
                    if job.deadline is not None and now > job.deadline:
                        failures.append(
                            (
                                job,
                                JobFailed(
                                    f"frame deadline expired after worker "
                                    f"{worker_id} {reason}",
                                    tuple(job.attempts),
                                ),
                            )
                        )
                        continue
                    if len(job.attempts) > self.supervision.max_retries:
                        failures.append(
                            (
                                job,
                                JobFailed(
                                    f"retry budget of "
                                    f"{self.supervision.max_retries} exhausted",
                                    tuple(job.attempts),
                                ),
                            )
                        )
                        continue
                    target = self._fallback_target_locked(worker_id)
                    job.worker_id = target
                    job.dispatched = False
                    self._pending[job_id] = job
                    self._backlogs[target].appendleft(job.message(job_id))
                    self.stats._requeued(worker_id, target, retried=was_dispatched)
                    requeued += 1
            self._dispatch_cv.notify_all()
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
            self.stats._failed(worker_id)
            self._release_job_resources(job)
            self._release_admission()
            job.future.set_exception(error)
        with self._admission:
            self._admission.notify_all()  # blocked producers re-check liveness

    def kill_worker(self, worker_id: int) -> None:
        """Fault-injection hook: kill one worker and surface the failure.

        Used by the crash tests (and :class:`repro.chaos.FaultPlan`): the
        worker process is killed and joined; without supervision every
        submission pending on it fails with a
        :class:`~repro.errors.ReproError`, with supervision its jobs are
        requeued and the supervisor respawns it.
        """
        if not 0 <= worker_id < len(self.stats.workers):
            raise ReproError(f"no cluster worker {worker_id}")
        process = self._processes[worker_id]
        if process.exitcode is None:
            process.kill()
        process.join()
        self._on_worker_exit(worker_id, process)

    # -- chaos hooks (repro.chaos.FaultPlan) --------------------------------
    def chaos_kill(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Kill one alive worker (SIGKILL) and fold the death in synchronously.

        ``worker_id`` is a preference; a dead preference falls back
        to the first alive worker.  Returns the killed worker id, or
        ``None`` when nothing was alive to kill.
        """
        target = self._pick_chaos_target(worker_id)
        if target is None:
            return None
        process = self._processes[target]
        if process.exitcode is None:
            process.kill()
        process.join(timeout=5.0)
        self._on_worker_exit(target, process, reason="chaos kill")
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
    def _dispatched_count(self, worker_id: int) -> int:
        with self._dispatch_cv:
            return self._dispatched[worker_id]

    def _last_heartbeat(self, worker_id: int) -> float:
        return float(self._heartbeats[worker_id])

    def _kill_stalled_worker(self, worker_id: int, stalled_for_s: float) -> None:
        """Kill a heartbeat-stalled worker; its jobs requeue like a crash."""
        process = self._processes[worker_id]
        if process.exitcode is None:
            try:
                process.kill()
            except OSError:
                return  # not signalable and not exited: the next tick retries
        process.join(timeout=5.0)
        self.journal.log(
            "stall_kill", worker_id=worker_id, stalled_for_s=round(stalled_for_s, 3)
        )
        self._on_worker_exit(
            worker_id,
            process,
            reason=f"stalled (no heartbeat for {stalled_for_s:.1f}s); killed",
        )

    def _respawn_worker(self, worker_id: int) -> bool:
        """Restart one dead worker slot with the same engine configuration.

        Fresh job AND result queues replace the dead worker's pair before
        the slot is marked alive: stale job messages (already requeued
        elsewhere) can never reach the replacement, and a lock the dead
        process held on either old queue can never wedge the new one.  The
        old result queue moves to the retired list so anything the worker
        flushed before dying is still collected.  Returns False when the
        server is closing, the slot is not restartable, or the spawn
        itself failed (the supervisor retries after backoff).
        """
        if self._closed or self._closing:
            return self._respawn_refused(worker_id, "closing")
        worker = self.stats.workers[worker_id]
        if worker.state != WORKER_DEAD:
            return self._respawn_refused(worker_id, f"state {worker.state}")
        old_process = self._processes[worker_id]
        if old_process.exitcode is None:
            return self._respawn_refused(worker_id, "still exiting")  # next tick
        new_queue = self._context.Queue()
        new_result_queue = self._context.Queue()
        self._heartbeats[worker_id] = 0.0
        try:
            process = self._start_worker_process(
                worker_id, new_queue, new_result_queue
            )
        except Exception as error:
            for failed_queue in (new_queue, new_result_queue):
                failed_queue.close()
                failed_queue.cancel_join_thread()
            return self._respawn_refused(
                worker_id, f"spawn failed: {type(error).__name__}: {error}"
            )
        old_queue = self._job_queues[worker_id]
        with self._dispatch_cv:
            with self._lock:
                self._job_queues[worker_id] = new_queue
                self._retired_result_queues.append(
                    self._result_queues[worker_id]
                )
                self._result_queues[worker_id] = new_result_queue
                self._processes[worker_id] = process
                worker.state = WORKER_RUNNING
                worker.alive = True
            self._dispatch_cv.notify_all()
        self.stats._restarted(worker_id)
        self.journal.log(
            "restart",
            worker_id=worker_id,
            restarts=self.stats.workers[worker_id].restarts,
        )
        with self._admission:
            self._admission.notify_all()  # blocked producers can route again
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
        with self._dispatch_cv:
            with self._lock:
                worker = self.stats.workers[worker_id]
                if worker.state != WORKER_DEAD:
                    return
                worker.state = WORKER_FAILED
                held = sorted(
                    (
                        (job_id, job)
                        for job_id, job in self._pending.items()
                        if job.worker_id == worker_id
                    ),
                    reverse=True,
                )
                for job_id, _ in held:
                    del self._pending[job_id]
                self._backlogs[worker_id].clear()
                for job_id, job in held:
                    try:
                        target = self._fallback_target_locked(worker_id)
                    except ReproError:
                        target = None
                    if target is None or target == worker_id:
                        job.attempts.append(
                            JobAttempt(
                                worker_id,
                                "worker restart budget exhausted",
                                now - job.submitted_s,
                            )
                        )
                        failures.append(
                            (
                                job,
                                JobFailed(
                                    f"cluster worker {worker_id} permanently "
                                    "failed (restart budget exhausted)",
                                    tuple(job.attempts),
                                ),
                            )
                        )
                        continue
                    job.worker_id = target
                    job.dispatched = False
                    self._pending[job_id] = job
                    self._backlogs[target].appendleft(job.message(job_id))
                    self.stats._requeued(worker_id, target, retried=False)
            self._dispatch_cv.notify_all()
        self.journal.log(
            "worker_failed", worker_id=worker_id, failed=len(failures)
        )
        for job, error in failures:
            self.stats._failed(worker_id)
            self._release_job_resources(job)
            self._release_admission()
            job.future.set_exception(error)
        with self._admission:
            self._admission.notify_all()

    def _expire_deadlines(self) -> None:
        """Fail queued (undispatched) jobs whose deadline has passed.

        Dispatched jobs are left alone — releasing a ring slot a live
        worker may still be reading would race; their deadline is enforced
        at requeue time if the worker dies, or simply when the (late)
        result arrives.
        """
        now = time.perf_counter()
        expired: List[Tuple[int, _PendingJob]] = []
        with self._dispatch_cv:
            with self._lock:
                for job_id, job in list(self._pending.items()):
                    if job.deadline is None or job.dispatched or now <= job.deadline:
                        continue
                    backlog = self._backlogs[job.worker_id]
                    for message in backlog:
                        if message[0] == job_id:
                            backlog.remove(message)
                            break
                    else:
                        continue  # mid-dispatch; the next pass settles it
                    del self._pending[job_id]
                    expired.append((job_id, job))
        for job_id, job in expired:
            job.attempts.append(
                JobAttempt(
                    job.worker_id,
                    "deadline expired before dispatch",
                    now - job.submitted_s,
                )
            )
            self.journal.log("expired", worker_id=job.worker_id, job=job_id)
            self.stats._failed(job.worker_id)
            self._release_job_resources(job)
            self._release_admission()
            job.future.set_exception(
                JobFailed(
                    "frame deadline expired before dispatch", tuple(job.attempts)
                )
            )

    # -- lifecycle ---------------------------------------------------------
    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Gracefully drain in-flight frames and tear the cluster down.

        Idempotent and crash-safe: a second call returns immediately, a
        worker that died mid-drain neither hangs the drain nor races the
        shared-memory unlink (every process is joined before the rings are
        released), and any transport slot a crash left leased is
        force-reclaimed and counted in ``ClusterStats.leaked_slots``.
        """
        with self._close_lock:
            if self._closed or self._closing:
                return
            self._closing = True
            self._draining = True
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
        with self._admission:
            self._closed = True
            self._admission.notify_all()  # blocked producers raise, not hang
        with self._dispatch_cv:
            self._dispatcher_stop = True
            self._dispatch_cv.notify_all()
        self._dispatcher.join(timeout=5.0)
        for worker_id, worker in enumerate(self.stats.workers):
            if worker.alive:
                try:
                    self._job_queues[worker_id].put(SHUTDOWN)
                except (ValueError, OSError):
                    pass
        with self._lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
        for job_id, job in leftovers:
            self.stats._failed(job.worker_id)
            self._release_job_resources(job)
            self._release_admission()
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
                pass  # the OS refused the signal; the rings are still released
        self._collector.join(timeout=5.0)
        all_queues = (
            self._job_queues + self._result_queues + self._retired_result_queues
        )
        for any_queue in all_queues:
            any_queue.close()
            any_queue.cancel_join_thread()
        # leak audit: with every job released and every worker joined,
        # anything still leased was leaked by a crash path — reclaim it
        # and make it visible before the shared memory goes away
        # every crash already reclaimed its result range synchronously, so a
        # result slot still claimed here lost its descriptor without a crash
        # — a genuine leak
        leaked = self._ring.in_flight() + self._result_ring.in_use()
        if leaked:
            self.stats._leaked(leaked)
            self.journal.log("leak_reclaim", count=leaked, at="close")
        self._ring.close()
        self._result_ring.close()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
