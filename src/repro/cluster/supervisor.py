"""Self-healing control plane for the process cluster.

The paper's FPGA datapath never dies; a worker process can.  This module
holds the supervision configuration and the supervisor thread that keep a
:class:`~repro.cluster.server.ClusterServer` serving through worker
crashes and stalls.  :class:`SupervisorConfig` turns it on: watch every
worker process (exit code + heartbeat), kill stalled workers, respawn dead
ones with the same engine configuration under capped exponential backoff,
and requeue their pending jobs to alive workers.  A job is retried at most
``max_retries`` times; past that budget it fails with a structured
:class:`~repro.errors.JobFailed` carrying the full attempt history.

The supervisor owns only the *decisions* (when to kill, respawn, give up);
the *mechanics* (process spawning, job requeueing, slot reclamation) live
on the server so they share its locking discipline.  Failure semantics
are documented in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from .server import ClusterServer

#: Worker lifecycle states tracked by :class:`~repro.cluster.WorkerStats`.
#: ``running`` serves; ``dead`` awaits a supervised restart; ``failed`` is
#: permanently gone (supervision off, or restart budget exhausted).
WORKER_RUNNING = "running"
WORKER_DEAD = "dead"
WORKER_FAILED = "failed"


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the worker supervision / retry loop.

    ``max_retries`` bounds how often one job may be requeued after worker
    deaths (the N+1-th death fails it with :class:`~repro.errors.JobFailed`).
    ``heartbeat_timeout_s`` declares a worker *stalled* when it owns
    pending jobs but has not beaten for this long — it is then killed
    and restarted, and its jobs requeued, so the worst cost of a false
    positive (one genuinely slow frame) is a retry, never a wrong result.
    Restarts back off exponentially from ``restart_backoff_s`` doubling up
    to ``restart_backoff_max_s``; ``max_restarts`` (per worker, ``None`` =
    unlimited) turns a crash-looping worker into a permanent failure.
    """

    max_retries: int = 2
    heartbeat_timeout_s: float = 10.0
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    max_restarts: Optional[int] = None
    interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError("max_retries must be non-negative")
        if self.heartbeat_timeout_s <= 0.0:
            raise ReproError("heartbeat_timeout_s must be positive")
        if self.restart_backoff_s <= 0.0 or self.restart_backoff_max_s <= 0.0:
            raise ReproError("restart backoff values must be positive")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ReproError("max_restarts must be non-negative or None")


class Supervisor:
    """Control-loop thread: health, stalls and restarts.

    One supervisor runs per server whenever supervision is configured.
    Every tick it (1) folds observed worker exits into the server's death
    handler, (2) kills workers whose heartbeat has stalled while they own
    pending jobs, and (3) respawns dead workers whose backoff window has
    passed.  A failing respawn simply reschedules with a doubled backoff;
    a tick that raises is counted in
    ``cluster_supervisor_tick_errors_total`` and journaled as a
    ``supervisor_tick_error`` row, and the loop carries on.
    """

    def __init__(self, server: "ClusterServer", supervision: SupervisorConfig) -> None:
        self._server = server
        self.supervision = supervision
        self._tick_errors = server.registry.counter(
            "cluster_supervisor_tick_errors_total",
            help="supervisor control ticks that raised",
        )
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="cluster-supervisor", daemon=True
        )
        # per-worker restart schedule: next allowed respawn time + current
        # backoff (doubles per respawn, capped); cleared when a worker has
        # proven itself by surviving a full max-backoff window
        self._next_restart_at: Dict[int, float] = {}
        self._backoff_s: Dict[int, float] = {}
        self._respawned_at: Dict[int, float] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop_event.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout_s)

    def _run(self) -> None:
        while not self._stop_event.wait(self.supervision.interval_s):
            try:
                self.tick()
            except Exception as error:
                # the control loop must outlive any single bad tick (the
                # next tick re-observes the same state and retries), but a
                # tick that fails every time must not go unnoticed
                self._tick_errors.inc()
                self._server.journal.log(
                    "supervisor_tick_error",
                    error=type(error).__name__,
                    message=str(error),
                )

    # -- one control tick --------------------------------------------------
    def tick(self) -> None:
        """One pass of the control loop (also callable from tests)."""
        self._server._check_worker_health()
        self._kill_stalled_workers()
        self._respawn_dead_workers()

    # -- supervision -------------------------------------------------------
    def _kill_stalled_workers(self) -> None:
        now = time.monotonic()
        for worker in list(self._server.stats.workers):
            worker_id = worker.worker_id
            if worker.state != WORKER_RUNNING:
                continue
            if worker.queue_depth <= 0:
                continue  # an idle worker parked on its queue cannot stall
            beat = self._server._last_heartbeat(worker_id)
            if beat <= 0.0:
                continue  # not booted yet; spin-up is covered by exit codes
            if now - beat > self.supervision.heartbeat_timeout_s:
                self._server._kill_stalled_worker(
                    worker_id, stalled_for_s=now - beat
                )

    def _respawn_dead_workers(self) -> None:
        config = self.supervision
        now = time.monotonic()
        for worker in list(self._server.stats.workers):
            worker_id = worker.worker_id
            if worker.state != WORKER_DEAD:
                continue
            if (
                config.max_restarts is not None
                and worker.restarts >= config.max_restarts
            ):
                self._server._give_up_worker(worker_id)
                self._forget_schedule(worker_id)
                continue
            if worker_id not in self._next_restart_at:
                # first death restarts immediately; the backoff only paces
                # *repeated* deaths of the same worker slot
                survived = now - self._respawned_at.get(worker_id, 0.0)
                if survived > 2.0 * config.restart_backoff_max_s:
                    self._backoff_s.pop(worker_id, None)  # proven stable
                self._next_restart_at[worker_id] = now
            if now < self._next_restart_at[worker_id]:
                continue
            backoff = self._backoff_s.get(worker_id, config.restart_backoff_s)
            if self._server._respawn_worker(worker_id):
                self._respawned_at[worker_id] = time.monotonic()
                self._backoff_s[worker_id] = min(
                    2.0 * backoff, config.restart_backoff_max_s
                )
                del self._next_restart_at[worker_id]
            else:
                # spawn failed (or the server is closing): try again after
                # the capped backoff instead of spinning
                self._next_restart_at[worker_id] = now + backoff
                self._backoff_s[worker_id] = min(
                    2.0 * backoff, config.restart_backoff_max_s
                )
                self._server.journal.log(
                    "restart_backoff",
                    worker_id=worker_id,
                    backoff_s=round(backoff, 3),
                )

    def _forget_schedule(self, worker_id: int) -> None:
        self._next_restart_at.pop(worker_id, None)
        self._backoff_s.pop(worker_id, None)
