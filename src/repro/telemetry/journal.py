"""Structured event journal for supervision decisions.

Counters say *how many* restarts happened; a chaos postmortem needs to know
*when*, *to whom*, and *in what order* relative to the deaths and requeues
around them.  The journal records every supervision event
as a typed :class:`Event` with a monotonic timestamp (``time.perf_counter``
— the same clock the tracer uses, so journal rows line up with trace spans)
plus the active :class:`~repro.chaos.FaultPlan` seed when one is installed,
turning a seeded chaos run into a replayable timeline
(:meth:`EventJournal.timeline`).

Event kinds logged by the stack (``docs/observability.md`` → Event journal
schema):

==================  ==========================================================
kind                meaning
==================  ==========================================================
``worker_dead``     collector noticed a worker process exit
``worker_failed``   worker gave up (restart budget exhausted)
``restart``         supervisor (or collector) respawned a worker
``stall_kill``      supervisor killed a worker whose heartbeat went stale
``requeue``         pending frames of a dead worker were sent elsewhere
``frame_failed``    extraction raised in a worker (``frame``, ``error``)
``restart_backoff``  a respawn attempt failed; retry scheduled after backoff
``restart_refused``  a respawn attempt did not start a worker (``reason``)
``supervisor_tick_error``  a supervisor control tick raised (exception type)
``chaos_kill``      fault plan killed a worker (injected)
``chaos_stall``     fault plan wedged a worker's heartbeat (injected)
==================  ==========================================================
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Bounded capacity: one journal row is tiny, but a runaway restart loop
#: must not grow memory without bound.  Oldest rows are dropped first.
DEFAULT_CAPACITY = 8192


@dataclass(frozen=True)
class Event:
    """One journal row.

    ``at_s`` is ``time.perf_counter()`` at log time — monotonic, and
    directly comparable with trace span times on the same process.
    ``seed`` is the active fault-plan seed (None outside chaos runs) so a
    postmortem can name the exact storm that produced the timeline.
    """

    at_s: float
    kind: str
    worker_id: Optional[int] = None
    seed: Optional[int] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        row = {"at_s": self.at_s, "kind": self.kind}
        if self.worker_id is not None:
            row["worker_id"] = self.worker_id
        if self.seed is not None:
            row["seed"] = self.seed
        if self.detail:
            row.update(self.detail)
        return row


class EventJournal:
    """Append-only, bounded, thread-safe event log.

    The cluster server owns one journal and every supervision/routing
    site logs through it; a :class:`~repro.chaos.FaultPlan` installs its
    seed via :attr:`fault_seed` when it starts firing so injected faults
    and the stack's reactions carry the same provenance.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._capacity = max(1, int(capacity))
        self._events: List[Event] = []
        self._dropped = 0
        self._lock = threading.Lock()
        #: Seed of the fault plan currently driving chaos (None otherwise).
        self.fault_seed: Optional[int] = None

    def log(self, kind: str, worker_id: Optional[int] = None, **detail) -> Event:
        """Record one event; returns the row for callers that re-emit it."""
        event = Event(
            at_s=time.perf_counter(),
            kind=kind,
            worker_id=worker_id,
            seed=self.fault_seed,
            detail=detail,
        )
        with self._lock:
            self._events.append(event)
            if len(self._events) > self._capacity:
                overflow = len(self._events) - self._capacity
                del self._events[:overflow]
                self._dropped += overflow
        return event

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Rows in arrival order, optionally filtered by kind."""
        with self._lock:
            rows = list(self._events)
        if kind is not None:
            rows = [event for event in rows if event.kind == kind]
        return rows

    def as_dicts(self) -> List[dict]:
        return [event.as_dict() for event in self.events()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def timeline(self) -> str:
        """The journal rendered as a readable postmortem timeline.

        Timestamps are shown relative to the first row; one line per
        event, e.g.::

            +0.000s  chaos_kill    worker=1  [seed 7]
            +0.004s  worker_dead   worker=1  requeued=2
            +0.012s  restart       worker=1  restarts=1
        """
        rows = self.events()
        if not rows:
            return "(empty journal)"
        origin = rows[0].at_s
        lines = []
        for event in rows:
            parts = [f"+{event.at_s - origin:.3f}s", f"{event.kind:<16}"]
            if event.worker_id is not None:
                parts.append(f"worker={event.worker_id}")
            parts.extend(f"{key}={value}" for key, value in event.detail.items())
            if event.seed is not None:
                parts.append(f"[seed {event.seed}]")
            lines.append("  ".join(parts))
        return "\n".join(lines)
