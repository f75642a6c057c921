"""Seeded fault-injection plans for the cluster serving stack.

A :class:`FaultPlan` is a deterministic schedule of faults keyed on the
cluster's submission counter: *at the moment job N is submitted*, fire
these faults.  Determinism is the whole point — the chaos tests and
``benchmarks/bench_chaos_recovery.py`` must be able to say "a worker is
killed every 8th frame, seeded at 7" and replay exactly that storm on
every run, instead of poking workers from an unsynchronised timer thread
whose interleaving never reproduces.

Two fault kinds cover the failure surfaces of
:class:`~repro.cluster.ClusterServer`:

* ``kill`` — SIGKILL one worker (→ crash handling: requeue/retry under
  supervision, structured failure without);
* ``stall`` — SIGSTOP one worker for ``duration_s`` (→ heartbeat stall
  detection; the supervisor kills and respawns it).

Faults fire *synchronously inside* ``submit`` (the server calls
:meth:`FaultPlan.on_submit` before any resource is acquired for the job),
so the fault's position in the submission stream is exact even on one
core.  What stays nondeterministic — how far each worker got before the
kill — is exactly what the tests must be robust to, and the invariants
they assert (bit-identical in-order results, nothing left admitted or
pending after close) hold regardless.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Fault kinds a plan may schedule.
FAULT_KINDS = ("kill", "stall")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at_submit`` is the submission index (the cluster's job counter) the
    fault fires at; ``worker_id`` is a *preference* — a dead preference
    falls back to the first alive worker, so a storm schedule
    stays meaningful even after earlier faults changed the pool.
    """

    at_submit: int
    kind: str
    worker_id: Optional[int] = None
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at_submit < 0:
            raise ReproError("at_submit must be non-negative")
        if self.duration_s < 0.0:
            raise ReproError("duration_s must be non-negative")


@dataclass
class FiredFault:
    """Record of one fault that actually fired (plan report / bench JSON)."""

    at_submit: int
    kind: str
    worker_id: Optional[int]
    duration_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_submit": self.at_submit,
            "kind": self.kind,
            "worker_id": self.worker_id,
            "duration_s": self.duration_s,
        }


class FaultPlan:
    """A deterministic fault schedule, driven by the cluster's submit path.

    Pass a plan to :class:`~repro.cluster.ClusterServer` via its
    ``fault_plan`` parameter; the server calls :meth:`on_submit` with every
    job id.  Instances are single-use: each event fires at
    most once, and :attr:`fired` accumulates what actually happened for
    the post-run report.
    """

    def __init__(self, events: Sequence[FaultEvent], seed: int = 0) -> None:
        self.seed = seed
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.at_submit)
        )
        self._by_submit: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            self._by_submit.setdefault(event.at_submit, []).append(event)
        self.fired: List[FiredFault] = []
        self._lock = threading.Lock()

    @classmethod
    def storm(
        cls,
        frames: int,
        every: int = 8,
        kinds: Sequence[str] = ("kill",),
        num_workers: int = 2,
        stall_s: float = 0.2,
        seed: int = 0,
    ) -> "FaultPlan":
        """A seeded fault-every-N-frames storm over a ``frames``-long run.

        Every ``every``-th submission draws a fault kind from ``kinds`` and
        a preferred worker from ``range(num_workers)`` using a
        :class:`random.Random` seeded with ``seed``, so the same arguments
        always build the same storm.
        """
        if every <= 0:
            raise ReproError("every must be positive")
        if not kinds:
            raise ReproError("storm needs at least one fault kind")
        rng = random.Random(seed)
        events = []
        for at_submit in range(every, frames, every):
            events.append(
                FaultEvent(
                    at_submit=at_submit,
                    kind=rng.choice(list(kinds)),
                    worker_id=rng.randrange(num_workers),
                    duration_s=stall_s,
                )
            )
        return cls(events, seed=seed)

    # -- server-facing hooks ------------------------------------------------
    def on_submit(self, server, job_id: int) -> None:
        """Fire every fault scheduled at submission ``job_id`` (at most once)."""
        with self._lock:
            events = self._by_submit.pop(job_id, None)
        if not events:
            return
        for event in events:
            self._fire(server, event)

    def _fire(self, server, event: FaultEvent) -> None:
        # Stamp the plan's seed into the server's event journal before the
        # fault's consequences land, so every reaction row (worker_dead,
        # restart, requeue, ...) carries the storm's provenance.
        journal = getattr(server, "journal", None)
        if journal is not None:
            journal.fault_seed = self.seed
        target: Optional[int] = event.worker_id
        if event.kind == "kill":
            target = server.chaos_kill(event.worker_id)
        elif event.kind == "stall":
            target = server.chaos_stall(event.worker_id, duration_s=event.duration_s)
        if journal is not None:
            journal.log(
                f"chaos_{event.kind}",
                worker_id=target,
                at_submit=event.at_submit,
                duration_s=event.duration_s,
            )
        with self._lock:
            self.fired.append(
                FiredFault(event.at_submit, event.kind, target, event.duration_s)
            )

    # -- reporting ----------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """JSON-friendly summary of the schedule and what actually fired."""
        with self._lock:
            fired = [entry.as_dict() for entry in self.fired]
        kinds: Dict[str, int] = {}
        for entry in fired:
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        return {
            "seed": self.seed,
            "scheduled": len(self.events),
            "fired": len(fired),
            "fired_by_kind": kinds,
            "events": fired,
        }
