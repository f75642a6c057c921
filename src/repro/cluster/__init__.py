"""Multi-process sharded serving with shared-memory frame transport.

:class:`ClusterServer` spawns N worker processes, each owning one
extraction engine, and streams frames to them through
``multiprocessing.shared_memory`` ring slots (no pixel pickling).  Results
return the same way: workers pack each extraction result's flat arrays
into a :class:`SharedResultRing` slot and the result queues carry only
tiny descriptors (``docs/serving.md`` → Result transport).  It is the
one frame server :meth:`repro.slam.SlamSystem.run` pipelines through:
bounded in-flight back-pressure, in-order results and bit-identical
extraction, past the single GIL.  Job ``n`` goes to worker
``n % num_workers``.  With a :class:`SupervisorConfig` the cluster
self-heals: crashed workers respawn, and their jobs requeue to alive
workers under retry/deadline budgets.  See ``docs/serving.md`` and its
"Failure semantics" section for the supervision rules.
"""

from ..errors import JobAttempt, JobFailed
from .result_ring import ResultRingHandle, RingSlotRef, SharedResultRing
from .server import ClusterServer, ClusterStats, WorkerStats
from .shared_ring import SharedFrameRing
from .supervisor import (
    WORKER_DEAD,
    WORKER_FAILED,
    WORKER_RUNNING,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "ClusterServer",
    "ClusterStats",
    "WorkerStats",
    "SharedFrameRing",
    "SharedResultRing",
    "ResultRingHandle",
    "RingSlotRef",
    "Supervisor",
    "SupervisorConfig",
    "JobAttempt",
    "JobFailed",
    "WORKER_RUNNING",
    "WORKER_DEAD",
    "WORKER_FAILED",
]
