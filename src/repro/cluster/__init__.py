"""Multi-process sharded serving over per-worker queues.

:class:`ClusterServer` spawns N worker processes, each owning one
extraction engine, and hands each worker its frames and takes back its
results through that worker's own ``multiprocessing`` queues
(``docs/serving.md`` → Transport).  It is the one frame server
:meth:`repro.slam.SlamSystem.run` pipelines through: bounded in-flight
back-pressure, in-order results and bit-identical extraction, past the
single GIL.  Job ``n`` goes to worker ``n % num_workers``.  With a
:class:`SupervisorConfig` the cluster self-heals: crashed workers respawn,
and their jobs requeue to alive workers under a retry budget.
See ``docs/serving.md`` and its "Failure semantics" section for the
supervision rules.
"""

from ..errors import JobAttempt, JobFailed
from .server import ClusterServer, ClusterStats, WorkerStats
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
    "Supervisor",
    "SupervisorConfig",
    "JobAttempt",
    "JobFailed",
    "WORKER_RUNNING",
    "WORKER_DEAD",
    "WORKER_FAILED",
]
