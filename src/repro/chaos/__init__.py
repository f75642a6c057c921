"""Chaos engineering for the serving stack: seeded, replayable fault plans.

:class:`FaultPlan` schedules worker kills and worker stalls against
submission indices of a :class:`~repro.cluster.ClusterServer`, firing
its ``chaos_kill`` / ``chaos_stall`` hooks from inside ``submit``, so the
chaos tests (``tests/test_chaos.py``) and the recovery benchmark
(``benchmarks/bench_chaos_recovery.py``) replay a storm exactly.  See ``docs/serving.md`` → Failure semantics.
"""

from .plan import FAULT_KINDS, FaultEvent, FaultPlan, FiredFault

__all__ = ["FaultPlan", "FaultEvent", "FiredFault", "FAULT_KINDS"]
