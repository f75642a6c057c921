"""Observability layer for the serving stack (``docs/observability.md``).

Three pillars, each importable on its own and all wired through
``repro.cluster``:

* :mod:`~repro.telemetry.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  primitives in a :class:`MetricsRegistry` with JSON and Prometheus text
  exposition; the stack's legacy stats objects are views over one registry.
* :mod:`~repro.telemetry.trace` — near-zero-overhead cross-process frame
  tracing; worker span buffers ride the result queue back to the server,
  which calibrates per-worker clock offsets and exports Chrome trace-event
  JSON loadable in Perfetto.
* :mod:`~repro.telemetry.journal` — typed supervision/routing events with
  monotonic timestamps and the active fault-plan seed, rendering chaos runs
  into postmortem timelines.
"""

from .journal import Event, EventJournal
from .metrics import (
    ActivityWindow,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from .trace import (
    Trace,
    Tracer,
    current_tracer,
    load_chrome_trace,
    set_tracer,
)

__all__ = [
    "ActivityWindow",
    "Counter",
    "Event",
    "EventJournal",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Trace",
    "Tracer",
    "current_tracer",
    "load_chrome_trace",
    "set_tracer",
]
