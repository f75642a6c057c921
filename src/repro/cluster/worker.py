"""Worker-process entry point of the cluster serving layer.

Each worker owns ONE extraction engine — exactly like one fixed-function
extraction pipeline of the paper's accelerator — built inside the worker
process from the pickled :class:`~repro.config.ExtractorConfig`, so engines
in different workers share nothing and the GIL of one process never stalls
another.  Frames arrive as ``(job_id, key, pixels)`` messages on the
worker's own job queue; ``key`` is the frame id (the caller-supplied one, or
the job id when none was given) and labels the worker's trace spans.

Each :class:`~repro.features.ExtractionResult` goes back on the worker's
own result queue the moment its extraction completes, one put per job:
the tracker waits on results in order, so a finished result never waits
behind the next job.  Jobs run first in, first out, and the server's
retry charge after a crash relies on that order.

Robustness plumbing (``docs/serving.md`` → Failure semantics): workers
ignore ``SIGINT`` so a Ctrl-C aimed at the parent never kills the pool out
from under a graceful ``close()``, and each worker stamps a monotonic
**heartbeat** into a shared array between jobs (and every
:data:`HEARTBEAT_INTERVAL_S` while parked on an empty queue), which is what
lets the supervisor distinguish a worker that is busy from one that is
stuck and must be killed and respawned.

The function lives at module scope so both ``fork`` and ``spawn`` start
methods can target it.
"""

from __future__ import annotations

import queue as queue_module
import signal
import time

#: Control message closing a worker's job queue (graceful drain).
SHUTDOWN = None

#: How often a parked worker refreshes its heartbeat while waiting for work.
HEARTBEAT_INTERVAL_S = 0.5


def worker_main(
    worker_id: int,
    config,
    job_queue,
    result_queue,
    heartbeat,
    trace_enabled: bool = False,
) -> None:
    """Consume frame jobs until the shutdown sentinel arrives.

    Result messages are ``(worker_id, job_id, payload, latency_s, error,
    trace_blob)``, one per job, with exactly one of ``payload`` / ``error``
    set; ``payload`` is the :class:`~repro.features.ExtractionResult`.
    ``trace_blob`` is ``None`` unless ``trace_enabled``, in which case it
    is ``(worker_perf_counter_at_send, drained_span_records)`` — the
    worker's span buffer rides every result back to the server, which uses
    the clock stamp to calibrate this worker's ``perf_counter`` offset
    (:meth:`repro.telemetry.Trace.add_worker_spans`).  Because spans ride
    the *result queue*, a crashed worker's already-sent spans survive:
    the server drains the dead queue before requeueing its jobs.

    ``heartbeat`` is a shared double array indexed by worker id;
    the worker stamps ``time.monotonic()`` into its slot between jobs so
    the supervisor's stall detector can tell a long extraction (beats
    between frames) from a wedged process (no beats at all).
    """
    # A Ctrl-C in an interactive parent delivers SIGINT to the whole
    # process group; the parent's close() handles the shutdown, so workers
    # must not die out from under it mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Imports happen inside the worker so the ``spawn`` start method pays
    # them here rather than pickling live engine objects.
    from ..features import OrbExtractor
    from ..image import GrayImage
    from ..telemetry import Tracer, set_tracer

    # Install the process-local tracer so the extractor's stage spans
    # (smooth/detect/describe) land in this worker's buffer without any
    # signature plumbing; disabled it is a guarded no-op everywhere.
    tracer = Tracer(enabled=trace_enabled, track=f"worker-{worker_id}")
    set_tracer(tracer)

    def beat() -> None:
        heartbeat[worker_id] = time.monotonic()

    extractor = OrbExtractor(config)
    beat()
    while True:
        try:
            message = job_queue.get(timeout=HEARTBEAT_INTERVAL_S)
        except queue_module.Empty:
            beat()  # parked on an empty queue: keep the heartbeat fresh
            continue
        except (EOFError, OSError):
            return  # parent tore the queue down (close after crash)
        if message is SHUTDOWN:
            return
        beat()
        job_id, key, pixels = message
        start = time.perf_counter()
        result = error = None
        try:
            with tracer.span("extract", frame=key):
                result = extractor.extract(GrayImage(pixels), frame_id=key)
        except Exception as caught:  # surface, don't kill the worker
            error = repr(caught)
        latency = time.perf_counter() - start
        tracer.complete("serve_frame", start, frame=key)
        trace_blob = (time.perf_counter(), tracer.drain()) if tracer.enabled else None
        result_queue.put((worker_id, job_id, result, latency, error, trace_blob))
        beat()
