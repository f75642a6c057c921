"""Worker-process entry point of the cluster serving layer.

Each worker owns ONE extraction engine — exactly like one fixed-function
extraction pipeline of the paper's accelerator — built inside the worker
process from the pickled :class:`~repro.config.ExtractorConfig`, so engines
in different workers share nothing and the GIL of one process never stalls
another.  Frames arrive as ``(job_id, key, slot, height, width)`` control
messages; ``key`` is the frame id (the caller-supplied one, or the job id
when none was given) and labels the worker's trace spans.  The pixels are
read through a view of ring slot ``slot`` of the shared-memory frame ring
(:mod:`repro.cluster.shared_ring`).

Results leave the worker through two transports, decided per result:

* **result ring** — the worker packs the result's flat arrays straight
  into its own range of the
  :class:`~repro.cluster.result_ring.SharedResultRing`
  (:mod:`repro.cluster.resultpack` layout) and the batch entry carries only
  a tiny :class:`~repro.cluster.result_ring.RingSlotRef`;
* **pickle fallback** — when the worker's range is momentarily exhausted
  or a result outgrows its slot, the
  :class:`~repro.features.ExtractionResult` itself rides the queue.

Either way batch entries are buffered per worker and flushed as ONE queue
put when the batch fills (:data:`DEFAULT_RESULT_BATCH` entries) or the job
queue runs dry, cutting pipe syscalls at high frame rates without delaying
results while the worker is idle.

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
from multiprocessing import shared_memory

#: Control message closing a worker's job queue (graceful drain).
SHUTDOWN = None

#: Results buffered per worker before a flush is forced.  The buffer also
#: flushes whenever the job queue is momentarily empty, so batching only
#: coalesces puts while the worker is saturated and never adds idle latency.
DEFAULT_RESULT_BATCH = 8

#: How often a parked worker refreshes its heartbeat while waiting for work.
HEARTBEAT_INTERVAL_S = 0.5


def worker_main(
    worker_id: int,
    config,
    ring_name: str,
    slot_bytes: int,
    job_queue,
    result_queue,
    heartbeat,
    result_ring_handle,
    trace_enabled: bool = False,
) -> None:
    """Consume frame jobs until the shutdown sentinel arrives.

    Result messages are ``(worker_id, batch, trace_blob)`` where ``batch``
    is a list of ``(job_id, payload, latency_s, error)`` entries (exactly
    one of ``payload`` / ``error`` set per entry).  ``payload`` is a
    :class:`~repro.cluster.result_ring.RingSlotRef` when the result was
    packed into the shared result ring, else the
    :class:`~repro.features.ExtractionResult` itself (pickle fallback).
    ``trace_blob`` is ``None`` unless ``trace_enabled``, in which case it
    is ``(worker_perf_counter_at_flush, drained_span_records)`` — the
    worker's span buffer rides every flush back to the server, which uses
    the clock stamp to calibrate this worker's ``perf_counter`` offset
    (:meth:`repro.telemetry.Trace.add_worker_spans`).  Because spans ride
    the *result queue*, a crashed worker's already-flushed spans survive:
    the server drains the dead queue before reclaiming anything.
    The frame ring slot is not echoed back: the server tracks it per job
    and frees it when the result (or failure) is collected, which
    guarantees the worker has finished reading the shared pages before
    they are reused.

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
    from ..errors import ReproError
    from ..features import OrbExtractor
    from ..image import GrayImage
    from ..telemetry import Tracer, set_tracer
    from .result_ring import RingSlotRef, SharedResultRing
    from .resultpack import pack_into
    from .shared_ring import attach_slot_view

    # Install the process-local tracer so the extractor's stage spans
    # (smooth/detect/describe) land in this worker's buffer without any
    # signature plumbing; disabled it is a guarded no-op everywhere.
    tracer = Tracer(enabled=trace_enabled, track=f"worker-{worker_id}")
    set_tracer(tracer)

    # Attaching re-registers the segment with the resource tracker the
    # worker shares with the server process; that is a set-membership no-op,
    # and the server's unlink() is the single cleanup point.
    shm = shared_memory.SharedMemory(name=ring_name)
    result_ring = SharedResultRing.attach(result_ring_handle)
    pending = []

    def pack_payload(result):
        """Pack one result into this worker's ring range, or fall back.

        The fallback (carry the result object itself, pickled by the
        queue) covers both an exhausted range — flushed descriptors the
        collector has not folded yet — and a result that outgrows its
        slot; correctness never depends on ring capacity.
        """
        slot = result_ring.try_claim(worker_id)
        if slot is None:
            return result
        try:
            nbytes = pack_into(result, result_ring.slot_view(slot))
        except ReproError:
            # no descriptor was ever enqueued for this slot, so the server
            # cannot be racing this flag word: un-claiming here is safe
            result_ring.free(slot)
            return result
        return RingSlotRef(slot, nbytes)

    def beat() -> None:
        heartbeat[worker_id] = time.monotonic()

    def trace_blob():
        """The drained span buffer + flush-time clock stamp (None if off)."""
        if not tracer.enabled:
            return None
        return (time.perf_counter(), tracer.drain())

    def flush() -> None:
        if pending:
            result_queue.put((worker_id, list(pending), trace_blob()))
            pending.clear()

    def get_blocking():
        """Blocking get that keeps the heartbeat fresh while parked."""
        while True:
            try:
                return job_queue.get(timeout=HEARTBEAT_INTERVAL_S)
            except queue_module.Empty:
                beat()

    try:
        extractor = OrbExtractor(config)
        beat()
        while True:
            try:
                if pending:
                    # drain without blocking while results are buffered; a
                    # dry queue flushes them before we park on the blocking
                    # get
                    try:
                        message = job_queue.get_nowait()
                    except queue_module.Empty:
                        flush()
                        message = get_blocking()
                else:
                    message = get_blocking()
            except (EOFError, OSError):
                return  # parent tore the queue down (close after crash)
            if message is SHUTDOWN:
                flush()
                if tracer.enabled and len(tracer):
                    # spans recorded since the last result flush (tail of a
                    # drain) ride out on an empty batch before we exit
                    result_queue.put((worker_id, [], trace_blob()))
                break
            beat()
            job_id, key, slot, height, width = message
            start = time.perf_counter()
            try:
                with tracer.span("ring_read", frame=key):
                    pixels = attach_slot_view(shm, slot, slot_bytes, height, width)
                with tracer.span("extract", frame=key):
                    result = extractor.extract(GrayImage(pixels), frame_id=key)
                with tracer.span("pack", frame=key):
                    payload = pack_payload(result)
                latency = time.perf_counter() - start
                pending.append((job_id, payload, latency, None))
            except Exception as error:  # surface, don't kill the worker
                latency = time.perf_counter() - start
                pending.append((job_id, None, latency, repr(error)))
            tracer.complete("serve_frame", start, frame=key)
            beat()
            if len(pending) >= DEFAULT_RESULT_BATCH:
                flush()
    finally:
        result_ring.close()
        shm.close()
