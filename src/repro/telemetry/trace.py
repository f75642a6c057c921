"""Cross-process frame tracing for the serving stack.

A frame served by the cluster lives in three places — the producer thread,
a worker process, the collector — and none of the existing
counters can say *where a particular frame spent its time*.  This module
records that journey as spans and merges them onto one timeline:

* :class:`Tracer` — a per-process (or per-thread-pool) span recorder.
  ``span(name, frame=...)`` is a context manager for thread-scoped spans,
  ``record(...)`` logs a span whose endpoints were measured elsewhere
  (cross-thread waits such as ``await_result``), ``instant(...)`` marks a
  point event.  **A disabled tracer is a no-op behind a single ``if``**:
  ``span`` returns a shared no-op context manager and ``record`` /
  ``instant`` return immediately, so instrumentation can stay in every
  hot path permanently (``benchmarks/bench_telemetry_overhead.py`` holds
  the disabled cost to statistical zero).
* Worker processes record spans into their local buffer and the cluster
  worker ships the drained buffer **with each result**, so spans ride
  the existing result queue — a crashed worker's already-sent spans
  survive because the server drains the dead worker's result queue
  before requeueing its jobs.
* :class:`Trace` — the server-side merge.  Each worker's ``perf_counter``
  epoch differs from the server's; every shipped buffer carries the
  worker clock at flush time, the server stamps its own clock at receipt,
  and the **minimum observed (receipt − flush) difference** per worker is
  the NTP-style upper-bound estimate of transit + offset used to shift
  that worker's spans onto the server timeline
  (:meth:`Trace.add_worker_spans`).  ``export_chrome_trace`` writes
  Chrome trace-event JSON loadable in Perfetto (``docs/observability.md``
  → Perfetto how-to).

Span records are plain tuples (pickle-friendly, no per-span objects
beyond the context manager):

``(kind, name, start_s, end_s, frame, thread_id, args)``

with ``kind`` one of ``"span"`` (thread-scoped, properly nested per
thread), ``"async"`` (cross-thread wait — exported as Chrome async
begin/end events keyed by frame, exempt from the per-thread nesting
invariant by construction) and ``"instant"``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

SPAN = "span"
ASYNC = "async"
INSTANT = "instant"

#: Soft cap on buffered records per tracer; beyond it new records are
#: dropped (and counted) instead of growing memory without bound between
#: drains.  Generous: a traced frame emits ~20 records.
MAX_BUFFERED_RECORDS = 262144


class _NoopSpan:
    """The shared do-nothing context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **args) -> None:
        """Accept (and discard) late span arguments."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    """An open thread-scoped span; closing it appends one record."""

    __slots__ = ("_tracer", "_name", "_frame", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, frame, args) -> None:
        self._tracer = tracer
        self._name = name
        self._frame = frame
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._append(
            (
                SPAN,
                self._name,
                self._start,
                time.perf_counter(),
                self._frame,
                threading.get_ident(),
                self._args,
            )
        )
        return False

    def set(self, **args) -> None:
        """Attach arguments discovered mid-span (e.g. profile counters)."""
        if self._args is None:
            self._args = {}
        self._args.update(args)


class Tracer:
    """A span recorder for one process (or one thread pool).

    ``track`` names the timeline the records belong to (``"server"``,
    ``"worker-3"``, …).  ``enabled=False`` (the default) makes every
    entry point a guarded no-op, so tracers can be threaded through hot
    paths unconditionally.
    """

    __slots__ = ("enabled", "track", "dropped", "_records", "_drain_lock")

    def __init__(self, enabled: bool = False, track: str = "local") -> None:
        self.enabled = bool(enabled)
        self.track = track
        self.dropped = 0
        self._records: List[tuple] = []
        self._drain_lock = threading.Lock()

    # -- recording ----------------------------------------------------------
    def span(self, name: str, frame=None, **args):
        """Context manager timing the enclosed block on this thread."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, frame, args or None)

    def record(
        self, name: str, start_s: float, end_s: float, frame=None, **args
    ) -> None:
        """Log a span measured elsewhere (cross-thread waits)."""
        if not self.enabled:
            return
        self._append(
            (ASYNC, name, start_s, end_s, frame, threading.get_ident(), args or None)
        )

    def complete(self, name: str, start_s: float, frame=None, **args) -> None:
        """Log a thread-scoped span that started at ``start_s`` and ends now.

        For long method bodies that already stamp their own start time
        (e.g. ``ClusterServer.submit``), where wrapping the whole body in a
        ``span`` context manager would hurt readability.
        """
        if not self.enabled:
            return
        self._append(
            (
                SPAN,
                name,
                start_s,
                time.perf_counter(),
                frame,
                threading.get_ident(),
                args or None,
            )
        )

    def instant(self, name: str, frame=None, **args) -> None:
        """Mark a point event (e.g. a frame's future resolving)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self._append(
            (INSTANT, name, now, now, frame, threading.get_ident(), args or None)
        )

    def _append(self, record: tuple) -> None:
        # list.append is atomic under the GIL; the cap check is advisory
        if len(self._records) >= MAX_BUFFERED_RECORDS:
            self.dropped += 1
            return
        self._records.append(record)

    # -- buffer hand-off ----------------------------------------------------
    def drain(self) -> List[tuple]:
        """Atomically take (and clear) everything recorded so far."""
        with self._drain_lock:
            records, self._records = self._records, []
        return records

    def __len__(self) -> int:
        return len(self._records)


# -- process-local tracer -----------------------------------------------------
# The deepest instrumentation sites (OrbExtractor stages, SlamSystem's
# tracking loop) cannot thread a tracer parameter through every signature;
# they read the process-local tracer instead.  Cluster workers install
# theirs at boot, servers install one for the duration of a traced run.
_process_tracer = Tracer(enabled=False, track="local")


def current_tracer() -> Tracer:
    """The process-local tracer (disabled unless someone installed one)."""
    return _process_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-locally; returns the previous one."""
    global _process_tracer
    previous = _process_tracer
    _process_tracer = tracer
    return previous


class Trace:
    """Spans from many tracks merged onto the server's ``perf_counter`` line.

    Server-side records enter via :meth:`add_spans` with offset 0; worker
    buffers enter via :meth:`add_worker_spans`, which also feeds the
    per-track clock calibration: every buffer carries the worker clock at
    flush and the server clock at receipt, and the smallest difference
    ever observed for a track is its offset estimate (transit time is the
    only error, bounded below by zero, so the minimum over many flushes
    converges onto the true epoch offset).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # track -> list of raw records (worker clock domain until export)
        self._pending: Dict[str, List[tuple]] = {}
        self._offsets: Dict[str, float] = {}

    # -- ingestion ----------------------------------------------------------
    def add_spans(self, track: str, records: List[tuple]) -> None:
        """Merge records already on the server clock (offset 0)."""
        if not records:
            return
        with self._lock:
            self._pending.setdefault(track, []).extend(records)
            self._offsets.setdefault(track, 0.0)

    def add_worker_spans(
        self,
        track: str,
        records: List[tuple],
        worker_clock_s: float,
        server_clock_s: Optional[float] = None,
    ) -> None:
        """Merge one shipped worker buffer and refine the track's offset.

        ``worker_clock_s`` is the worker's ``perf_counter`` at flush time;
        ``server_clock_s`` defaults to *now* (the receipt time).  The
        offset sample ``server - worker`` over-estimates the true epoch
        offset by exactly the queue transit delay, so the running minimum
        is kept.
        """
        if server_clock_s is None:
            server_clock_s = time.perf_counter()
        sample = server_clock_s - worker_clock_s
        with self._lock:
            best = self._offsets.get(track)
            if best is None or sample < best:
                self._offsets[track] = sample
            if records:
                self._pending.setdefault(track, []).extend(records)

    # -- merged views --------------------------------------------------------
    def spans(self, track: Optional[str] = None) -> List[tuple]:
        """Offset-corrected records, sorted by start time.

        Each entry is ``(track, kind, name, start_s, end_s, frame,
        thread_id, args)`` with times on the server clock.
        """
        with self._lock:
            items = [
                (
                    a_track,
                    kind,
                    name,
                    start + self._offsets.get(a_track, 0.0),
                    end + self._offsets.get(a_track, 0.0),
                    frame,
                    thread_id,
                    args,
                )
                for a_track, records in self._pending.items()
                for (kind, name, start, end, frame, thread_id, args) in records
                if track is None or a_track == track
            ]
        items.sort(key=lambda item: (item[3], item[4]))
        return items

    def tracks(self) -> List[str]:
        with self._lock:
            return sorted(self._pending)

    # -- structural checks ---------------------------------------------------
    def validate(self) -> List[str]:
        """Structural problems in the merged trace (empty list = valid).

        Checks, per (track, thread): spans sorted by start time are
        **monotonic and non-overlapping** — each consecutive pair is
        either disjoint or properly nested (context managers on one
        thread can only nest), and no span ends before it starts.  Async
        wait records are cross-thread by design and exempt.
        """
        problems: List[str] = []
        per_thread: Dict[Tuple[str, int], List[tuple]] = {}
        for item in self.spans():
            track, kind, name, start, end, frame, thread_id, args = item
            if end < start:
                problems.append(f"{track}/{name}: negative duration")
            if kind == SPAN:
                per_thread.setdefault((track, thread_id), []).append(item)
        for (track, thread_id), items in per_thread.items():
            stack: List[tuple] = []
            for item in items:  # already sorted by start
                _, _, name, start, end, _, _, _ = item
                while stack and start >= stack[-1][4]:
                    stack.pop()
                if stack and end > stack[-1][4]:
                    problems.append(
                        f"{track}: span {name!r} overlaps "
                        f"{stack[-1][2]!r} without nesting"
                    )
                    continue
                stack.append(item)
        return problems

    def frame_coverage(self) -> Dict[object, Dict[str, bool]]:
        """Per-frame submit→resolve coverage over the merged trace.

        A frame is **covered** when a ``submit`` span exists, a
        ``resolve`` instant exists, and the resolve does not precede the
        submit's start — the bench's per-frame acceptance check.
        """
        coverage: Dict[object, Dict[str, object]] = {}
        for track, kind, name, start, end, frame, thread_id, args in self.spans():
            if frame is None:
                continue
            entry = coverage.setdefault(
                frame, {"submit": False, "resolve": False, "submit_start": None,
                        "resolve_at": None}
            )
            if name == "submit" and kind == SPAN:
                entry["submit"] = True
                if entry["submit_start"] is None:
                    entry["submit_start"] = start
            elif name == "resolve":
                entry["resolve"] = True
                entry["resolve_at"] = end
        report: Dict[object, Dict[str, bool]] = {}
        for frame, entry in coverage.items():
            ordered = (
                entry["submit"]
                and entry["resolve"]
                and entry["resolve_at"] >= entry["submit_start"]
            )
            report[frame] = {
                "submit": bool(entry["submit"]),
                "resolve": bool(entry["resolve"]),
                "covered": bool(ordered),
            }
        return report

    # -- export --------------------------------------------------------------
    def to_chrome_events(self) -> List[dict]:
        """The merged trace as Chrome trace-event dicts (``ph`` X/b/e/i)."""
        events: List[dict] = []
        track_pids: Dict[str, int] = {}
        thread_tids: Dict[Tuple[str, int], int] = {}
        for track in self.tracks():
            pid = track_pids.setdefault(track, len(track_pids))
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        for track, kind, name, start, end, frame, thread_id, args in self.spans():
            pid = track_pids[track]
            tid_key = (track, thread_id)
            if tid_key not in thread_tids:
                ordinal = sum(1 for key in thread_tids if key[0] == track)
                thread_tids[tid_key] = ordinal
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": ordinal,
                        "args": {"name": f"{track}/t{ordinal}"},
                    }
                )
            tid = thread_tids[tid_key]
            event_args = dict(args) if args else {}
            if frame is not None:
                event_args["frame"] = frame
            base = {"name": name, "pid": pid, "tid": tid, "cat": "repro"}
            if event_args:
                base["args"] = event_args
            ts = start * 1e6
            if kind == SPAN:
                events.append({**base, "ph": "X", "ts": ts, "dur": (end - start) * 1e6})
            elif kind == ASYNC:
                ident = str(frame) if frame is not None else name
                events.append({**base, "ph": "b", "ts": ts, "id": ident, "cat": "wait"})
                events.append(
                    {**base, "ph": "e", "ts": end * 1e6, "id": ident, "cat": "wait"}
                )
            else:  # INSTANT
                events.append({**base, "ph": "i", "ts": ts, "s": "t"})
        events.sort(key=lambda event: (event.get("ts", -1.0)))
        return events

    def export_chrome_trace(self, path: str) -> str:
        """Write Chrome trace-event JSON (open in Perfetto / chrome://tracing).

        Returns the path written.  The format is the "JSON array of
        events" flavour wrapped in ``{"traceEvents": [...]}``, which both
        Perfetto and chrome://tracing load directly.
        """
        payload = {
            "traceEvents": self.to_chrome_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path


def load_chrome_trace(path: str) -> dict:
    """Read back an exported trace (test/CI helper)."""
    with open(path) as handle:
        payload = json.load(handle)
    if "traceEvents" not in payload:
        raise ReproError(f"{path} is not a Chrome trace-event file")
    return payload
