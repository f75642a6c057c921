"""Served extraction workload: frames streamed through a ``ClusterServer``.

A closed loop keeps exactly the server's ``max_in_flight`` frames
outstanding, the window its real caller ``SlamSystem.run`` keeps, and
cycles over the sequence's frames until the timed region ends.  No
tracking runs in the timed region: feature extraction and the
cross-process transport do all the work.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, SlamConfig
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.slam import SlamSystem, StageWorkload, absolute_trajectory_error
from repro.telemetry import Tracer

from context import mean_stage_workload, modelled_stage_ms
from inputs import render_sequence
from probes import child_cpu_s, child_peak_rss_mb, self_cpu_s, self_peak_rss_mb

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The timed region is cut into this many equal windows; throughput and CPU
#: per frame are medians over them, so one burst of host contention moves
#: one window, not the result.
WINDOWS = 5
#: A frame not served within this long counts as failed.
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ClusterWorkload:
    sequence: str
    num_frames: int
    width: int
    height: int
    num_workers: int


@dataclass
class LoopRun:
    """What one closed-loop timed region served and what it cost."""

    served: List[Tuple[int, object]]  # (frame index, result or None)
    frame_ids: Set[int]
    wall_s: float
    fps: float
    cpu_ms_per_frame: float
    producer_cpu_s: float
    worker_cpu_s: float
    submit_s: float
    await_s: float
    peak_rss_mb: float


def run(workload: ClusterWorkload, seed: int, seconds: float, trace: bool):
    """Run the workload; returns ``(correct, attempted, failed, metrics, report)``."""
    sequence = render_sequence(
        workload.sequence, workload.num_frames, workload.width, workload.height, seed
    )
    config = ExtractorConfig(image_width=workload.width, image_height=workload.height)
    images = [frame.image for frame in sequence]

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = _started_server(config, workload.num_workers, images)
        setup_times.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            server.close()
    try:
        loop = _closed_loop(server, images, seconds)
        stats = server.stats.as_dict()
    finally:
        server.close()
    runs = [loop]
    server_stats = [stats]

    traced: Optional[LoopRun] = None
    if trace:
        server = _started_server(
            config, workload.num_workers, images, Tracer(enabled=True, track="server")
        )
        try:
            traced = _closed_loop(server, images, seconds)
            server_stats.append(server.stats.as_dict())
        finally:
            server.close()
        spans = server.trace().spans()
        runs.append(traced)

    # output check, outside every timed region: each served frame must equal
    # an in-process extraction of the same frame
    extractor = OrbExtractor(config)
    oracle: Dict[int, List[tuple]] = {}
    first_ok: Dict[int, object] = {}
    attempted = failed = 0
    for index, result in (item for each in runs for item in each.served):
        attempted += 1
        if index not in oracle:
            oracle[index] = extractor.extract(images[index]).feature_records()
        if result is None or result.feature_records() != oracle[index]:
            failed += 1
        else:
            first_ok.setdefault(index, result)
    # the server must not have failed, retried or restarted anything either
    correct = failed == 0 and not any(
        each[key] for each in server_stats for key in ("frames_failed", "retries", "restarts")
    )
    counters = [_extraction_workload(result) for _, result in loop.served if result]
    report: Dict[str, object] = {
        "sequence": workload.sequence,
        "distinct_frames": len(sequence),
        "resolution": [workload.width, workload.height],
        "num_workers": workload.num_workers,
        "max_in_flight": server.max_in_flight,
        "modelled_stage_ms": modelled_stage_ms(mean_stage_workload(counters)),
    }

    if not trace:
        # tracking the served features checks they still drive SLAM; frames
        # never served correctly are extracted by the tracker itself
        system = SlamSystem(SlamConfig(extractor=config), extractor=extractor)
        poses = [
            system.process_frame(frame, sequence.camera, extraction=first_ok.get(i)).pose
            for i, frame in enumerate(sequence)
        ]
        ate = absolute_trajectory_error(poses, sequence.ground_truth_poses())
        metrics = {
            "fps": loop.fps,
            "cpu_ms_per_frame": loop.cpu_ms_per_frame,
            "ate_rmse_mm": 1000.0 * ate.rmse,
            "frames_ok_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": loop.peak_rss_mb,
        }
        return correct, attempted, failed, metrics, report

    frames = len(traced.served)
    total_s, self_s, served_frames = _worker_layer_times(spans, traced.frame_ids)
    per_frame = max(served_frames, 1)

    def ms(seconds_spent: float) -> float:
        return 1000.0 * seconds_spent / per_frame

    completed = max(stats["frames_completed"], 1)
    metrics = {
        "fe.ms": ms(total_s["extract"]),
        "fe.pyramid_ms": ms(self_s["acquire_pyramid"]),
        "fe.smooth_ms": ms(self_s["smooth"]),
        "fe.detect_ms": ms(self_s["detect"]),
        "fe.describe_ms": ms(self_s["describe"]),
        "fe.filter_ms": ms(self_s["extract"] + self_s["filter"]),
        "fe.keypoints": statistics.fmean(c.keypoints_detected for c in counters),
        "fe.descriptors": statistics.fmean(c.descriptors_computed for c in counters),
        "fe.retained_ratio": sum(c.features_retained for c in counters)
        / max(sum(c.descriptors_computed for c in counters), 1),
        "fe.heap_comparisons": statistics.fmean(
            result.profile.heap_comparisons for _, result in loop.served if result
        ),
        "cluster.submit_ms": 1000.0 * traced.submit_s / frames,
        "cluster.await_ms": 1000.0 * traced.await_s / frames,
        "cluster.transport_ms": ms(
            total_s["ring_read"] + total_s["attach_pyramid"] + total_s["pack"]
        ),
        "cluster.worker_extract_ms": ms(total_s["serve_frame"]),
        "cluster.worker_busy_frac": total_s["serve_frame"]
        / (workload.num_workers * traced.wall_s),
        "cluster.producer_cpu_ms": 1000.0 * loop.producer_cpu_s / len(loop.served),
        "cluster.worker_cpu_ms": 1000.0 * loop.worker_cpu_s / len(loop.served),
        "cluster.results_zero_copy_frac": stats["results_zero_copy"] / completed,
        "cluster.frames_via_ring_frac": stats["frames_via_ring"]
        / max(stats["frames_submitted"], 1),
        "cluster.frames_failed": float(stats["frames_failed"]),
        "cluster.retries": float(stats["retries"]),
        "cluster.restarts": float(stats["restarts"]),
        "trace.unattributed_frac": self_s["serve_frame"] / max(total_s["serve_frame"], 1e-12),
        "trace.overhead_frac": 1.0 - traced.fps / loop.fps,
    }
    report.update(
        measured_stage_ms={"feature_extraction": metrics["fe.ms"]},
        fps_untraced=loop.fps,
        fps_traced=traced.fps,
        cluster_stats={key: value for key, value in stats.items() if key != "workers"},
    )
    return correct, attempted, failed, metrics, report


def _extraction_workload(result) -> StageWorkload:
    """The tracker's FE counters for one served extraction."""
    profile = result.profile
    return StageWorkload(
        pixels_processed=profile.pixels_processed,
        keypoints_detected=profile.keypoints_detected,
        descriptors_computed=profile.descriptors_computed,
        features_retained=profile.features_retained,
    )


def _started_server(
    config: ExtractorConfig, num_workers: int, images, tracer: Optional[Tracer] = None
) -> ClusterServer:
    """A server whose workers have each served one frame (round-robin
    routing), so every worker's lazy set-up is done before timing starts."""
    server = ClusterServer(config, num_workers=num_workers, tracer=tracer)
    try:
        futures = [server.submit(images[0]) for _ in range(num_workers)]
        for future in futures:
            future.result(timeout=RESULT_TIMEOUT_S)
    except BaseException:
        server.close()
        raise
    return server


def _closed_loop(server: ClusterServer, images, seconds: float) -> LoopRun:
    window = server.max_in_flight
    pids = [process.pid for process in multiprocessing.active_children()]
    served: List[Tuple[int, object]] = []
    frame_ids: Set[int] = set()
    pending: deque = deque()
    submit_s = await_s = 0.0
    # frame ids continue past the warm-up jobs' ids so traces tell them apart
    next_id = server.stats.frames_submitted

    def sample() -> Tuple[float, int, float, float]:
        return time.perf_counter(), len(served), self_cpu_s(), child_cpu_s(pids)

    samples = [sample()]
    start = samples[0][0]
    deadline = start + seconds
    boundaries = deque(start + seconds * k / WINDOWS for k in range(1, WINDOWS))
    submitted = 0
    while True:
        while len(pending) < window and time.perf_counter() < deadline:
            index = submitted % len(images)
            frame_id = next_id + submitted
            began = time.perf_counter()
            pending.append((index, server.submit(images[index], frame_id=frame_id)))
            submit_s += time.perf_counter() - began
            frame_ids.add(frame_id)
            submitted += 1
        if not pending:
            break
        index, future = pending.popleft()
        began = time.perf_counter()
        try:
            result = future.result(timeout=RESULT_TIMEOUT_S)
        except (ReproError, TimeoutError):
            result = None
        await_s += time.perf_counter() - began
        served.append((index, result))
        if boundaries and time.perf_counter() >= boundaries[0]:
            boundaries.popleft()
            samples.append(sample())
    samples.append(sample())
    peak_rss_mb = self_peak_rss_mb() + child_peak_rss_mb(pids)

    rates, costs = [], []
    for (t0, n0, p0, w0), (t1, n1, p1, w1) in zip(samples, samples[1:]):
        if n1 > n0:
            rates.append((n1 - n0) / (t1 - t0))
            costs.append(1000.0 * ((p1 - p0) + (w1 - w0)) / (n1 - n0))
    first, last = samples[0], samples[-1]
    return LoopRun(
        served=served,
        frame_ids=frame_ids,
        wall_s=last[0] - first[0],
        fps=statistics.median(rates),
        cpu_ms_per_frame=statistics.median(costs),
        producer_cpu_s=last[2] - first[2],
        worker_cpu_s=last[3] - first[3],
        submit_s=submit_s,
        await_s=await_s,
        peak_rss_mb=peak_rss_mb,
    )


def _worker_layer_times(spans, frame_ids: Set[int]):
    """Total and self seconds per worker span name, over served frames.

    Spans nest per worker thread; each is charged to the ``serve_frame``
    span enclosing it, and only frames in ``frame_ids`` count.  Returns
    ``(total_s, self_s, frames)``.
    """
    total_s: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    frames = 0
    by_thread: Dict[tuple, list] = defaultdict(list)
    for track, kind, name, start, end, frame, thread_id, _ in spans:
        if kind == "span" and track.startswith("worker"):
            by_thread[(track, thread_id)].append((start, -end, name, frame))

    def close(entry) -> None:
        name, _, duration, child_s, root = entry
        if root in frame_ids:
            total_s[name] += duration
            self_s[name] += duration - child_s

    for items in by_thread.values():
        items.sort()
        stack: list = []  # [name, end, duration, child_s, root frame]
        for start, negative_end, name, frame in items:
            end = -negative_end
            while stack and start >= stack[-1][1]:
                close(stack.pop())
            if stack:
                stack[-1][3] += end - start
                root = stack[-1][4]
            else:
                root = frame if name == "serve_frame" else None
                if root in frame_ids:
                    frames += 1
            stack.append([name, end, end - start, 0.0, root])
        while stack:
            close(stack.pop())
    return total_s, self_s, frames
