"""Sequential SLAM workloads: ``SlamSystem.run`` over a whole sequence.

All five Table 2 stages run in the benchmark's own thread; the serving
stack is bypassed.  Frame cost rises with map size, so a timed region is a
whole number of passes over the sequence, each on a fresh system, and no
per-frame median is published.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import ExtractorConfig, SlamConfig
from repro.geometry import PnpRansac
from repro.optimization import PoseOptimizer
from repro.slam import SlamRunResult, SlamSystem

from context import mean_stage_workload, modelled_stage_ms
from inputs import render_sequence
from probes import LayerClock, self_cpu_s, self_peak_rss_mb

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15


@dataclass(frozen=True)
class SlamWorkload:
    sequence: str
    num_frames: int
    width: int
    height: int


def run(workload: SlamWorkload, seed: int, seconds: float, trace: bool):
    """Run the workload; returns ``(correct, attempted, failed, metrics, report)``."""
    sequence = render_sequence(
        workload.sequence, workload.num_frames, workload.width, workload.height, seed
    )
    config = SlamConfig(
        extractor=ExtractorConfig(image_width=workload.width, image_height=workload.height)
    )
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        system = SlamSystem(config)
        # one untracked extraction finishes the extractor's lazy set-up
        system.tracker.extractor.extract(sequence[0].image)
        setup_times.append(time.perf_counter() - start)
    extractor = system.tracker.extractor

    results, wall_s, cpu_s = _timed_passes(config, extractor, sequence, seconds)
    peak_rss_mb = self_peak_rss_mb()
    fps = len(results) * len(sequence) / wall_s
    first = results[0]
    report: Dict[str, object] = {
        "sequence": workload.sequence,
        "frames_per_pass": len(sequence),
        "resolution": [workload.width, workload.height],
        "passes": len(results),
        "keyframes": first.num_keyframes,
        "map_points": first.frame_results[-1].workload.map_size_after,
        "modelled_stage_ms": modelled_stage_ms(
            mean_stage_workload([r.workload for r in first.frame_results])
        ),
    }
    if trace:
        traced, traced_fps, metrics, measured = _traced_pass(config, extractor, sequence)
        results.append(traced)
        metrics["trace.overhead_frac"] = 1.0 - traced_fps / fps
        report.update(measured_stage_ms=measured, fps_untraced=fps, fps_traced=traced_fps)
    # output check: a frame is ok when it tracked
    attempted = sum(r.num_frames for r in results)
    failed = sum(1 for r in results for frame in r.frame_results if not frame.tracked)
    if not trace:
        metrics = {
            "fps": fps,
            "cpu_ms_per_frame": 1000.0 * cpu_s / (len(results) * len(sequence)),
            "ate_rmse_mm": 1000.0 * first.ate().rmse,
            "frames_ok_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    return failed == 0, attempted, failed, metrics, report


def _timed_passes(
    config: SlamConfig, extractor, sequence, seconds: float
) -> Tuple[List[SlamRunResult], float, float]:
    """Whole passes, each on a fresh system, while another is expected to
    end within ``seconds``; always at least one."""
    results: List[SlamRunResult] = []
    wall_s = cpu_s = pass_s = 0.0
    while not results or wall_s + pass_s <= seconds:
        system = SlamSystem(config, extractor=extractor)
        cpu_start = self_cpu_s()
        start = time.perf_counter()
        results.append(system.run(sequence))
        pass_s = time.perf_counter() - start
        wall_s += pass_s
        cpu_s += self_cpu_s() - cpu_start
    return results, wall_s, cpu_s


def _traced_pass(config: SlamConfig, extractor, sequence):
    """One pass with every layer's public calls timed from outside."""
    system = SlamSystem(config, extractor=extractor)
    tracker = system.tracker
    clock = LayerClock()
    heap_comparisons: List[int] = []
    clock.wrap(tracker, "process", "track")
    clock.wrap(
        extractor,
        "extract",
        "fe",
        on_result=lambda result: heap_comparisons.append(result.profile.heap_comparisons),
    )
    clock.wrap(extractor.pyramid_provider, "acquire", "fe.pyramid")
    clock.wrap(extractor.pyramid_provider, "release", "fe.pyramid")
    clock.wrap(extractor.frontend, "smooth", "fe.smooth")
    clock.wrap(extractor.frontend, "detect_with_count", "fe.detect")
    clock.wrap(extractor.backend, "describe", "fe.describe")
    clock.wrap(tracker.matcher, "match_arrays", "fm")
    # the tracker builds a fresh RANSAC and optimiser per frame
    clock.wrap(PnpRansac, "estimate", "pe")
    clock.wrap(PoseOptimizer, "optimize", "po")
    for method in ("add_points", "cull"):
        clock.wrap(tracker.map, method, "mu.write")
    for method in ("descriptor_matrix", "position_matrix", "point_ids"):
        clock.wrap(tracker.map, method, "mu.read")
    try:
        start = time.perf_counter()
        result = system.run(sequence)
        wall_s = time.perf_counter() - start
    finally:
        clock.restore()

    frames = result.num_frames
    work = [r.workload for r in result.frame_results]
    matched = [w for w in work if w.map_points_matched_against > 0]
    estimated = [w for w in work if w.ransac_iterations > 0]
    optimised = [w for w in work if w.lm_iterations > 0]
    distance_evals = sum(w.distance_evaluations for w in work)

    def per_frame_ms(layer: str, total: bool = False) -> float:
        seconds_spent = (clock.total_s if total else clock.self_s)[layer]
        return 1000.0 * seconds_spent / frames

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics = {
        "fe.ms": per_frame_ms("fe", total=True),
        "fe.pyramid_ms": per_frame_ms("fe.pyramid"),
        "fe.smooth_ms": per_frame_ms("fe.smooth"),
        "fe.detect_ms": per_frame_ms("fe.detect"),
        "fe.describe_ms": per_frame_ms("fe.describe"),
        "fe.filter_ms": per_frame_ms("fe"),
        "fe.keypoints": mean([w.keypoints_detected for w in work]),
        "fe.descriptors": mean([w.descriptors_computed for w in work]),
        "fe.retained_ratio": sum(w.features_retained for w in work)
        / max(sum(w.descriptors_computed for w in work), 1),
        "fe.heap_comparisons": mean(heap_comparisons),
        "fm.ms": per_frame_ms("fm", total=True),
        "fm.distance_evals": distance_evals / frames,
        "fm.ns_per_distance": 1e9 * clock.total_s["fm"] / max(distance_evals, 1),
        "fm.accept_ratio": sum(w.matches_accepted for w in matched)
        / max(sum(w.features_retained for w in matched), 1),
        "pe.ms": per_frame_ms("pe", total=True),
        "pe.ransac_iterations": mean([w.ransac_iterations for w in estimated]),
        "pe.inlier_ratio": sum(w.ransac_inliers for w in estimated)
        / max(sum(w.matches_accepted for w in estimated), 1),
        "po.ms": per_frame_ms("po", total=True),
        "po.lm_iterations": mean([w.lm_iterations for w in optimised]),
        "mu.write_ms": per_frame_ms("mu.write"),
        "mu.read_ms": per_frame_ms("mu.read"),
        "mu.map_points": float(work[-1].map_size_after),
        "mu.keyframe_ratio": result.keyframe_ratio,
        "track.self_ms": per_frame_ms("track"),
        "trace.unattributed_frac": 1.0 - sum(clock.self_s.values()) / wall_s,
    }
    measured = {
        "feature_extraction": metrics["fe.ms"],
        "feature_matching": metrics["fm.ms"],
        "pose_estimation": metrics["pe.ms"],
        "pose_optimization": metrics["po.ms"],
        "map_updating": metrics["mu.write_ms"],
    }
    return result, frames / wall_s, metrics, measured
