"""Telemetry overhead: tracing + metrics must be nearly free, on or off.

The observability layer (``repro.telemetry``, ``docs/observability.md``)
is wired permanently through the serving hot paths, so its cost is a
standing tax on every reproduction number in this harness.  This report
measures that tax on the 2-worker cluster smoke workload in two modes —
telemetry **disabled** (the default: every tracer entry point is a guarded
no-op) and **enabled** (producer + worker span recording, span shipping on
the result queue, clock calibration) — and holds both to hard bars:

* **enabled** tracing + metrics costs less than ~3% of disabled-mode
  cluster throughput (best-of-``TIMING_REPEATS`` per mode damps runner
  noise);
* a traced 16-frame run produces a **structurally valid** Chrome trace:
  spans per (track, thread) are monotonic and non-overlapping
  (``Trace.validate()``), and every completed frame has submit→resolve
  coverage (``Trace.frame_coverage()``);
* traced results are **bit-identical** to an untraced run of the same
  frames (``feature_records()``), for every extraction engine.

Set ``BENCH_REPORT_DIR`` to also write ``bench_telemetry_overhead.json``
plus the exported Chrome trace and a Prometheus text snapshot (CI uploads
all three as artifacts); ``--trace <dir>`` / ``REPRO_TRACE`` additionally
copies the trace into the shared trace-artifact directory.
"""

import json
import os
import time

import pytest

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, PyramidConfig
from repro.image import random_blocks
from repro.telemetry import Tracer, load_chrome_trace

from conftest import export_trace_artifact, print_section, write_report_file

NUM_FRAMES = 24
TRACED_FRAMES = 16
NUM_WORKERS = 2
#: Timed passes per mode; best-of-N damps shared-runner noise.
TIMING_REPEATS = 3
#: Enabled tracing may cost at most this fraction of disabled throughput.
MAX_ENABLED_OVERHEAD = 0.03


@pytest.fixture(scope="module")
def overhead_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def overhead_images(overhead_config):
    return [
        random_blocks(
            overhead_config.image_height,
            overhead_config.image_width,
            block=9,
            seed=seed,
        )
        for seed in range(NUM_FRAMES)
    ]


def _best_throughput(config, images, tracer):
    """Best-of-``TIMING_REPEATS`` fps for one telemetry mode."""
    best_s = float("inf")
    with ClusterServer(config, num_workers=NUM_WORKERS, tracer=tracer) as server:
        server.extract_many(images[:NUM_WORKERS])  # warm every worker engine
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            server.extract_many(images)
            best_s = min(best_s, time.perf_counter() - start)
        if tracer is not None and tracer.enabled:
            server.trace()  # fold the producer spans in before close
    return len(images) / best_s


def test_telemetry_overhead_report(overhead_config, overhead_images, trace_dir):
    """Overhead bars + structural trace validation + bit-identity."""
    report_dir = os.environ.get("BENCH_REPORT_DIR")

    # -- throughput: disabled vs enabled -----------------------------------
    disabled_fps = _best_throughput(overhead_config, overhead_images, tracer=None)
    enabled_fps = _best_throughput(
        overhead_config, overhead_images, Tracer(enabled=True, track="server")
    )
    overhead = 1.0 - enabled_fps / disabled_fps if disabled_fps else 0.0

    # -- traced 16-frame run: valid trace, full coverage, bit-identity -----
    frames = overhead_images[:TRACED_FRAMES]
    frame_ids = list(range(1000, 1000 + TRACED_FRAMES))
    with ClusterServer(overhead_config, num_workers=NUM_WORKERS) as server:
        untraced = server.extract_many(frames, frame_ids=frame_ids)
    tracer = Tracer(enabled=True, track="server")
    with ClusterServer(
        overhead_config, num_workers=NUM_WORKERS, tracer=tracer
    ) as server:
        traced = server.extract_many(frames, frame_ids=frame_ids)
        trace = server.trace()
        prometheus_text = server.registry.prometheus_text()
    for untraced_result, traced_result in zip(untraced, traced):
        assert (
            untraced_result.feature_records() == traced_result.feature_records()
        ), "tracing changed extraction output"

    problems = trace.validate()
    assert problems == [], f"structurally invalid trace: {problems}"
    coverage = trace.frame_coverage()
    uncovered = [frame for frame, row in coverage.items() if not row["covered"]]
    assert not uncovered, f"frames missing submit->resolve coverage: {uncovered}"
    assert len(coverage) == TRACED_FRAMES

    trace_path = None
    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
        trace_path = trace.export_chrome_trace(
            os.path.join(report_dir, "bench_telemetry_trace.json")
        )
        assert load_chrome_trace(trace_path)["traceEvents"]
        with open(
            os.path.join(report_dir, "bench_telemetry_metrics.prom"), "w"
        ) as handle:
            handle.write(prometheus_text)
    export_trace_artifact(trace, trace_dir, "bench_telemetry_overhead.json")

    report = {
        "num_workers": NUM_WORKERS,
        "frames": NUM_FRAMES,
        "timing_repeats": TIMING_REPEATS,
        "disabled_fps": disabled_fps,
        "enabled_fps": enabled_fps,
        "enabled_overhead_fraction": overhead,
        "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        "traced_frames": TRACED_FRAMES,
        "trace_tracks": trace.tracks(),
        "trace_valid": True,
        "frames_covered": len(coverage) - len(uncovered),
        "chrome_trace": trace_path,
    }
    print_section("Telemetry overhead (2-worker cluster smoke)")
    print(json.dumps(report, indent=2))
    write_report_file("bench_telemetry_overhead.json", report)

    # the throughput bar last, so the report JSON always lands even when a
    # noisy runner trips it
    assert enabled_fps >= (1.0 - MAX_ENABLED_OVERHEAD) * disabled_fps, (
        f"enabled telemetry costs {overhead:.1%} "
        f"(> {MAX_ENABLED_OVERHEAD:.0%}) of cluster throughput"
    )
