"""Telemetry overhead: tracing + metrics must be nearly free, on or off.

The observability layer (``repro.telemetry``, ``docs/observability.md``)
is wired permanently through the serving hot paths, so its cost is a
standing tax on every reproduction number in this harness.  This report
measures that tax on the cluster smoke workload's frames in two modes —
telemetry **disabled** (the default: every tracer entry point is a guarded
no-op) and **enabled** (producer + worker span recording, span shipping on
the result queue, clock calibration) — and holds both to hard bars:

* **enabled** tracing costs less than 3% of a served frame's disabled-mode
  cost.  The cost is timed per frame in one process, in
  ``TIMING_PAIRS`` interleaved (disabled, enabled) pairs whose order
  alternates, and the bar applies to the median of the per-pair ratios.
  Each frame runs every telemetry call tracing adds to the served path
  (``_serve_frame``), so a cost on the traced path shows in full, while
  the host's load, which moves a whole-cluster pass by more than the bar,
  falls on both frames of a pair alike;
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
import pickle
import time

import numpy as np
import pytest

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor
from repro.image import random_blocks
from repro.telemetry import Trace, Tracer, load_chrome_trace, set_tracer

from conftest import export_trace_artifact, print_section, write_report_file

NUM_FRAMES = 24
TRACED_FRAMES = 16
NUM_WORKERS = 2
#: Interleaved (disabled, enabled) frame pairs behind the overhead median.
TIMING_PAIRS = 1000
#: Enabled tracing may cost at most this fraction of a disabled frame.
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


def _serve_frame(extractor, worker_tracer, server_tracer, trace, image, key):
    """One frame through every telemetry call the served path makes for it.

    The worker side runs the real extractor under ``worker_tracer`` as the
    process tracer (its stage spans), wraps it in the ``extract`` and
    ``serve_frame`` spans, drains the buffer and pickles it with the result
    message; the server side records ``submit``, ``serve`` and ``resolve``
    and folds the shipped spans with ``Trace.add_worker_spans``
    (``repro.cluster.worker.worker_main``, ``ClusterServer.submit`` and
    ``ClusterServer._fold_result``).  With both tracers disabled every call
    is the no-op the untraced cluster makes.
    """
    submitted_s = time.perf_counter()
    server_tracer.complete("submit", submitted_s, frame=key, worker=0)
    previous = set_tracer(worker_tracer)
    try:
        start = time.perf_counter()
        with worker_tracer.span("extract", frame=key):
            result = extractor.extract(image, frame_id=key)
        latency_s = time.perf_counter() - start
        worker_tracer.complete("serve_frame", start, frame=key)
        blob = (time.perf_counter(), worker_tracer.drain()) if worker_tracer.enabled else None
    finally:
        set_tracer(previous)
    message = pickle.loads(pickle.dumps((0, key, result, latency_s, None, blob)))
    if message[5] is not None:
        worker_clock_s, records = message[5]
        trace.add_worker_spans(worker_tracer.track, records, worker_clock_s)
    server_tracer.record("serve", submitted_s, time.perf_counter(), frame=key, worker=0)
    server_tracer.instant("resolve", frame=key)


def _paired_overheads(config, images):
    """Enabled-over-disabled cost minus one, per interleaved frame pair."""
    extractor = OrbExtractor(config)
    modes = {
        enabled: (
            Tracer(enabled=enabled, track="worker-0"),
            Tracer(enabled=enabled, track="server"),
            Trace(),
        )
        for enabled in (False, True)
    }
    for key, image in enumerate(images):  # warm the engine and both modes
        for enabled in (False, True):
            _serve_frame(extractor, *modes[enabled], image, key)
    overheads = []
    for pair in range(TIMING_PAIRS):
        image = images[pair % len(images)]
        seconds = {}
        for enabled in (False, True) if pair % 2 == 0 else (True, False):
            start = time.perf_counter()
            _serve_frame(extractor, *modes[enabled], image, pair)
            seconds[enabled] = time.perf_counter() - start
        overheads.append(seconds[True] / seconds[False] - 1.0)
    return overheads


def test_telemetry_overhead_report(overhead_config, overhead_images, trace_dir):
    """Overhead bars + structural trace validation + bit-identity."""
    report_dir = os.environ.get("BENCH_REPORT_DIR")

    # -- per-frame cost: disabled vs enabled, paired ----------------------
    q25, overhead, q75 = np.percentile(
        _paired_overheads(overhead_config, overhead_images), [25, 50, 75]
    )

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
        "timing_pairs": TIMING_PAIRS,
        "enabled_overhead_fraction": overhead,
        "enabled_overhead_quartiles": [q25, q75],
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

    # the overhead bar last, so the report JSON always lands when it trips
    assert overhead < MAX_ENABLED_OVERHEAD, (
        f"enabled telemetry costs {overhead:.1%} "
        f"(>= {MAX_ENABLED_OVERHEAD:.0%}) of a served frame"
    )
