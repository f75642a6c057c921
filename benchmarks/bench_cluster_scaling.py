"""Cluster scaling: process-sharded throughput vs a sequential loop.

Every Python-level stage of the extractor holds its process's GIL, so the
cluster shards engines across worker processes and moves frames through
shared memory.  This report measures aggregate extraction throughput at
1 / 2 / 4 / ``cpu_count`` workers against a plain sequential loop, on the
same batch of tiny frames, and verifies the served results stay
bit-identical to sequential extraction.  The sweep (and its hard speedup
bar) carries the ``slow`` marker; the 2-worker smoke runs in the quick
tier on every push.

``cpu_count`` is recorded in the JSON: on a single-core host every mode
collapses onto one core and the speedup columns document exactly that,
while on a multi-core host the 4-worker cluster is expected to clear **2x**
the sequential loop (asserted only when the host has >= 4 cores).

Set ``BENCH_REPORT_DIR`` to also write the report as
``bench_cluster_scaling.json`` (CI uploads these as artifacts).
"""

import json
import os
import time

import pytest

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor
from repro.image import random_blocks

from conftest import print_section, write_report_file

NUM_FRAMES = 24
WORKER_SWEEP = [1, 2, 4]
#: Timed passes per configuration; best-of-N damps shared-runner noise.
TIMING_REPEATS = 2


def _timed_extract(server, images):
    """Serve the batch ``TIMING_REPEATS`` times; return (results, best seconds)."""
    best = float("inf")
    results = None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        results = server.extract_many(images)
        best = min(best, time.perf_counter() - start)
    return results, best


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


@pytest.fixture(scope="module")
def scaling_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def scaling_images(scaling_config):
    return [
        random_blocks(
            scaling_config.image_height, scaling_config.image_width, block=9, seed=seed
        )
        for seed in range(NUM_FRAMES)
    ]


@pytest.mark.slow
def test_cluster_scaling_report(scaling_config, scaling_images):
    """Full worker sweep + the >=2x-at-4-workers bar (multi-core hosts).

    Runs under the ``slow`` marker: the throughput assertion is a timing
    bar, so it belongs in the dedicated slow CI step rather than the quick
    harness that gates every push (the 2-worker smoke below stays quick).
    """
    cpu_count = os.cpu_count() or 1
    sequential_extractor = OrbExtractor(scaling_config)
    sequential_s = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        sequential_results = [sequential_extractor.extract(im) for im in scaling_images]
        sequential_s = min(sequential_s, time.perf_counter() - start)

    worker_counts = sorted(set(WORKER_SWEEP + [cpu_count]))
    cluster_rows = []
    for workers in worker_counts:
        with ClusterServer(scaling_config, num_workers=workers) as cluster:
            # warm: every worker builds its engine before the timed window
            cluster.extract_many(scaling_images[:workers])
            cluster_results, cluster_s = _timed_extract(cluster, scaling_images)
            stats = cluster.stats.as_dict()
        for seq_result, cluster_result in zip(sequential_results, cluster_results):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        fps = len(scaling_images) / cluster_s
        cluster_rows.append(
            {
                "workers": workers,
                "throughput_fps": fps,
                "elapsed_s": cluster_s,
                "speedup_vs_sequential": fps * sequential_s / len(scaling_images),
                "stats": stats,
            }
        )

    report = {
        "workload": {
            "image": f"{scaling_config.image_width}x{scaling_config.image_height}",
            "pyramid_levels": scaling_config.pyramid.num_levels,
            "max_features": scaling_config.max_features,
            "frames": len(scaling_images),
        },
        "cpu_count": cpu_count,
        "sequential_fps": len(scaling_images) / sequential_s,
        "cluster": cluster_rows,
    }
    print_section("cluster scaling: process shards vs sequential")
    print(json.dumps(report, indent=2))
    write_report_file("bench_cluster_scaling.json", report)

    # every configuration served the full batch, in order, bit-identically
    assert all(row["stats"]["frames_failed"] == 0 for row in cluster_rows)
    # the acceptance bar only binds where the hardware can express it: with
    # >= 4 cores the 4-worker cluster must at least double the sequential loop
    if cpu_count >= 4:
        at_four = next(row for row in cluster_rows if row["workers"] == 4)
        assert at_four["speedup_vs_sequential"] >= 2.0


def test_cluster_smoke_two_workers(scaling_config, scaling_images):
    """CI smoke: a 2-worker tiny-frame run serves correctly on any host."""
    extractor = OrbExtractor(scaling_config)
    expected = [extractor.extract(image) for image in scaling_images[:4]]
    with ClusterServer(scaling_config, num_workers=2) as cluster:
        served = cluster.extract_many(scaling_images[:4])
        stats = cluster.stats
    for expected_result, served_result in zip(expected, served):
        assert _feature_key(expected_result) == _feature_key(served_result)
    assert stats.frames_completed == 4
    assert stats.frames_failed == 0
    assert stats.latency_p95_ms >= stats.latency_p50_ms > 0.0

