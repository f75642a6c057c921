"""Cluster scaling: process-sharded throughput vs the thread FrameServer.

The thread server keeps one engine busy from many threads, but every
Python-level stage shares the producer's GIL, so its scaling flattens near
one host core; the process cluster shards engines across workers and moves
frames through shared memory.  This report measures aggregate extraction
throughput at 1 / 2 / 4 / ``cpu_count`` workers against a 4-thread
:class:`~repro.serving.FrameServer` baseline and a plain sequential loop,
on the same batch of tiny frames, and verifies the served results stay
bit-identical to sequential extraction.  The sweep (and its hard speedup
bar) carries the ``slow`` marker; the 2-worker smoke runs in the quick
tier on every push.

``cpu_count`` is recorded in the JSON: on a single-core host every mode
collapses onto one core and the speedup columns document exactly that,
while on a multi-core host the 4-worker cluster is expected to clear **2x**
the thread server (asserted only when the host has >= 4 cores).

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
from repro.serving import FrameServer

from conftest import print_section, write_report_file

NUM_FRAMES = 24
BASELINE_THREADS = 4
WORKER_SWEEP = [1, 2, 4]
#: Timed passes per configuration; best-of-N damps shared-runner noise.
TIMING_REPEATS = 2


def _timed_extract(server, images, **kwargs):
    """Serve the batch ``TIMING_REPEATS`` times; return (results, best seconds)."""
    best = float("inf")
    results = None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        results = server.extract_many(images, **kwargs)
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

    with FrameServer(extractor=sequential_extractor, max_workers=BASELINE_THREADS) as server:
        server.extract_many(scaling_images[:BASELINE_THREADS])  # warm the pool
        thread_results, thread_s = _timed_extract(server, scaling_images)
        thread_stats = server.stats.as_dict()
    for seq_result, thread_result in zip(sequential_results, thread_results):
        assert _feature_key(seq_result) == _feature_key(thread_result)
    thread_fps = len(scaling_images) / thread_s

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
                "speedup_vs_frame_server": fps / thread_fps if thread_fps else 0.0,
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
        "frame_server": {
            "max_workers": BASELINE_THREADS,
            "throughput_fps": thread_fps,
            "elapsed_s": thread_s,
            "stats": thread_stats,
        },
        "cluster": cluster_rows,
    }
    print_section("cluster scaling: process shards vs thread FrameServer")
    print(json.dumps(report, indent=2))
    write_report_file("bench_cluster_scaling.json", report)

    # every configuration served the full batch, in order, bit-identically
    assert all(row["stats"]["frames_failed"] == 0 for row in cluster_rows)
    # the acceptance bar only binds where the hardware can express it: with
    # >= 4 cores the 4-worker cluster must at least double the thread server
    if cpu_count >= 4:
        at_four = next(row for row in cluster_rows if row["workers"] == 4)
        assert at_four["speedup_vs_frame_server"] >= 2.0


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


# ---------------------------------------------------------------------------
# Skewed arrivals: load-aware routing + work stealing vs static round-robin
# ---------------------------------------------------------------------------

#: Zipf-ish shard-key pattern: key 0 dominates (8/16), then 1 (4/16),
#: 2 (2/16), 3 (2/16) — the hot-sequence arrival shape that wrecks static
#: ``by_sequence`` placement.
ZIPF_KEY_CYCLE = [0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 3, 0, 1, 2, 0, 1]


def _skewed_workload(config, num_frames):
    """Alternating heavy / light frames plus Zipf-ish shard keys.

    Heavy frames (fine 3-px texture, dense corners) land on the *even*
    indices, so a 2-worker round-robin stacks every heavy frame on worker 0
    while worker 1 coasts through the light (coarse 24-px texture) frames —
    the pathological arrival pattern load-aware routing exists for.
    """
    images = [
        random_blocks(
            config.image_height,
            config.image_width,
            block=3 if index % 2 == 0 else 24,
            seed=index,
        )
        for index in range(num_frames)
    ]
    shard_keys = [ZIPF_KEY_CYCLE[index % len(ZIPF_KEY_CYCLE)] for index in range(num_frames)]
    return images, shard_keys


#: (row label, policy, work_stealing, needs shard keys) — the placement
#: strategies the skewed-arrival report compares.
SKEW_POLICY_ROWS = [
    ("round_robin", "round_robin", False, False),
    ("by_sequence_zipf", "by_sequence", False, True),
    ("by_sequence_zipf+steal", "by_sequence", True, True),
    ("least_loaded", "least_loaded", False, False),
    ("least_loaded+steal", "least_loaded", True, False),
]


def _run_skew_row(config, images, shard_keys, expected, *, workers, policy, stealing):
    """One placement strategy over the skewed batch; returns its report row."""
    with ClusterServer(
        config,
        num_workers=workers,
        policy=policy,
        max_in_flight=4 * workers,
        work_stealing=stealing,
    ) as cluster:
        # warm every worker's engine before the timed window
        cluster.extract_many(
            images[:workers],
            shard_keys=shard_keys[:workers] if shard_keys is not None else None,
        )
        results, elapsed_s = _timed_extract(cluster, images, shard_keys=shard_keys)
        stats = cluster.stats.as_dict()
    for expected_result, served_result in zip(expected, results):
        assert _feature_key(expected_result) == _feature_key(served_result)
    completed = [worker["frames_completed"] for worker in stats["workers"]]
    return {
        "policy": policy,
        "work_stealing": stealing,
        "throughput_fps": len(images) / elapsed_s,
        "elapsed_s": elapsed_s,
        "steals": stats["steals"],
        "frames_per_worker": completed,
        "imbalance": max(completed) - min(completed),
    }


def _ring_transport(config, images, workers=2):
    """Bytes the frame ring copies per frame: one ``height x width`` memcpy
    into the shared slot per submitted frame."""
    with ClusterServer(config, num_workers=workers) as cluster:
        cluster.extract_many(images)
        stats = cluster.stats.as_dict()
    return {
        "frames_via_ring": stats["frames_via_ring"],
        "ring_bytes_copied": stats["ring_bytes_copied"],
        "bytes_copied_per_frame": stats["ring_bytes_copied"] / len(images),
    }


@pytest.mark.slow
def test_cluster_skewed_arrival_report(scaling_config):
    """Skewed arrivals: ``least_loaded`` + stealing must beat round-robin.

    Slow tier (timing bar).  On a multi-core host the heavy-even workload
    makes static round-robin serialise every heavy frame on one worker, so
    load-aware placement with stealing has real throughput to reclaim.
    """
    cpu_count = os.cpu_count() or 1
    num_frames = 2 * NUM_FRAMES
    images, shard_keys = _skewed_workload(scaling_config, num_frames)
    extractor = OrbExtractor(scaling_config)
    expected = [extractor.extract(image) for image in images]

    rows = []
    for label, policy, stealing, needs_keys in SKEW_POLICY_ROWS:
        row = _run_skew_row(
            scaling_config,
            images,
            shard_keys if needs_keys else None,
            expected,
            workers=2,
            policy=policy,
            stealing=stealing,
        )
        row["label"] = label
        rows.append(row)

    report = {
        "cpu_count": cpu_count,
        "workload": {
            "frames": num_frames,
            "heavy_frame_indices": "even (block=3)",
            "light_frame_indices": "odd (block=24)",
            "zipf_key_cycle": ZIPF_KEY_CYCLE,
        },
        "rows": rows,
        "transport": _ring_transport(scaling_config, images[:12]),
    }
    print_section("cluster skewed arrivals: routing policy x work stealing")
    print(json.dumps(report, indent=2))
    write_report_file("bench_cluster_skew.json", report)

    by_label = {row["label"]: row for row in rows}
    assert all(row["steals"] == 0 for row in rows if not row["work_stealing"])
    # the timing bar only binds where the hardware can express parallelism
    if cpu_count >= 2:
        assert (
            by_label["least_loaded+steal"]["throughput_fps"]
            > by_label["round_robin"]["throughput_fps"]
        )


def test_cluster_skewed_smoke_two_workers(scaling_config):
    """CI quick tier: the skewed 2-worker workload end to end on any host.

    No timing bar (single-core CI runners cannot express one) — asserts
    correctness, that stealing actually fires under the skew, and that the
    frame ring carries every frame with one frame-sized copy; the JSON
    report is uploaded as a CI artifact.
    """
    num_frames = 16
    images, shard_keys = _skewed_workload(scaling_config, num_frames)
    extractor = OrbExtractor(scaling_config)
    expected = [extractor.extract(image) for image in images]

    rows = []
    for label, policy, stealing, needs_keys in (
        ("round_robin", "round_robin", False, False),
        ("by_sequence_zipf+steal", "by_sequence", True, True),
        ("least_loaded+steal", "least_loaded", True, False),
    ):
        row = _run_skew_row(
            scaling_config,
            images,
            shard_keys if needs_keys else None,
            expected,
            workers=2,
            policy=policy,
            stealing=stealing,
        )
        row["label"] = label
        rows.append(row)

    transport = _ring_transport(scaling_config, images[:8])
    report = {
        "cpu_count": os.cpu_count() or 1,
        "workload": {"frames": num_frames, "zipf_key_cycle": ZIPF_KEY_CYCLE},
        "rows": rows,
        "transport": transport,
    }
    print_section("cluster skewed smoke: 2 workers, quick tier")
    print(json.dumps(report, indent=2))
    write_report_file("bench_cluster_skew_smoke.json", report)

    by_label = {row["label"]: row for row in rows}
    assert by_label["round_robin"]["steals"] == 0
    # the Zipf hot key pins every hot frame to one worker: stealing must
    # actually fire to spread the backlog
    assert by_label["by_sequence_zipf+steal"]["steals"] > 0
    assert by_label["by_sequence_zipf+steal"]["imbalance"] < num_frames
    assert transport["frames_via_ring"] == 8
    assert transport["bytes_copied_per_frame"] == (
        scaling_config.image_height * scaling_config.image_width
    )
