"""Result transport: shared-memory ring vs its per-result pickle fallback.

The cluster's inbound hop moves pixels through the shared-memory frame
ring; this report measures the *return* hop.  Workers pack each
:class:`~repro.features.ExtractionResult`'s flat arrays into a
:class:`~repro.cluster.SharedResultRing` slot and the queue carries only a
tiny slot descriptor; a result that does not fit its slot is pickled
through the worker's ``multiprocessing`` result queue instead
(``docs/serving.md`` -> Result transport).

The 2-worker smoke serves the same batch twice — once through the ring,
once with result-ring slots too small for any result so every result takes
the pickle fallback — verifies both stay bit-identical to sequential
extraction, and reports the bytes each path moves through the queue per
frame plus the throughput delta.
The hard bar is on *bytes*, not time: queue payload per frame must shrink
by >= 10x with the ring (descriptors are ~100 bytes where pickled results
are tens of kilobytes), while the timing columns are informational on
shared runners.

Set ``BENCH_REPORT_DIR`` to also write the report as
``bench_result_transport.json`` (CI uploads these as artifacts).
"""

import pickle
import time

import pytest

from repro.cluster import ClusterServer, RingSlotRef
from repro.cluster import server as server_module
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor
from repro.image import random_blocks
from repro.cluster.resultpack import packed_nbytes

from conftest import print_section, write_report_file

NUM_FRAMES = 24
#: The hard acceptance bar: queue bytes/frame must shrink at least this much.
MIN_BYTES_REDUCTION = 10.0


@pytest.fixture(scope="module")
def transport_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def transport_images(transport_config):
    return [
        random_blocks(
            transport_config.image_height,
            transport_config.image_width,
            block=9,
            seed=seed,
        )
        for seed in range(NUM_FRAMES)
    ]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


def _serve(config, images):
    with ClusterServer(config, num_workers=2) as server:
        start = time.perf_counter()
        results = server.extract_many(images)
        elapsed = time.perf_counter() - start
        report = server.stats.as_dict()
    return results, elapsed, report


def test_result_transport_smoke(transport_config, transport_images, monkeypatch):
    """2-worker smoke: ring vs pickle-fallback queue bytes per frame, both
    bit-exact."""
    sequential = [
        OrbExtractor(transport_config).extract(image) for image in transport_images
    ]
    baseline = [_feature_key(result) for result in sequential]

    ring_results, ring_s, ring_stats = _serve(transport_config, transport_images)
    with monkeypatch.context() as patch:
        # result-ring slots too small for any packed result
        patch.setattr(server_module, "max_packed_nbytes", lambda config: 64)
        pickle_results, pickle_s, pickle_stats = _serve(
            transport_config, transport_images
        )
    assert [_feature_key(r) for r in ring_results] == baseline
    assert [_feature_key(r) for r in pickle_results] == baseline
    assert ring_stats["results_zero_copy"] == NUM_FRAMES
    assert pickle_stats["results_via_pickle"] == NUM_FRAMES
    assert ring_stats["leaked_slots"] == 0
    assert pickle_stats["leaked_slots"] == 0

    # queue payload per frame: the pickled result itself vs the descriptor
    # entry that rides the queue when the arrays travel through shared
    # memory instead (job id + RingSlotRef + latency + error field)
    pickled_bytes = [len(pickle.dumps(result)) for result in sequential]
    pickle_per_frame = sum(pickled_bytes) / NUM_FRAMES
    descriptor_bytes = [
        len(pickle.dumps((index, RingSlotRef(index, packed_nbytes(result)), 0.001, None)))
        for index, result in enumerate(sequential)
    ]
    ring_per_frame = sum(descriptor_bytes) / NUM_FRAMES
    reduction = pickle_per_frame / ring_per_frame

    report = {
        "frames": NUM_FRAMES,
        "pickle_queue_bytes_per_frame": round(pickle_per_frame, 1),
        "ring_queue_bytes_per_frame": round(ring_per_frame, 1),
        "bytes_reduction_x": round(reduction, 1),
        "ring_result_bytes_saved": ring_stats["result_bytes_saved"],
        "ring_throughput_fps": round(NUM_FRAMES / ring_s, 1),
        "pickle_throughput_fps": round(NUM_FRAMES / pickle_s, 1),
        "throughput_delta_pct": round(100.0 * (pickle_s / ring_s - 1.0), 1),
        "bit_identical": True,
    }
    print_section("Result transport: shared-memory ring vs pickle fallback")
    print(f"{'transport':<10} {'queue B/frame':>14} {'frames/s':>10}")
    print(
        f"{'pickle':<10} {report['pickle_queue_bytes_per_frame']:>14} "
        f"{report['pickle_throughput_fps']:>10}"
    )
    print(
        f"{'ring':<10} {report['ring_queue_bytes_per_frame']:>14} "
        f"{report['ring_throughput_fps']:>10}"
    )
    print(
        f"queue bytes/frame reduction: {report['bytes_reduction_x']}x "
        f"(bar: >= {MIN_BYTES_REDUCTION}x); packed bytes moved via shared "
        f"memory: {report['ring_result_bytes_saved']}"
    )
    write_report_file("bench_result_transport.json", report)
    assert reduction >= MIN_BYTES_REDUCTION
