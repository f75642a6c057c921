"""Front-end speedup: reference vs vectorized detection + smoothing throughput.

Times the detection and smoothing of the two float engines per stage (FAST,
Harris, NMS, smoothing) and fused (``detect`` + ``smooth``, the full level-0 front-end)
on the same workloads, and prints the comparison as a JSON report.  The
acceptance bar is a >= 4x fused speedup on the VGA level-0 workload while
``tests/test_frontend_parity.py`` proves the outputs are bit-identical
(tier-1 also enforces a 2x bar on a small workload, see
``TestFrontendSpeedup`` there).

Run the quarter-resolution workload with ``pytest benchmarks/`` and the full
VGA workload with ``pytest -m slow benchmarks/`` (it carries the ``slow``
marker).  Alongside the engine comparison the report also times end-to-end
extraction and the :class:`~repro.cluster.ClusterServer` multi-frame path,
so the ``BENCH_*.json`` trajectory gets front-end and serving baselines.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor
from repro.features.fast import fast_corner_mask
from repro.features.harris import harris_response_map, harris_scores_sparse
from repro.features.nms import non_maximum_suppression, suppress_keypoints_sparse
from repro.engines import ReferenceEngine, VectorizedEngine
from repro.image import gaussian_blur

from conftest import print_section


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_stage_times(config, image):
    """Per-stage timings of the dense reference pipeline."""
    mask = fast_corner_mask(image, config.fast)
    scores = harris_response_map(image)
    return {
        "fast_s": _best_of(lambda: fast_corner_mask(image, config.fast)),
        "harris_s": _best_of(lambda: harris_response_map(image)),
        "nms_s": _best_of(lambda: non_maximum_suppression(mask, scores, radius=1)),
        "smooth_s": _best_of(lambda: gaussian_blur(image)),
    }


def _vectorized_stage_times(config, image):
    """Per-stage timings of the fused vectorized engine."""
    engine = VectorizedEngine(config)
    engine.detect_with_count(image)  # warm-up
    xs, ys = engine._fast_corners(image)
    scores = harris_scores_sparse(image, xs, ys)
    return {
        "fast_s": _best_of(lambda: engine._fast_corners(image)),
        "harris_s": _best_of(lambda: harris_scores_sparse(image, xs, ys)),
        "nms_s": _best_of(
            lambda: suppress_keypoints_sparse(xs, ys, scores, image.shape, radius=1)
        ),
        "smooth_s": _best_of(lambda: engine.smooth(image)),
    }


def _fused_time(engine, image):
    """Fused level-0 front-end time (detect + smooth) for one engine."""
    engine.detect_with_count(image)
    engine.smooth(image)  # warm-up

    def run():
        engine.detect_with_count(image)
        engine.smooth(image)

    return _best_of(run, repeats=7)


def _extraction_time(config, image):
    extractor = OrbExtractor(config)
    extractor.extract(image)  # warm-up
    return _best_of(lambda: extractor.extract(image), repeats=3)


def _serving_report(config, image, num_frames=8, num_workers=2):
    """Frames/s sequential vs through a ``num_workers`` ClusterServer.

    The server's wall-clock win scales with available cores; on a
    single-core host the workers only add transport overhead, so the
    report records ``cpu_count`` next to the ratio and the benchmark
    asserts identity-of-results elsewhere rather than a serving speedup.
    """
    import os

    extractor = OrbExtractor(config)
    images = [image] * num_frames
    extractor.extract(image)  # warm-up

    def sequential():
        for frame in images:
            extractor.extract(frame)

    sequential_s = _best_of(sequential, repeats=2)
    with ClusterServer(config, num_workers=num_workers) as server:
        server.extract_many(images)  # warm every worker

        def served():
            server.extract_many(images)

        served_s = _best_of(served, repeats=2)
    return {
        "frames": num_frames,
        "num_workers": num_workers,
        "cpu_count": os.cpu_count(),
        "sequential_fps": num_frames / sequential_s,
        "served_fps": num_frames / served_s,
        "speedup": sequential_s / served_s,
    }


def _speedup_report(config, image, workload_name):
    reference = _reference_stage_times(config, image)
    vectorized = _vectorized_stage_times(config, image)
    fused_reference = _fused_time(ReferenceEngine(config), image)
    fused_vectorized = _fused_time(VectorizedEngine(config), image)
    corners = int(fast_corner_mask(image, config.fast).sum())
    per_stage = {
        stage: {
            "reference_ms": reference[f"{stage}_s"] * 1e3,
            "vectorized_ms": vectorized[f"{stage}_s"] * 1e3,
            "speedup": reference[f"{stage}_s"] / vectorized[f"{stage}_s"],
        }
        for stage in ("fast", "harris", "nms", "smooth")
    }
    return {
        "workload": {
            "name": workload_name,
            "image": f"{image.width}x{image.height}",
            "fast_corners": corners,
        },
        "per_stage": per_stage,
        "fused_front_end": {
            "reference_ms": fused_reference * 1e3,
            "vectorized_ms": fused_vectorized * 1e3,
            "speedup": fused_reference / fused_vectorized,
        },
        "full_extraction": {
            "reference_s": _extraction_time(replace(config, engine="reference"), image),
            "vectorized_s": _extraction_time(replace(config, engine="vectorized"), image),
        },
        "serving": _serving_report(config, image),
    }


def test_frontend_speedup_quarter_resolution(small_image):
    config = ExtractorConfig(
        image_width=320,
        image_height=240,
        pyramid=PyramidConfig(num_levels=2),
        max_features=500,
    )
    report = _speedup_report(config, small_image, "frontend-320x240")
    print_section("Front-end speedup: reference vs vectorized (320x240)")
    print(json.dumps(report, indent=2))
    # the quarter-res bar is softer (fewer pixels amortise fixed costs less)
    assert report["fused_front_end"]["speedup"] >= 2.0
    assert report["serving"]["served_fps"] > 0


@pytest.mark.slow
def test_frontend_speedup_vga(vga_image):
    """Full paper-scale workload: 640x480 level-0, the acceptance bar."""
    config = ExtractorConfig()
    report = _speedup_report(config, vga_image, "frontend-640x480")
    print_section("Front-end speedup: reference vs vectorized (640x480)")
    print(json.dumps(report, indent=2))
    # acceptance bar: the fused FAST+Harris+NMS+blur pass is >= 4x faster,
    # with bit-identical outputs (tests/test_frontend_parity.py)
    assert report["fused_front_end"]["speedup"] >= 4.0


@pytest.mark.slow
def test_frontend_parity_on_bench_workload(vga_image):
    """The bench workload itself is checked for bit-identical retained output."""
    config = ExtractorConfig()
    reference = ReferenceEngine(config)
    vectorized = VectorizedEngine(config)
    ref = reference.detect_with_count(vga_image)
    vec = vectorized.detect_with_count(vga_image)
    assert ref[3] == vec[3]
    assert np.array_equal(ref[0], vec[0])
    assert np.array_equal(ref[1], vec[1])
    assert ref[2].tobytes() == vec[2].tobytes()
    assert np.array_equal(
        reference.smooth(vga_image).pixels, vectorized.smooth(vga_image).pixels
    )
