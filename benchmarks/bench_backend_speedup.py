"""Backend speedup: reference vs vectorized describe throughput.

Times ``describe`` (orientation + description) of the two float engines on
the same detected ORB candidate sets, times full-frame extraction with the
whole ``reference`` and ``vectorized`` engines, and prints the comparison as
a JSON report (keypoints/s through ``describe``, frames/s end to end).
The acceptance bar is a >= 5x ``describe`` speedup for the ``vectorized``
engine while ``tests/test_backends_parity.py`` proves the outputs are
bit-identical (tier-1 also enforces the bar on a small workload, see
``TestComputeEngineSpeedup`` there).

Run the quarter-resolution workload with ``pytest benchmarks/`` and the full
VGA 4-level workload with ``pytest -m slow benchmarks/`` (it carries the
``slow`` marker).
"""

import json
import time
from dataclasses import replace

import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.engines import ReferenceEngine, VectorizedEngine
from repro.features import OrbExtractor
from repro.features.orb import ExtractionProfile
from repro.image import ImagePyramid, gaussian_blur

from conftest import print_section


def _detect_candidates(config: ExtractorConfig, image):
    """Run the shared detection front-end once; return per-level candidates."""
    extractor = OrbExtractor(config)
    pyramid = ImagePyramid(image, config.pyramid)
    levels = []
    profile = ExtractionProfile()
    for level in pyramid:
        smoothed = gaussian_blur(level.image)
        xs, ys, scores = extractor._detect_level_candidates(level.image, level.level, profile)
        if xs.size:
            levels.append((smoothed, xs, ys, scores))
    return levels


def _time_describe(engine, levels, repeats: int = 3):
    """Best-of-N time for describing every level's candidates with ``engine``."""
    keypoints = sum(xs.size for _, xs, ys, _ in levels)
    for smoothed, xs, ys, scores in levels:  # warm-up pass
        engine.describe(smoothed, xs, ys, scores)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for smoothed, xs, ys, scores in levels:
            engine.describe(smoothed, xs, ys, scores)
        best = min(best, time.perf_counter() - start)
    return {
        "keypoints": keypoints,
        "seconds": best,
        "keypoints_per_s": keypoints / best if best > 0 else 0.0,
    }


def _time_extraction(config: ExtractorConfig, image, repeats: int = 2):
    """Best-of-N full-frame extraction time (detection + description + filter)."""
    extractor = OrbExtractor(config)
    extractor.extract(image)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = extractor.extract(image)
        best = min(best, time.perf_counter() - start)
    return {
        "seconds": best,
        "frames_per_s": 1.0 / best if best > 0 else 0.0,
        "features": len(result.features),
    }


def _speedup_report(config: ExtractorConfig, image, workload_name: str):
    levels = _detect_candidates(config, image)
    reference = _time_describe(ReferenceEngine(config), levels)
    vectorized = _time_describe(VectorizedEngine(config), levels)
    full_reference = _time_extraction(replace(config, engine="reference"), image)
    full_vectorized = _time_extraction(replace(config, engine="vectorized"), image)
    return {
        "workload": {
            "name": workload_name,
            "image": f"{config.image_width}x{config.image_height}",
            "pyramid_levels": config.pyramid.num_levels,
            "max_features": config.max_features,
            "candidate_keypoints": reference["keypoints"],
        },
        "compute_engine": {
            "reference_keypoints_per_s": reference["keypoints_per_s"],
            "vectorized_keypoints_per_s": vectorized["keypoints_per_s"],
            "speedup": reference["seconds"] / vectorized["seconds"],
        },
        "full_extraction": {
            "reference_frames_per_s": full_reference["frames_per_s"],
            "vectorized_frames_per_s": full_vectorized["frames_per_s"],
            "speedup": full_reference["seconds"] / full_vectorized["seconds"],
        },
    }


def test_backend_speedup_quarter_resolution(small_image):
    config = ExtractorConfig(
        image_width=320,
        image_height=240,
        pyramid=PyramidConfig(num_levels=2),
        max_features=500,
    )
    report = _speedup_report(config, small_image, "orb-extraction-320x240")
    print_section("Backend speedup: reference vs vectorized (320x240, 2 levels)")
    print(json.dumps(report, indent=2))
    # acceptance bar: the batched compute engine is >= 5x the scalar path
    assert report["compute_engine"]["speedup"] >= 5.0
    # the whole vectorized engine must beat the whole reference engine end to end
    assert report["full_extraction"]["speedup"] > 1.2


@pytest.mark.slow
def test_backend_speedup_vga(vga_image):
    """Full paper-scale workload: 640x480, 4 pyramid levels, 1024 features."""
    config = ExtractorConfig()
    report = _speedup_report(config, vga_image, "orb-extraction-640x480")
    print_section("Backend speedup: reference vs vectorized (640x480, 4 levels)")
    print(json.dumps(report, indent=2))
    assert report["compute_engine"]["speedup"] >= 5.0
