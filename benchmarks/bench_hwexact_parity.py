"""hwexact cross-validation report: parity, divergence and quantized throughput.

Prints one JSON report with three sections:

* **parity** — the batched ``hwexact`` engine vs the hardware model's
  unit-by-unit quantized extraction (must be bit-identical, the tentpole
  guarantee of ``tests/test_hwexact_parity.py`` restated at benchmark scale);
* **divergence** — float-vs-fixed keypoint/descriptor agreement rates and
  the end-to-end trajectory divergence on a synthetic TUM sequence (the
  paper's accuracy-preservation claim, quantified);
* **throughput** — per-stage timings of the quantized engine next to the
  float ``vectorized`` engine, so the cost of running the
  fixed-point datapath in software is on record alongside the other
  ``BENCH_*.json`` baselines.

The default workload runs at quarter resolution; the ``slow`` marker runs
the paper's VGA frame through the batched engines (the scalar hardware walk
stays at reduced size — it evaluates every window in Python).
"""

import json
import time
from dataclasses import replace

import pytest

from repro.analysis import (
    compare_float_vs_fixed_extraction,
    run_hwexact_parity,
    run_quantization_divergence,
)
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor

from conftest import print_section


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _stage_times(engine_name: str, config: ExtractorConfig, image):
    """Per-stage timings for one extraction engine."""
    extractor = OrbExtractor(replace(config, engine=engine_name))
    engine = extractor.engine
    xs, ys, scores, _ = engine.detect_with_count(image)
    smoothed = engine.smooth(image)
    extractor.extract(image)  # warm-up
    return {
        "detect_s": _best_of(lambda: engine.detect_with_count(image)),
        "smooth_s": _best_of(lambda: engine.smooth(image)),
        "describe_s": _best_of(lambda: engine.describe(smoothed, xs, ys, scores)),
        "extract_s": _best_of(lambda: extractor.extract(image)),
        "keypoints": int(xs.size),
    }


def _throughput_report(config: ExtractorConfig, image, workload_name: str):
    quantized = _stage_times("hwexact", config, image)
    float_engine = _stage_times("vectorized", config, image)
    return {
        "workload": {
            "name": workload_name,
            "image": f"{config.image_width}x{config.image_height}",
            "pyramid_levels": config.pyramid.num_levels,
            "max_features": config.max_features,
        },
        "hwexact": quantized,
        "vectorized": float_engine,
        "quantized_frames_per_s": (
            1.0 / quantized["extract_s"] if quantized["extract_s"] > 0 else 0.0
        ),
        "quantized_vs_float_extract_ratio": (
            quantized["extract_s"] / float_engine["extract_s"]
            if float_engine["extract_s"] > 0
            else 0.0
        ),
    }


def test_hwexact_parity_and_divergence_report(small_image):
    config = ExtractorConfig(
        image_width=320,
        image_height=240,
        pyramid=PyramidConfig(num_levels=2),
        max_features=400,
        engine="hwexact",
    )
    parity = run_hwexact_parity()  # reduced size: the hw model walks windows
    divergence = run_quantization_divergence(num_frames=6)
    agreement = compare_float_vs_fixed_extraction(small_image, config)
    throughput = _throughput_report(config, small_image, "hwexact-320x240")
    report = {
        "parity": parity,
        "divergence": divergence,
        "agreement_320x240": agreement,
        "throughput": throughput,
    }
    print_section("hwexact: parity, quantization divergence, throughput")
    print(json.dumps(report, indent=2))
    # the tentpole guarantee: batched engines == hardware model, to the bit
    assert parity["bit_identical"]
    # the quantized detector stays close to the float detector
    assert agreement["fixed_coverage_1px"] > 0.5
    # fixed-point SLAM accuracy stays in the float pipeline's regime
    assert divergence["fixed"]["ate_mean_cm"] < 10.0 * max(
        1.0, divergence["float"]["ate_mean_cm"]
    )


@pytest.mark.slow
def test_hwexact_vga_throughput(vga_image):
    """Paper-scale batched workload: 640x480, 4 levels, 1024 features."""
    config = ExtractorConfig(engine="hwexact")
    report = _throughput_report(config, vga_image, "hwexact-640x480")
    report["agreement"] = compare_float_vs_fixed_extraction(vga_image, config)
    print_section("hwexact: VGA quantized throughput and agreement")
    print(json.dumps(report, indent=2))
    assert report["quantized_frames_per_s"] > 1.0
    assert report["agreement"]["fixed_coverage_1px"] > 0.5
