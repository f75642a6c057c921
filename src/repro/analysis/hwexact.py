"""Cross-validation harness for the quantized ``hwexact`` engine pair.

Two experiments back the tentpole claim of the hardware model:

* :func:`run_hwexact_parity` — the batched ``hwexact`` engines
  (``ExtractorConfig(engine="hwexact")``) must
  reproduce the hardware model's unit-by-unit quantized extraction
  (:meth:`repro.hw.OrbExtractorAccelerator.extract_quantized`) **bit for
  bit**: same retained keypoints, scores, orientation labels, descriptors
  and workload profiles.  The two sides share only the arithmetic kernels
  of :mod:`repro.quant`; orchestration (streaming scalar windows vs whole
  level numpy passes) is independent, so agreement validates both.
* :func:`run_quantization_divergence` — quantifies what fixed-point
  arithmetic *costs* relative to the float ``vectorized`` pipeline:
  keypoint set agreement (exact and within a 1-pixel radius), descriptor
  agreement on shared keypoints, and end-to-end trajectory divergence on a
  synthetic TUM sequence (the paper's accuracy-preservation claim).

Both functions return plain dictionaries so the benchmark harness
(``benchmarks/bench_hwexact_parity.py``) can print them as JSON reports and
``tests/test_hwexact_parity.py`` can assert on them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

import numpy as np

from ..config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from ..dataset import SequenceSpec, make_sequence
from ..features import ExtractionResult, OrbExtractor
from ..image import GrayImage, random_blocks
from ..slam import SlamSystem


def _default_parity_config() -> ExtractorConfig:
    """Small workload: the hw model walks every window in Python."""
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=100,
        engine="hwexact",
    )


def run_hwexact_parity(
    images: Optional[Sequence[GrayImage]] = None,
    config: Optional[ExtractorConfig] = None,
) -> Dict[str, object]:
    """Engine-pair extraction vs hardware-model quantized extraction.

    Returns per-image feature counts and mismatch counts; ``bit_identical``
    is True only if every feature record *and* every workload profile agrees
    exactly across all images.
    """
    from ..hw import OrbExtractorAccelerator

    config = config or _default_parity_config()
    if images is None:
        images = [
            random_blocks(config.image_height, config.image_width, block=10, seed=seed)
            for seed in (7, 21)
        ]
    engine_extractor = OrbExtractor(config)
    accelerator = OrbExtractorAccelerator(config)
    rows = []
    total_mismatches = 0
    profiles_equal = True
    for index, image in enumerate(images):
        engine_result = engine_extractor.extract(image)
        hw_result, _ = accelerator.extract_quantized(image)
        engine_records = engine_result.feature_records()
        hw_records = hw_result.feature_records()
        mismatches = sum(a != b for a, b in zip(engine_records, hw_records))
        mismatches += abs(len(engine_records) - len(hw_records))
        total_mismatches += mismatches
        profile_match = vars(engine_result.profile) == vars(hw_result.profile)
        profiles_equal = profiles_equal and profile_match
        rows.append(
            {
                "image": index,
                "engine_features": len(engine_records),
                "hw_features": len(hw_records),
                "mismatched_features": mismatches,
                "profile_match": profile_match,
            }
        )
    return {
        "images": len(rows),
        "rows": rows,
        "total_mismatches": total_mismatches,
        "profiles_equal": profiles_equal,
        "bit_identical": total_mismatches == 0 and profiles_equal,
    }


def _rows_by_keypoint(result: ExtractionResult) -> Dict[tuple, int]:
    """Row of each retained ``(level, x, y)`` in the result's arrays."""
    keys = result.feature_arrays().keypoint_keys()
    return {key: row for row, key in enumerate(keys)}


def _coverage_1px(points: set, reference: set) -> float:
    """Fraction of ``points`` with a reference keypoint within 1 pixel."""
    if not points:
        return 1.0
    covered = 0
    for level, x, y in points:
        if any(
            (level, x + dx, y + dy) in reference
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ):
            covered += 1
    return covered / len(points)


def compare_float_vs_fixed_extraction(
    image: GrayImage, config: Optional[ExtractorConfig] = None
) -> Dict[str, float]:
    """Keypoint/descriptor agreement between the float and quantized pipelines.

    ``config`` (any engine selection) is re-targeted to the ``vectorized``
    pair for the float run and the ``hwexact`` pair for the fixed run.
    """
    config = config or _default_parity_config()
    float_result = OrbExtractor(replace(config, engine="vectorized")).extract(image)
    fixed_result = OrbExtractor(replace(config, engine="hwexact")).extract(image)
    float_rows = _rows_by_keypoint(float_result)
    fixed_rows = _rows_by_keypoint(fixed_result)
    float_keys = set(float_rows)
    fixed_keys = set(fixed_rows)
    common = float_keys & fixed_keys
    union = float_keys | fixed_keys
    float_descriptors = float_result.descriptor_matrix()
    fixed_descriptors = fixed_result.descriptor_matrix()
    identical_descriptors = 0
    hamming_bits = []
    for key in common:
        xor = np.bitwise_xor(
            float_descriptors[float_rows[key]], fixed_descriptors[fixed_rows[key]]
        )
        bits = int(np.unpackbits(xor).sum())
        hamming_bits.append(bits)
        identical_descriptors += bits == 0
    return {
        "float_features": float(len(float_keys)),
        "fixed_features": float(len(fixed_keys)),
        "keypoint_jaccard": len(common) / max(1, len(union)),
        "fixed_coverage_1px": _coverage_1px(fixed_keys, float_keys),
        "float_coverage_1px": _coverage_1px(float_keys, fixed_keys),
        "common_keypoints": float(len(common)),
        "descriptor_identical_ratio": (
            identical_descriptors / len(common) if common else 1.0
        ),
        "descriptor_mean_hamming_bits": (
            float(np.mean(hamming_bits)) if hamming_bits else 0.0
        ),
    }


def run_quantization_divergence(
    sequence_name: str = "fr1/xyz",
    num_frames: int = 8,
    image_width: int = 160,
    image_height: int = 120,
    max_features: int = 150,
    harris_score_shift: Optional[int] = None,
    orientation_ratio_format=None,
) -> Dict[str, object]:
    """Float-vs-fixed divergence at extraction and trajectory level.

    Runs the same synthetic TUM sequence through :class:`SlamSystem` twice —
    once with the float ``vectorized`` engine pair, once with the quantized
    ``hwexact`` pair — and reports per-frame extraction agreement plus the
    ATE of each run and the RMSE between the two estimated trajectories.

    ``harris_score_shift`` / ``orientation_ratio_format`` optionally rebind
    the datapath's register-width choices for the duration of the run
    (:func:`repro.quant.quantization_overrides`), which is how
    ``benchmarks/bench_quant_sensitivity.py`` charts accuracy against
    arithmetic precision.  The float pipeline never touches the quantized
    kernels, so overrides only move the ``fixed`` side.
    """
    from ..quant import quantization_overrides

    with quantization_overrides(
        harris_score_shift=harris_score_shift,
        orientation_ratio_format=orientation_ratio_format,
    ):
        return _quantization_divergence_body(
            sequence_name, num_frames, image_width, image_height, max_features
        )


def _quantization_divergence_body(
    sequence_name: str,
    num_frames: int,
    image_width: int,
    image_height: int,
    max_features: int,
) -> Dict[str, object]:
    extractor_config = ExtractorConfig(
        image_width=image_width,
        image_height=image_height,
        pyramid=PyramidConfig(num_levels=2),
        max_features=max_features,
    )
    spec = SequenceSpec(
        name=sequence_name,
        num_frames=num_frames,
        image_width=image_width,
        image_height=image_height,
    )
    sequence = make_sequence(spec)
    extraction = compare_float_vs_fixed_extraction(
        sequence.frames[0].image, extractor_config
    )
    tracker = TrackerConfig(ransac_iterations=64, pose_iterations=10)
    runs = {}
    trajectories = {}
    for label, engine in (("float", "vectorized"), ("fixed", "hwexact")):
        slam_config = SlamConfig(
            extractor=replace(extractor_config, engine=engine), tracker=tracker
        )
        result = SlamSystem(slam_config).run(sequence)
        ate = result.ate()
        trajectories[label] = np.array(
            [pose.translation for pose in result.estimated_poses]
        )
        runs[label] = {
            "ate_mean_cm": ate.mean_cm,
            "ate_rmse_cm": ate.rmse_cm,
            "tracking_success_ratio": result.tracking_success_ratio,
            "features_per_frame": result.mean_workload().get("features_retained", 0.0),
        }
    difference = trajectories["float"] - trajectories["fixed"]
    divergence_m = float(np.sqrt(np.mean(np.sum(difference * difference, axis=1))))
    return {
        "sequence": sequence_name,
        "frames": num_frames,
        "extraction": extraction,
        "float": runs["float"],
        "fixed": runs["fixed"],
        "trajectory_divergence_rmse_cm": 100.0 * divergence_m,
        "ate_delta_cm": runs["fixed"]["ate_mean_cm"] - runs["float"]["ate_mean_cm"],
    }
