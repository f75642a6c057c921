"""Experiment runners shared by the benchmark harness and EXPERIMENTS.md.

Each function reproduces one table or figure of the paper and returns plain
data structures (lists of row dictionaries / dataclasses) so they can be
printed by :mod:`repro.analysis.tables`, asserted on by the benchmark suite
and summarised in EXPERIMENTS.md.  Heavy experiments (the Figure 8 accuracy
sweep) accept size parameters so the benchmark suite can run them at reduced
resolution while the example scripts run them at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import (
    ExtractorConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)
from ..dataset import SequenceSpec, make_sequence
from ..features import OrbExtractor
from ..hw import EslamAccelerator
from ..image import GrayImage
from ..platforms import NOMINAL_WORKLOAD, PlatformComparison
from ..slam import SlamSystem


# ---------------------------------------------------------------------------
# Table 1: resource utilisation
# ---------------------------------------------------------------------------
def run_table1_resources() -> Dict[str, object]:
    """FPGA resource utilisation of the default eSLAM configuration."""
    accelerator = EslamAccelerator()
    report = accelerator.resource_report()
    totals = report.totals()
    return {
        "per_module": report.as_rows(),
        "totals": {
            "LUT": totals.luts,
            "FF": totals.flip_flops,
            "DSP": totals.dsps,
            "BRAM": totals.bram36,
        },
        "utilization_percent": report.utilization_percent(),
        "paper": {
            "LUT": 56954,
            "FF": 67809,
            "DSP": 111,
            "BRAM": 78,
            "LUT_percent": 26.0,
            "FF_percent": 15.5,
            "DSP_percent": 12.3,
            "BRAM_percent": 14.3,
        },
        "fits_xc7z045": report.fits(),
    }


# ---------------------------------------------------------------------------
# Table 2: runtime breakdown   /   Table 3: frame rate & energy
# ---------------------------------------------------------------------------
def run_table2_runtime(comparison: Optional[PlatformComparison] = None) -> Dict[str, object]:
    """Per-stage runtime breakdown on eSLAM / ARM / Intel i7."""
    comparison = comparison or PlatformComparison(NOMINAL_WORKLOAD)
    return {
        "rows": comparison.runtime_table(),
        "stage_speedups": comparison.stage_speedups(),
        "paper": {
            "eSLAM": {"feature_extraction": 9.1, "feature_matching": 4.0},
            "ARM Cortex-A9": {"feature_extraction": 291.6, "feature_matching": 246.2},
            "Intel i7-4700MQ": {"feature_extraction": 32.5, "feature_matching": 19.7},
        },
    }


def run_table3_energy(comparison: Optional[PlatformComparison] = None) -> Dict[str, object]:
    """Frame rate, power and energy-per-frame comparison."""
    comparison = comparison or PlatformComparison(NOMINAL_WORKLOAD)
    return {
        "rows": comparison.energy_table(),
        "speedups": comparison.speedups(),
        "energy_improvements": comparison.energy_improvements(),
        "paper": {
            "runtime_ms": {
                "normal": {"ARM Cortex-A9": 555.7, "Intel i7-4700MQ": 53.6, "eSLAM": 17.9},
                "key": {"ARM Cortex-A9": 565.6, "Intel i7-4700MQ": 54.8, "eSLAM": 31.8},
            },
            "frame_rate_fps": {
                "normal": {"ARM Cortex-A9": 1.8, "Intel i7-4700MQ": 18.66, "eSLAM": 55.87},
                "key": {"ARM Cortex-A9": 1.77, "Intel i7-4700MQ": 18.25, "eSLAM": 31.45},
            },
            "power_w": {"ARM Cortex-A9": 1.574, "Intel i7-4700MQ": 47.0, "eSLAM": 1.936},
            "energy_per_frame_mj": {
                "normal": {"ARM Cortex-A9": 875.0, "Intel i7-4700MQ": 2519.0, "eSLAM": 35.0},
                "key": {"ARM Cortex-A9": 890.0, "Intel i7-4700MQ": 2575.0, "eSLAM": 62.0},
            },
        },
    }


# ---------------------------------------------------------------------------
# Figure 8 / Figure 9: trajectory accuracy
# ---------------------------------------------------------------------------
@dataclass
class AccuracyRow:
    """One bar pair of Figure 8: per-sequence trajectory error for each descriptor."""

    sequence: str
    rs_brief_error_cm: float
    original_orb_error_cm: float

    @property
    def relative_difference(self) -> float:
        """(RS-BRIEF - original) / original, the quantity Figure 8 compares."""
        if self.original_orb_error_cm == 0:
            return 0.0
        return (
            self.rs_brief_error_cm - self.original_orb_error_cm
        ) / self.original_orb_error_cm


def _accuracy_slam_config(
    image_width: int, image_height: int, use_rs_brief: bool
) -> SlamConfig:
    """SLAM configuration used by the accuracy experiments."""
    return SlamConfig(
        extractor=ExtractorConfig(
            image_width=image_width,
            image_height=image_height,
            pyramid=PyramidConfig(num_levels=2),
            max_features=400,
            use_rs_brief=use_rs_brief,
        ),
        tracker=TrackerConfig(ransac_iterations=64, pose_iterations=10),
    )


def run_fig8_accuracy(
    num_frames: int = 12,
    image_width: int = 320,
    image_height: int = 240,
    sequences: Optional[List[str]] = None,
) -> List[AccuracyRow]:
    """RS-BRIEF vs original ORB trajectory error on the five sequences (Figure 8).

    Builds one :class:`OrbExtractor` per descriptor mode, so each extraction
    engine (and its pattern tables) is built once and shared by every
    sequence's :class:`SlamSystem`.
    """
    names = sequences or ["fr1/xyz", "fr2/xyz", "fr1/desk", "fr1/room", "fr2/rpy"]
    specs = [
        SequenceSpec(
            name=name,
            num_frames=num_frames,
            image_width=image_width,
            image_height=image_height,
        )
        for name in names
    ]
    errors_cm: Dict[bool, List[float]] = {}
    for use_rs_brief in (True, False):
        config = _accuracy_slam_config(image_width, image_height, use_rs_brief)
        extractor = OrbExtractor(config.extractor)
        errors_cm[use_rs_brief] = [
            SlamSystem(config, extractor=extractor).run(make_sequence(spec)).ate().mean_cm
            for spec in specs
        ]
    return [
        AccuracyRow(
            sequence=name,
            rs_brief_error_cm=errors_cm[True][index],
            original_orb_error_cm=errors_cm[False][index],
        )
        for index, name in enumerate(names)
    ]


def run_fig9_trajectory(
    num_frames: int = 16, image_width: int = 320, image_height: int = 240
) -> Dict[str, object]:
    """Estimated vs ground-truth trajectory on the desk sequence (Figure 9)."""
    spec = SequenceSpec(
        name="fr1/desk",
        num_frames=num_frames,
        image_width=image_width,
        image_height=image_height,
    )
    sequence = make_sequence(spec)
    outputs: Dict[str, object] = {}
    for label, use_rs_brief in (("rs_brief", True), ("original_orb", False)):
        config = _accuracy_slam_config(image_width, image_height, use_rs_brief)
        result = SlamSystem(config).run(sequence)
        ate = result.ate()
        outputs[label] = {
            "ate_mean_cm": ate.mean_cm,
            "ate_rmse_cm": ate.rmse_cm,
            "estimated_xyz": ate.aligned_estimate.tolist(),
            "ground_truth_xyz": ate.ground_truth.tolist(),
        }
    return outputs


# ---------------------------------------------------------------------------
# Section 3.1 / 4.4: rescheduling and pyramid ablations
# ---------------------------------------------------------------------------
def run_rescheduling_ablation(image: Optional[GrayImage] = None) -> Dict[str, object]:
    """Latency and memory of the rescheduled vs original extractor workflow."""
    from ..image import random_blocks

    image = image or random_blocks(480, 640, block=12, seed=3)
    results: Dict[str, object] = {}
    for label, rescheduled in (("rescheduled", True), ("original", False)):
        config = ExtractorConfig(
            image_width=image.width,
            image_height=image.height,
            rescheduled_workflow=rescheduled,
        )
        accelerator = EslamAccelerator(extractor_config=config)
        report = accelerator.extractor.latency_from_profile(
            image, keypoints_after_nms=2000, descriptors_computed=2000
        )
        results[label] = {
            "latency_ms": report.latency_ms,
            "cycles": report.total_cycles,
            "on_chip_bytes": accelerator.extractor.on_chip_buffer_bytes(
                rescheduled, image_height=image.height
            ),
        }
    rescheduled_ms = results["rescheduled"]["latency_ms"]  # type: ignore[index]
    original_ms = results["original"]["latency_ms"]  # type: ignore[index]
    results["latency_reduction_percent"] = 100.0 * (original_ms - rescheduled_ms) / original_ms
    return results


def run_pyramid_ablation() -> Dict[str, object]:
    """Pixel-count scaling of the 4-layer pyramid vs a 2-layer design (Section 4.4)."""
    from ..image import pyramid_pixel_ratio

    ratio = pyramid_pixel_ratio(4, 2, scale=1.2)
    return {
        "pixel_ratio_4_vs_2_layers": ratio,
        "extra_pixels_percent": 100.0 * (ratio - 1.0),
        "paper_extra_pixels_percent": 48.0,
    }
