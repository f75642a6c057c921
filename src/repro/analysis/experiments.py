"""Experiment runners shared by the benchmark harness and EXPERIMENTS.md.

Each function reproduces one table or figure of the paper and returns plain
data structures (lists of row dictionaries / dataclasses) so they can be
printed by :mod:`repro.analysis.tables`, asserted on by the benchmark suite
and summarised in EXPERIMENTS.md.  Heavy experiments (the Figure 8 accuracy
sweep) accept size parameters so the benchmark suite can run them at reduced
resolution while the example scripts run them at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..config import (
    ExtractorConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)
from ..dataset import SequenceSpec, make_sequence
from ..errors import ReproError
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


def run_sequence_accuracy(
    sequence_name: str,
    use_rs_brief: bool,
    num_frames: int = 12,
    image_width: int = 320,
    image_height: int = 240,
) -> float:
    """Run SLAM on one synthetic sequence; return the mean ATE in centimetres."""
    spec = SequenceSpec(
        name=sequence_name,
        num_frames=num_frames,
        image_width=image_width,
        image_height=image_height,
    )
    sequence = make_sequence(spec)
    config = _accuracy_slam_config(image_width, image_height, use_rs_brief)
    result = SlamSystem(config).run(sequence)
    return result.ate().mean_cm


def run_fig8_accuracy(
    num_frames: int = 12,
    image_width: int = 320,
    image_height: int = 240,
    sequences: Optional[List[str]] = None,
) -> List[AccuracyRow]:
    """RS-BRIEF vs original ORB trajectory error on the five sequences (Figure 8).

    Uses one :class:`BatchRunner` per descriptor mode so each compute engine
    (and its pattern tables) is built once and reused across all sequences.
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
    runners = {
        label: BatchRunner(config=_accuracy_slam_config(image_width, image_height, rs))
        for label, rs in (("rs_brief", True), ("original_orb", False))
    }
    results = {
        label: runner.run_all(specs, label=label) for label, runner in runners.items()
    }
    return [
        AccuracyRow(
            sequence=name,
            rs_brief_error_cm=results["rs_brief"][index].ate_mean_cm,
            original_orb_error_cm=results["original_orb"][index].ate_mean_cm,
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
# Batched multi-sequence driver (one compute engine, many runs)
# ---------------------------------------------------------------------------
@dataclass
class BatchRunRecord:
    """Summary of one sequence run executed by :class:`BatchRunner`."""

    sequence: str
    tracker_label: str
    num_frames: int
    ate_mean_cm: float
    ate_rmse_cm: float
    tracking_success_ratio: float
    features_per_frame: float
    descriptors_computed: float

    def as_row(self) -> Dict[str, object]:
        """Row-dict form for :func:`repro.analysis.tables.format_table`."""
        return {
            "sequence": self.sequence,
            "tracker": self.tracker_label,
            "frames": self.num_frames,
            "ate_mean_cm": self.ate_mean_cm,
            "ate_rmse_cm": self.ate_rmse_cm,
            "success": self.tracking_success_ratio,
            "features/frame": self.features_per_frame,
        }


def _check_spec_resolution(config: SlamConfig, spec: SequenceSpec) -> None:
    """Reject specs whose frames cannot be served by the configured engine."""
    if (spec.image_width, spec.image_height) != (
        config.extractor.image_width,
        config.extractor.image_height,
    ):
        raise ReproError(
            f"sequence {spec.name!r} resolution {spec.image_width}x{spec.image_height} "
            "does not match the shared extractor configuration"
        )


def _execute_spec(
    config: SlamConfig,
    spec: SequenceSpec,
    tracker: Optional[TrackerConfig],
    label: str,
    max_frames: Optional[int],
    extractor: Optional[OrbExtractor] = None,
) -> BatchRunRecord:
    """Run one sequence and summarise it as a :class:`BatchRunRecord`.

    Module-level so worker *processes* can run it: when ``extractor`` is
    omitted, the :class:`SlamSystem` builds its own engine from ``config``
    (each shard of :meth:`BatchRunner.run_all_multiprocess` owns one engine,
    exactly like a cluster worker).
    """
    _check_spec_resolution(config, spec)
    run_config = config if tracker is None else replace(config, tracker=tracker)
    sequence = make_sequence(spec)
    result = SlamSystem(run_config, extractor=extractor).run(
        sequence, max_frames=max_frames
    )
    ate = result.ate()
    workload = result.mean_workload()
    return BatchRunRecord(
        sequence=spec.name,
        tracker_label=label,
        num_frames=result.num_frames,
        ate_mean_cm=ate.mean_cm,
        ate_rmse_cm=ate.rmse_cm,
        tracking_success_ratio=result.tracking_success_ratio,
        features_per_frame=workload.get("features_retained", 0.0),
        descriptors_computed=workload.get("descriptors_computed", 0.0),
    )


@dataclass
class BatchRunner:
    """Run many sequences / tracker configurations through ONE compute engine.

    The expensive part of standing up a SLAM run is the extractor: descriptor
    pattern tables, rotation gather tables and orientation grids are rebuilt
    per :class:`OrbExtractor`.  ``BatchRunner`` builds the extractor (and its
    extraction engine, see :mod:`repro.engines`) once and shares it
    across every accuracy sweep, which is how the Figure-8 style experiments
    amortise setup over five sequences x two descriptor modes.  Tracker-side
    settings may vary per run; the extractor configuration is fixed for the
    lifetime of the runner (a different extractor config needs a new engine).

    :meth:`run_all_multiprocess` is the exception to the one-shared-engine
    rule: it shards whole sequences across worker *processes*, each building
    its own identical engine, so sweeps scale past the GIL (see
    ``docs/serving.md``).
    """

    config: SlamConfig = field(default_factory=SlamConfig)
    max_frames: Optional[int] = None
    records: List[BatchRunRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.extractor = OrbExtractor(self.config.extractor)

    def run_sequence(
        self,
        spec: SequenceSpec,
        tracker: Optional[TrackerConfig] = None,
        label: str = "default",
    ) -> BatchRunRecord:
        """Run SLAM over one synthetic sequence with the shared engine."""
        record = _execute_spec(
            self.config, spec, tracker, label, self.max_frames, extractor=self.extractor
        )
        self.records.append(record)
        return record

    def run_all(
        self,
        specs: Sequence[SequenceSpec],
        tracker: Optional[TrackerConfig] = None,
        label: str = "default",
    ) -> List[BatchRunRecord]:
        """Run every spec through the shared engine; returns the new records."""
        return [self.run_sequence(spec, tracker=tracker, label=label) for spec in specs]

    def run_all_multiprocess(
        self,
        specs: Sequence[SequenceSpec],
        tracker: Optional[TrackerConfig] = None,
        label: str = "default",
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> List[BatchRunRecord]:
        """Shard the sweep across worker processes (one engine per worker).

        Each spec runs as one task in a process pool: the worker builds its
        own engine from this runner's configuration and executes the whole
        sequence, so independent sweeps scale across host cores instead of
        sharing one GIL.  Records come back in spec order and — like every
        execution mode of this runner — are identical to the sequential
        sweep, because each run is a pure function of (config, spec).
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from ..cluster.context import get_mp_context

        if num_workers is not None and num_workers <= 0:
            raise ReproError("num_workers must be positive")
        for spec in specs:  # fail fast, before paying any process spin-up
            _check_spec_resolution(self.config, spec)
        if not specs:
            return []
        workers = (
            num_workers
            if num_workers is not None
            else min(len(specs), multiprocessing.cpu_count())
        )
        context = get_mp_context(start_method)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [
                pool.submit(
                    _execute_spec, self.config, spec, tracker, label, self.max_frames
                )
                for spec in specs
            ]
            records, first_error = [], None
            for future in futures:
                try:
                    records.append(future.result())
                except Exception as error:  # keep completed runs, like run_all
                    if first_error is None:
                        first_error = error
        self.records.extend(records)
        if first_error is not None:
            raise first_error
        return records

    def summary(self) -> Dict[str, object]:
        """Aggregate view over all runs performed so far."""
        if not self.records:
            return {"runs": 0, "rows": []}
        return {
            "runs": len(self.records),
            "mean_ate_cm": sum(r.ate_mean_cm for r in self.records) / len(self.records),
            "total_frames": sum(r.num_frames for r in self.records),
            "engine": self.extractor.engine.name,
            "rows": [record.as_row() for record in self.records],
        }


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
