"""Tests for the accelerator model kernel: cycles, fixed point, AXI, BRAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig
from repro.errors import HardwareModelError
from repro.hw import (
    AxiPort,
    BramRequirement,
    CycleBreakdown,
    SdramModel,
    line_buffer_requirement,
    total_bram36,
)
from repro.quant import ORIENTATION_RATIO_FORMAT, FixedPointFormat


class TestCycleBreakdown:
    def test_add_and_total(self):
        breakdown = CycleBreakdown()
        breakdown.add("a", 100).add("b", 50).add("a", 25)
        assert breakdown.total == 175
        assert breakdown.components["a"] == 125

    def test_negative_rejected(self):
        with pytest.raises(HardwareModelError):
            CycleBreakdown().add("x", -1)

    def test_conversion_to_time(self):
        breakdown = CycleBreakdown({"x": 1_000_000})
        assert breakdown.to_seconds(100e6) == pytest.approx(0.01)
        assert breakdown.to_milliseconds(100e6) == pytest.approx(10.0)

    def test_scaling(self):
        breakdown = CycleBreakdown({"x": 10, "y": 20}).scaled(2.0)
        assert breakdown.total == 60

    def test_invalid_clock(self):
        with pytest.raises(HardwareModelError):
            CycleBreakdown({"x": 1}).to_seconds(0)


class TestFixedPoint:
    def test_resolution_and_range(self):
        fmt = FixedPointFormat(integer_bits=4, fraction_bits=4)
        assert fmt.scale == 16
        assert fmt.max_value == pytest.approx(15.9375)
        assert fmt.min_value == pytest.approx(-16.0)

    def test_quantize_rounds_to_grid(self):
        fmt = FixedPointFormat(integer_bits=4, fraction_bits=2)
        assert fmt.quantize(1.3) == pytest.approx(1.25)
        assert fmt.quantize(1.4) == pytest.approx(1.5)

    def test_clipping(self):
        fmt = FixedPointFormat(integer_bits=2, fraction_bits=2, signed=False)
        assert fmt.quantize(100.0) == fmt.max_value
        assert fmt.quantize(-5.0) == 0.0

    def test_quantization_error_bounded(self):
        fmt = ORIENTATION_RATIO_FORMAT
        values = np.linspace(-5, 5, 1000)
        error = np.abs(values - fmt.quantize(values)).max()
        assert error <= 0.5 / fmt.scale + 1e-12

    def test_invalid_format_rejected(self):
        with pytest.raises(HardwareModelError):
            FixedPointFormat(integer_bits=-1, fraction_bits=2)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_quantize_idempotent(self, value):
        fmt = FixedPointFormat(integer_bits=6, fraction_bits=8)
        once = fmt.quantize(value)
        assert fmt.quantize(once) == pytest.approx(float(once))

    def test_saturation_lands_exactly_on_range_bounds(self):
        fmt = FixedPointFormat(integer_bits=4, fraction_bits=4)
        assert fmt.quantize(1e9) == fmt.max_value
        assert fmt.quantize(-1e9) == fmt.min_value
        # one resolution step beyond the bounds still saturates exactly
        assert fmt.quantize(fmt.max_value + 1 / fmt.scale) == fmt.max_value
        assert fmt.quantize(fmt.min_value - 1 / fmt.scale) == fmt.min_value

    def test_negative_value_rounding_is_banker_style(self):
        fmt = FixedPointFormat(integer_bits=4, fraction_bits=2)
        assert fmt.quantize(-1.3) == pytest.approx(-1.25)
        assert fmt.quantize(-1.4) == pytest.approx(-1.5)
        # exact half-steps round to even, matching np.rint on positives
        assert fmt.quantize(-1.125) == pytest.approx(-1.0)
        assert fmt.quantize(-1.375) == pytest.approx(-1.5)
        assert fmt.quantize(-3.75) == pytest.approx(-3.75)

    def test_unsigned_format_clamps_negatives_to_zero(self):
        fmt = FixedPointFormat(integer_bits=3, fraction_bits=3, signed=False)
        assert fmt.min_value == 0.0
        assert fmt.total_bits == 6  # no sign bit
        assert fmt.quantize(-2.5) == 0.0
        assert fmt.quantize(7.875) == fmt.max_value
        assert fmt.saturate_integer(-17) == 0
        assert fmt.saturate_integer(1000) == int(fmt.max_value * fmt.scale)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_rejected(self, bad):
        fmt = FixedPointFormat(integer_bits=6, fraction_bits=10)
        with pytest.raises(HardwareModelError):
            fmt.quantize(bad)
        with pytest.raises(HardwareModelError):
            fmt.quantize(np.array([1.0, bad]))


class TestAxiPort:
    def test_zero_bytes_free(self):
        port = AxiPort()
        assert port.transfer_stats(0).cycles == 0.0

    def test_beats_and_bursts(self):
        config = AcceleratorConfig(axi_data_bytes=8, axi_burst_length=16, axi_latency_cycles=20)
        port = AxiPort(config)
        stats = port.transfer_stats(1024)  # 128 beats -> 8 bursts
        assert stats.beats == 128
        assert stats.bursts == 8
        assert stats.cycles == 128 + 8 * 20

    def test_partial_beat_rounds_up(self):
        port = AxiPort()
        assert port.transfer_stats(9).beats == 2

    def test_streaming_read_hidden_when_compute_dominates(self):
        port = AxiPort()
        visible = port.streaming_read_cycles(10_000, compute_cycles=1_000_000)
        assert visible <= port.config.axi_latency_cycles + port.config.axi_burst_length

    def test_streaming_read_exposed_when_bus_bound(self):
        port = AxiPort()
        visible = port.streaming_read_cycles(1_000_000, compute_cycles=10)
        assert visible > 100_000

    def test_negative_size_rejected(self):
        with pytest.raises(HardwareModelError):
            AxiPort().transfer_stats(-1)


class TestSdram:
    def test_allocations_add_up_to_used_bytes(self):
        sdram = SdramModel(capacity_bytes=1000)
        sdram.allocate("a", 400)
        sdram.allocate("b", 500)
        assert sdram.used_bytes == 900

    def test_overflow_rejected(self):
        sdram = SdramModel(capacity_bytes=100)
        with pytest.raises(HardwareModelError):
            sdram.allocate("big", 200)

    def test_duplicate_name_rejected(self):
        sdram = SdramModel(1000)
        sdram.allocate("x", 10)
        with pytest.raises(HardwareModelError):
            sdram.allocate("x", 10)


class TestBram:
    def test_single_block_for_small_buffer(self):
        requirement = BramRequirement("tiny", depth=512, width_bits=32)
        assert requirement.bram36_blocks() == 1

    def test_wide_buffer_needs_width_slices(self):
        requirement = BramRequirement("wide", depth=1024, width_bits=72)
        assert requirement.bram36_blocks() == 2

    def test_deep_buffer_needs_depth_slices(self):
        requirement = BramRequirement("deep", depth=4096, width_bits=36)
        assert requirement.bram36_blocks() == 4

    def test_copies_multiply(self):
        requirement = BramRequirement("copies", depth=512, width_bits=36, copies=3)
        assert requirement.bram36_blocks() == 3

    def test_line_buffer_helper(self):
        requirement = line_buffer_requirement("line", rows=480, row_bytes=8, copies=3)
        assert requirement.width_bits == 64
        assert requirement.copies == 3

    def test_total(self):
        reqs = [
            BramRequirement("a", 512, 36),
            BramRequirement("b", 2048, 36),
        ]
        assert total_bram36(reqs) == 3

    def test_invalid_dimensions(self):
        with pytest.raises(HardwareModelError):
            BramRequirement("bad", depth=0, width_bits=8)
