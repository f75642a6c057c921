"""Tests for table formatting and the experiment runners."""

import pytest

from repro.analysis import (
    format_comparison,
    format_table,
    run_fig8_accuracy,
    run_fig9_trajectory,
    run_pyramid_ablation,
    run_rescheduling_ablation,
    run_table1_resources,
    run_table2_runtime,
    run_table3_energy,
)


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [
            {"stage": "FE", "eSLAM": 9.1, "ARM": 291.6},
            {"stage": "FM", "eSLAM": 4.0, "ARM": 246.2},
        ]
        text = format_table(rows, title="Table 2")
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "stage" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty table)" in format_table([])

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_comparison_deviation(self):
        line = format_comparison("FE latency", 9.1, 8.1, unit="ms")
        assert "paper 9.10 ms" in line
        assert "-11.0%" in line

    def test_format_comparison_zero_paper_value(self):
        assert "n/a" in format_comparison("x", 0.0, 1.0)


class TestTableRunners:
    def test_table1_totals_match_paper(self):
        result = run_table1_resources()
        assert result["totals"] == {"LUT": 56954, "FF": 67809, "DSP": 111, "BRAM": 78}
        assert result["fits_xc7z045"]
        assert result["utilization_percent"]["LUT"] == pytest.approx(26.0, abs=0.3)

    def test_table2_rows_and_speedups(self):
        result = run_table2_runtime()
        assert len(result["rows"]) == 5
        assert result["stage_speedups"]["ARM Cortex-A9"]["feature_matching"] > 30

    def test_table3_reproduces_frame_rates(self):
        result = run_table3_energy()
        frame_rate_rows = [r for r in result["rows"] if r["metric"] == "frame_rate_fps"]
        normal = next(r for r in frame_rate_rows if r["frame_kind"] == "normal")
        assert normal["eSLAM"] == pytest.approx(55.87, rel=0.05)
        assert result["speedups"]["ARM Cortex-A9"]["normal"] == pytest.approx(31, rel=0.05)


class TestAblationRunners:
    def test_rescheduling_ablation_direction(self):
        result = run_rescheduling_ablation()
        assert result["rescheduled"]["latency_ms"] < result["original"]["latency_ms"]
        assert result["rescheduled"]["on_chip_bytes"] < result["original"]["on_chip_bytes"]
        assert result["latency_reduction_percent"] > 15

    def test_pyramid_ablation_matches_48_percent(self):
        result = run_pyramid_ablation()
        assert result["extra_pixels_percent"] == pytest.approx(48.0, abs=1.0)


class TestAccuracyRunners:
    def test_sequence_accuracy_small_error(self):
        (row,) = run_fig8_accuracy(
            num_frames=5, image_width=160, image_height=120, sequences=["fr1/xyz"]
        )
        assert row.sequence == "fr1/xyz"
        assert 0 <= row.rs_brief_error_cm < 10
        assert 0 <= row.original_orb_error_cm < 10

    def test_fig9_outputs_both_descriptors(self):
        result = run_fig9_trajectory(num_frames=5, image_width=160, image_height=120)
        assert set(result) == {"rs_brief", "original_orb"}
        assert len(result["rs_brief"]["estimated_xyz"]) == 5
        assert result["rs_brief"]["ate_rmse_cm"] < 10
