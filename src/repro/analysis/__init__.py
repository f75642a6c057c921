"""Experiment harness: table formatting and per-table/figure runners."""

from .tables import format_comparison, format_table
from .report import ReportOptions, build_report, write_report
from .experiments import (
    AccuracyRow,
    run_fig8_accuracy,
    run_fig9_trajectory,
    run_pyramid_ablation,
    run_rescheduling_ablation,
    run_table1_resources,
    run_table2_runtime,
    run_table3_energy,
)
from .hwexact import (
    compare_float_vs_fixed_extraction,
    run_hwexact_parity,
    run_quantization_divergence,
)

__all__ = [
    "format_table",
    "format_comparison",
    "ReportOptions",
    "build_report",
    "write_report",
    "AccuracyRow",
    "run_table1_resources",
    "run_table2_runtime",
    "run_table3_energy",
    "run_fig8_accuracy",
    "run_fig9_trajectory",
    "run_rescheduling_ablation",
    "run_pyramid_ablation",
    "compare_float_vs_fixed_extraction",
    "run_hwexact_parity",
    "run_quantization_divergence",
]
