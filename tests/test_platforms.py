"""Tests for the platform specs, runtime models, pipeline and comparisons.

These tests encode the paper's Tables 2 and 3 and the headline speedup /
energy-efficiency claims; the runtime models are calibrated, so close
agreement at the nominal workload is a correctness requirement, while
workload scaling checks confirm the models are not constants.
"""

from dataclasses import replace

import pytest

from repro.errors import PlatformModelError
from repro.platforms import (
    ARM_CORTEX_A9,
    ESLAM,
    INTEL_I7,
    NOMINAL_WORKLOAD,
    PAPER_STAGE_RUNTIMES_MS,
    CpuRuntimeModel,
    EslamRuntimeModel,
    FrameWorkload,
    PipelineModel,
    PlatformComparison,
    PlatformKind,
    runtime_model_for,
)


class TestSpecs:
    def test_paper_power_values(self):
        assert ARM_CORTEX_A9.power_w == pytest.approx(1.574)
        assert INTEL_I7.power_w == pytest.approx(47.0)
        assert ESLAM.power_w == pytest.approx(1.936)

    def test_eslam_is_heterogeneous(self):
        assert ESLAM.kind is PlatformKind.HETEROGENEOUS
        assert ARM_CORTEX_A9.kind is PlatformKind.CPU_ONLY

    def test_eslam_power_overhead_vs_arm(self):
        """The paper: eSLAM power is ~23% higher than the ARM alone."""
        overhead = ESLAM.power_w / ARM_CORTEX_A9.power_w - 1.0
        assert overhead == pytest.approx(0.23, abs=0.01)


class TestWorkload:
    def test_nominal_distance_evaluations_consistent(self):
        assert NOMINAL_WORKLOAD.distance_evaluations == pytest.approx(
            NOMINAL_WORKLOAD.features_retained * NOMINAL_WORKLOAD.map_points, rel=0.01
        )

    def test_scaled(self):
        doubled = NOMINAL_WORKLOAD.scaled(2.0)
        assert doubled.pixels_processed == 2 * NOMINAL_WORKLOAD.pixels_processed

    def test_with_map_points(self):
        resized = NOMINAL_WORKLOAD.with_map_points(3000)
        assert resized.map_points == 3000
        assert resized.distance_evaluations == NOMINAL_WORKLOAD.features_retained * 3000

    def test_negative_values_rejected(self):
        with pytest.raises(PlatformModelError):
            FrameWorkload(pixels_processed=-1)

    def test_from_stage_workload(self, tiny_slam_result):
        stage = tiny_slam_result.frame_results[1].workload
        workload = FrameWorkload.from_stage_workload(stage)
        assert workload.pixels_processed == stage.pixels_processed
        assert workload.distance_evaluations >= 1


class TestCpuRuntimeModels:
    def test_arm_matches_table2_at_nominal_workload(self):
        runtimes = CpuRuntimeModel(ARM_CORTEX_A9).stage_runtimes(NOMINAL_WORKLOAD)
        paper = PAPER_STAGE_RUNTIMES_MS["ARM Cortex-A9"]
        assert runtimes.feature_extraction == pytest.approx(paper["feature_extraction"], rel=0.01)
        assert runtimes.feature_matching == pytest.approx(paper["feature_matching"], rel=0.01)
        assert runtimes.pose_estimation == pytest.approx(paper["pose_estimation"], rel=0.01)
        assert runtimes.pose_optimization == pytest.approx(paper["pose_optimization"], rel=0.01)
        assert runtimes.map_updating == pytest.approx(paper["map_updating"], rel=0.01)

    def test_i7_matches_table2_at_nominal_workload(self):
        runtimes = CpuRuntimeModel(INTEL_I7).stage_runtimes(NOMINAL_WORKLOAD)
        paper = PAPER_STAGE_RUNTIMES_MS["Intel i7-4700MQ"]
        assert runtimes.feature_extraction == pytest.approx(paper["feature_extraction"], rel=0.01)
        assert runtimes.feature_matching == pytest.approx(paper["feature_matching"], rel=0.01)

    def test_runtime_scales_with_workload(self):
        model = CpuRuntimeModel(ARM_CORTEX_A9)
        nominal = model.stage_runtimes(NOMINAL_WORKLOAD)
        bigger_map = model.stage_runtimes(NOMINAL_WORKLOAD.with_map_points(3000))
        assert bigger_map.feature_matching == pytest.approx(2 * nominal.feature_matching, rel=0.01)
        assert bigger_map.feature_extraction == pytest.approx(nominal.feature_extraction)

    def test_unknown_platform_rejected(self):
        with pytest.raises(PlatformModelError):
            CpuRuntimeModel(ESLAM.__class__(
                name="other", kind=PlatformKind.CPU_ONLY, clock_hz=1e9, power_w=1.0
            ))

    def test_factory(self):
        assert isinstance(runtime_model_for(ARM_CORTEX_A9), CpuRuntimeModel)
        assert isinstance(runtime_model_for(ESLAM), EslamRuntimeModel)


class TestEslamRuntimeModel:
    def test_fe_fm_from_accelerator_model(self):
        runtimes = EslamRuntimeModel().stage_runtimes(NOMINAL_WORKLOAD)
        assert runtimes.feature_extraction == pytest.approx(9.1, rel=0.25)
        assert runtimes.feature_matching == pytest.approx(4.0, rel=0.2)

    def test_fe_follows_workload_pixels(self):
        """The modelled FE times a frame of the workload's size, not the configured one."""
        model = EslamRuntimeModel()
        vga = model.stage_runtimes(NOMINAL_WORKLOAD)
        qvga = model.stage_runtimes(replace(NOMINAL_WORKLOAD, pixels_processed=192_750))
        assert model.accelerator.frame_shape(NOMINAL_WORKLOAD.pixels_processed) == (480, 640)
        assert model.accelerator.frame_shape(192_750) == (240, 320)
        assert qvga.feature_extraction < vga.feature_extraction
        assert vga.feature_extraction == pytest.approx(9.1, rel=0.25)

    def test_host_stages_match_arm(self):
        eslam = EslamRuntimeModel().stage_runtimes(NOMINAL_WORKLOAD)
        arm = CpuRuntimeModel(ARM_CORTEX_A9).stage_runtimes(NOMINAL_WORKLOAD)
        assert eslam.pose_estimation == pytest.approx(arm.pose_estimation)
        assert eslam.map_updating == pytest.approx(arm.map_updating)


class TestPipelineModel:
    @pytest.fixture(scope="class")
    def stage_runtimes(self):
        return {
            ARM_CORTEX_A9.name: CpuRuntimeModel(ARM_CORTEX_A9).stage_runtimes(NOMINAL_WORKLOAD),
            INTEL_I7.name: CpuRuntimeModel(INTEL_I7).stage_runtimes(NOMINAL_WORKLOAD),
            ESLAM.name: EslamRuntimeModel().stage_runtimes(NOMINAL_WORKLOAD),
        }

    def test_cpu_frame_time_is_serial_sum(self, stage_runtimes):
        arm = stage_runtimes[ARM_CORTEX_A9.name]
        pipeline = PipelineModel(ARM_CORTEX_A9)
        assert pipeline.frame_time_ms(arm, is_keyframe=False) == pytest.approx(555.7, rel=0.01)
        assert pipeline.frame_time_ms(arm, is_keyframe=True) == pytest.approx(565.6, rel=0.01)

    def test_eslam_normal_frame_overlaps(self, stage_runtimes):
        """Figure 7: normal-frame time = max(FE+FM, PE+PO) = PE+PO = 17.9 ms."""
        eslam = stage_runtimes[ESLAM.name]
        pipeline = PipelineModel(ESLAM)
        assert pipeline.frame_time_ms(eslam, is_keyframe=False) == pytest.approx(17.9, rel=0.02)

    def test_eslam_key_frame_serialises_matcher(self, stage_runtimes):
        """Figure 7: key-frame time = FM + PE + PO + MU = 31.8 ms."""
        eslam = stage_runtimes[ESLAM.name]
        pipeline = PipelineModel(ESLAM)
        assert pipeline.frame_time_ms(eslam, is_keyframe=True) == pytest.approx(31.8, rel=0.03)

    def test_frame_timing_energy(self, stage_runtimes):
        timing = PipelineModel(ARM_CORTEX_A9).frame_timing(
            stage_runtimes[ARM_CORTEX_A9.name], is_keyframe=False
        )
        assert timing.energy_per_frame_mj == pytest.approx(875, rel=0.01)
        assert timing.frame_rate_fps == pytest.approx(1.8, rel=0.01)

    def test_average_timing_interpolates(self, stage_runtimes):
        pipeline = PipelineModel(ESLAM)
        eslam = stage_runtimes[ESLAM.name]
        average = pipeline.average_timing(eslam, keyframe_ratio=0.5)
        normal = pipeline.frame_time_ms(eslam, False)
        key = pipeline.frame_time_ms(eslam, True)
        assert average["runtime_ms"] == pytest.approx((normal + key) / 2)

    def test_average_timing_validates_ratio(self, stage_runtimes):
        with pytest.raises(PlatformModelError):
            PipelineModel(ESLAM).average_timing(stage_runtimes[ESLAM.name], 1.5)

    def test_schedule_cpu_is_single_track(self, stage_runtimes):
        entries = PipelineModel(INTEL_I7).schedule(stage_runtimes[INTEL_I7.name], is_keyframe=True)
        assert {entry.resource for entry in entries} == {INTEL_I7.name}
        assert len(entries) == 5

    def test_schedule_eslam_has_two_tracks(self, stage_runtimes):
        entries = PipelineModel(ESLAM).schedule(stage_runtimes[ESLAM.name], is_keyframe=False)
        assert {entry.resource for entry in entries} == {"ARM", "FPGA"}

    def test_keyframe_matcher_waits_for_map_update(self, stage_runtimes):
        """Figure 7 (lower): the BRIEF Matcher starts only after MU finishes."""
        entries = PipelineModel(ESLAM).schedule(stage_runtimes[ESLAM.name], is_keyframe=True)
        mu_end = next(e.end_ms for e in entries if e.stage == "map_updating")
        fm_start = next(e.start_ms for e in entries if e.stage == "feature_matching")
        assert fm_start >= mu_end

    def test_makespan_equals_frame_time_for_eslam(self, stage_runtimes):
        pipeline = PipelineModel(ESLAM)
        eslam = stage_runtimes[ESLAM.name]
        makespan = max(entry.end_ms for entry in pipeline.schedule(eslam, True))
        assert makespan == pytest.approx(
            pipeline.frame_time_ms(eslam, True)
        )


class TestPlatformComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return PlatformComparison()

    def test_table2_rows(self, comparison):
        rows = comparison.runtime_table()
        assert len(rows) == 5
        fe_row = rows[0]
        assert fe_row["ARM Cortex-A9"] == pytest.approx(291.6, rel=0.01)
        assert fe_row["Intel i7-4700MQ"] == pytest.approx(32.5, rel=0.01)

    def test_table3_frame_rates(self, comparison):
        timings = comparison.frame_timings()
        assert timings[ESLAM.name]["normal"].frame_rate_fps == pytest.approx(55.87, rel=0.05)
        assert timings[ESLAM.name]["key"].frame_rate_fps == pytest.approx(31.45, rel=0.05)
        assert timings[ARM_CORTEX_A9.name]["normal"].frame_rate_fps == pytest.approx(1.8, rel=0.02)

    def test_headline_speedups(self, comparison):
        """Abstract: up to 3x vs i7 and 31x vs ARM frame-rate improvement."""
        speedups = comparison.speedups()
        assert speedups[ARM_CORTEX_A9.name]["normal"] == pytest.approx(31.0, rel=0.05)
        assert speedups[ARM_CORTEX_A9.name]["key"] == pytest.approx(17.8, rel=0.05)
        assert speedups[INTEL_I7.name]["normal"] == pytest.approx(3.0, rel=0.05)
        assert speedups[INTEL_I7.name]["key"] == pytest.approx(1.7, rel=0.06)

    def test_headline_energy_improvements(self, comparison):
        """Abstract: 14-25x vs ARM and 41-71x vs i7 energy efficiency."""
        improvements = comparison.energy_improvements()
        assert 13 < improvements[ARM_CORTEX_A9.name]["key"] < 16
        assert 23 < improvements[ARM_CORTEX_A9.name]["normal"] < 27
        assert 38 < improvements[INTEL_I7.name]["key"] < 46
        assert 65 < improvements[INTEL_I7.name]["normal"] < 78

    def test_stage_speedups_match_section_4_3(self, comparison):
        """Section 4.3: ~32x/3.6x FE speedup and ~61.6x/4.9x FM speedup."""
        stage_speedups = comparison.stage_speedups()
        assert stage_speedups[ARM_CORTEX_A9.name]["feature_extraction"] == pytest.approx(32, rel=0.2)
        assert stage_speedups[ARM_CORTEX_A9.name]["feature_matching"] == pytest.approx(61.6, rel=0.15)
        assert stage_speedups[INTEL_I7.name]["feature_extraction"] == pytest.approx(3.6, rel=0.2)
        assert stage_speedups[INTEL_I7.name]["feature_matching"] == pytest.approx(4.9, rel=0.15)

    def test_energy_table_has_power_row(self, comparison):
        rows = comparison.energy_table()
        power_rows = [row for row in rows if row["metric"] == "power_w"]
        assert len(power_rows) == 1
        assert power_rows[0][ESLAM.name] == pytest.approx(1.936)
