"""Report context printed beside the metrics: host and modelled Table 2.

The modelled rows convert the run's own per-frame workload counters into the
per-stage milliseconds the paper's platforms (eSLAM, ARM Cortex-A9, Intel
i7) would need, so measured and modelled numbers sit in one report.
"""

from __future__ import annotations

import os
import platform
from dataclasses import fields
from typing import Dict, List

import numpy as np

from repro.platforms import (
    ARM_CORTEX_A9,
    ESLAM,
    INTEL_I7,
    FrameWorkload,
    runtime_model_for,
)
from repro.slam import StageWorkload


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(blas_thread_variables) -> Dict[str, object]:
    """The machine and software a run's numbers belong to."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in blas_thread_variables},
    }


def mean_stage_workload(workloads: List[StageWorkload]) -> StageWorkload:
    """Per-frame mean of the tracker's stage counters, rounded to integers."""
    count = max(len(workloads), 1)
    return StageWorkload(
        **{
            item.name: int(round(sum(getattr(w, item.name) for w in workloads) / count))
            for item in fields(StageWorkload)
        }
    )


def modelled_stage_ms(workload: StageWorkload) -> Dict[str, Dict[str, float]]:
    """Table 2 per-stage ms on each paper platform for one frame's workload."""
    frame = FrameWorkload.from_stage_workload(workload)
    return {
        spec.name: runtime_model_for(spec).stage_runtimes(frame).as_dict()
        for spec in (ESLAM, ARM_CORTEX_A9, INTEL_I7)
    }
