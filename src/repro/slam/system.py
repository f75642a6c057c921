"""The complete ORB-SLAM system (functional model).

:class:`SlamSystem` runs the full pipeline of Figure 1 over an RGB-D sequence
and produces the estimated trajectory, per-frame tracking results and the
per-stage workload statistics consumed by the platform models.  It is the
software twin of the heterogeneous eSLAM system: the accelerated platform
model in :mod:`repro.platforms` reuses its workloads, and the hardware
simulator in :mod:`repro.hw` reproduces its feature-extraction stage cycle by
cycle.
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import SlamConfig
from ..dataset import RgbdFrame, RgbdSequence
from ..errors import ReproError
from ..geometry import Pose
from ..telemetry import current_tracer
from .evaluation import AteResult, absolute_trajectory_error
from .frame import Frame
from .tracker import Tracker, TrackingResult


def stable_frame_id(sequence_name: str, frame_index: int) -> int:
    """Deterministic, collision-resistant frame id (trace and journal label).

    Two runs over the same sequence — even in different processes or with
    different engines — derive the same id for the same frame, so their
    traces line up frame for frame.  The sequence name is folded through
    CRC-32 into the high bits and the frame index occupies the low 32 bits,
    keeping ids non-negative int64 values while separating same-index
    frames of different sequences.
    """
    if frame_index < 0:
        raise ReproError("frame_index must be non-negative")
    if frame_index >= 1 << 32:
        raise ReproError("frame_index exceeds the 32-bit id field")
    sequence_hash = zlib.crc32(sequence_name.encode("utf-8")) & 0x7FFFFFFF
    return (sequence_hash << 32) | frame_index


@dataclass
class SlamRunResult:
    """Everything produced by running SLAM over one sequence."""

    sequence_name: str
    frame_results: List[TrackingResult] = field(default_factory=list)
    estimated_poses: List[Pose] = field(default_factory=list)
    ground_truth_poses: List[Pose] = field(default_factory=list)
    timestamps: List[float] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return len(self.frame_results)

    @property
    def num_keyframes(self) -> int:
        return sum(1 for result in self.frame_results if result.is_keyframe)

    @property
    def keyframe_ratio(self) -> float:
        if not self.frame_results:
            return 0.0
        return self.num_keyframes / len(self.frame_results)

    @property
    def tracking_success_ratio(self) -> float:
        if not self.frame_results:
            return 0.0
        return sum(1 for result in self.frame_results if result.tracked) / len(
            self.frame_results
        )

    def ate(self, align: bool = True) -> AteResult:
        """Absolute trajectory error against ground truth."""
        return absolute_trajectory_error(
            self.estimated_poses, self.ground_truth_poses, align=align
        )

    def mean_workload(self) -> dict:
        """Average per-frame workload counters (for the runtime models)."""
        if not self.frame_results:
            return {}
        keys = vars(self.frame_results[0].workload).keys()
        averages = {}
        for key in keys:
            averages[key] = float(
                np.mean([getattr(result.workload, key) for result in self.frame_results])
            )
        return averages


class SlamSystem:
    """Runs the full ORB-SLAM pipeline over RGB-D frames.

    An already-built extractor (with its extraction engine and
    precomputed pattern tables) can be injected so many systems — e.g. the
    sequence sweeps of :func:`repro.analysis.experiments.run_fig8_accuracy` —
    share one engine instead of rebuilding tables per run.
    """

    def __init__(self, config: SlamConfig | None = None, extractor=None) -> None:
        self.config = config or SlamConfig()
        self.tracker = Tracker(self.config, extractor=extractor)

    def process_frame(self, rgbd_frame: RgbdFrame, camera, extraction=None) -> TrackingResult:
        """Process a single RGB-D frame (lower-level entry point).

        Raises :class:`~repro.errors.ReproError` when the frame's image
        shape is not ``config.extractor.image_shape``.
        """
        shape = rgbd_frame.image.pixels.shape
        if shape != self.config.extractor.image_shape:
            raise ReproError(
                f"frame {rgbd_frame.index} has image shape {shape}, but the "
                f"extractor is configured for {self.config.extractor.image_shape}"
            )
        frame = Frame(
            index=rgbd_frame.index,
            timestamp=rgbd_frame.timestamp,
            image=rgbd_frame.image,
            depth=rgbd_frame.depth,
            camera=camera,
        )
        return self.tracker.process(frame, extraction=extraction)

    def run(
        self,
        sequence: RgbdSequence,
        max_frames: Optional[int] = None,
        frame_server=None,
        frame_ids: Optional[List[int]] = None,
    ) -> SlamRunResult:
        """Run the system over a whole sequence and collect results.

        ``frame_server`` takes a :class:`repro.cluster.ClusterServer` and
        pipelines feature extraction for the whole sequence through it,
        many frames in flight, while tracking consumes the results in
        order.  Tracking output is identical to the sequential path
        because extraction is a pure per-frame function.

        ``frame_ids`` overrides the frame id submitted per frame (the label
        on the server's trace spans and journal rows); by default each
        frame gets :func:`stable_frame_id` of
        ``(sequence.name, frame.index)``, so runs over the same sequence
        label the same frame alike.
        """
        result = SlamRunResult(sequence_name=sequence.name)
        frames = [
            rgbd_frame
            for rgbd_frame in sequence
            if max_frames is None or rgbd_frame.index < max_frames
        ]
        if frame_server is not None and frame_server.extractor_config != self.config.extractor:
            raise ReproError(
                "frame server extractor configuration does not match the "
                "SLAM extractor configuration"
            )
        if frame_server is not None:
            if frame_ids is None:
                frame_ids = [
                    stable_frame_id(sequence.name, rgbd_frame.index)
                    for rgbd_frame in frames
                ]
            elif len(frame_ids) != len(frames):
                raise ReproError("frame_ids must supply one id per served frame")
        # keep at most the server's in-flight window of frames submitted
        # ahead of the tracker, so extraction overlaps tracking while only a
        # bounded number of ExtractionResults is ever resident
        pending: deque = deque()
        next_to_submit = 0
        tracer = current_tracer()
        for index, rgbd_frame in enumerate(frames):
            extraction = None
            if frame_server is not None:
                window = frame_server.max_in_flight
                while next_to_submit < len(frames) and next_to_submit <= index + window - 1:
                    pending.append(
                        frame_server.submit(
                            frames[next_to_submit].image,
                            frame_id=frame_ids[next_to_submit],
                        )
                    )
                    next_to_submit += 1
                if tracer.enabled:
                    wait_start = time.perf_counter()
                    extraction = pending.popleft().result()
                    # tracker-side stall waiting on the serving pipeline —
                    # nonzero only when extraction lags tracking
                    tracer.record(
                        "await_result",
                        wait_start,
                        time.perf_counter(),
                        frame=frame_ids[index],
                    )
                else:
                    extraction = pending.popleft().result()
            with tracer.span("track", frame=rgbd_frame.index):
                tracking = self.process_frame(
                    rgbd_frame, sequence.camera, extraction=extraction
                )
            result.frame_results.append(tracking)
            result.estimated_poses.append(tracking.pose)
            result.ground_truth_poses.append(rgbd_frame.ground_truth_pose)
            result.timestamps.append(rgbd_frame.timestamp)
        return result
