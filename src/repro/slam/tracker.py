"""Frame-to-map tracking: the SLAM front-end.

The tracker strings together the stages of Figure 1: feature extraction,
feature matching against the global map, pose estimation (PnP + RANSAC),
pose optimisation (Levenberg-Marquardt on reprojection error), key-frame
decision and map updating.  It also records per-stage workload statistics so
the platform runtime models can translate the *same* work into latencies on
the ARM, Intel i7 and eSLAM platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import SlamConfig
from ..errors import GeometryError, TrackingError
from ..features import OrbExtractor
from ..geometry import PnpRansac, Pose, RansacConfig
from ..matching import BruteForceMatcher, MatchArrays
from ..optimization import PoseOptimizer
from .frame import Frame
from .keyframe import KeyframePolicy
from .map import GlobalMap, MapUpdateStats


@dataclass
class StageWorkload:
    """Workload counters of one frame, grouped by pipeline stage.

    These counters are deliberately platform-independent: the number of
    pixels processed, descriptors computed, descriptor-pair distances
    evaluated, RANSAC/LM iterations run and map points touched.  The platform
    models in :mod:`repro.platforms` convert them into per-stage runtimes.
    """

    # feature extraction
    pixels_processed: int = 0
    keypoints_detected: int = 0
    descriptors_computed: int = 0
    features_retained: int = 0
    # feature matching
    map_points_matched_against: int = 0
    distance_evaluations: int = 0
    matches_accepted: int = 0
    # pose estimation
    ransac_iterations: int = 0
    ransac_inliers: int = 0
    # pose optimisation
    lm_iterations: int = 0
    lm_observations: int = 0
    # map updating
    map_points_added: int = 0
    map_points_deleted: int = 0
    map_size_after: int = 0


@dataclass
class TrackingResult:
    """Per-frame tracking outcome."""

    frame_index: int
    timestamp: float
    pose: Pose
    is_keyframe: bool
    num_matches: int
    num_inliers: int
    tracked: bool
    workload: StageWorkload = field(default_factory=StageWorkload)


class Tracker:
    """RGB-D frame-to-map tracker implementing the eSLAM pipeline stages.

    Parameters
    ----------
    config:
        SLAM configuration (extractor, matcher, tracker sections).
    extractor:
        Optional pre-built :class:`OrbExtractor` to reuse.  Sequence sweeps
        (:func:`repro.analysis.experiments.run_fig8_accuracy`) share one
        extractor — and therefore one extraction engine with its precomputed
        pattern tables — across many sequences; its configuration must match
        ``config.extractor``.
    """

    def __init__(
        self,
        config: SlamConfig | None = None,
        extractor: OrbExtractor | None = None,
    ) -> None:
        self.config = config or SlamConfig()
        if extractor is not None and extractor.config != self.config.extractor:
            raise TrackingError(
                "injected extractor configuration does not match config.extractor"
            )
        self.extractor = extractor or OrbExtractor(self.config.extractor)
        self.matcher = BruteForceMatcher(self.config.matcher)
        self.map = GlobalMap(max_points=self.config.tracker.max_map_points)
        self.keyframe_policy = KeyframePolicy(self.config.tracker)
        self._last_pose: Optional[Pose] = None
        self.results: List[TrackingResult] = []

    # -- public API ----------------------------------------------------------
    def process(self, frame: Frame, extraction=None) -> TrackingResult:
        """Track one frame; returns the per-frame result (also stored).

        ``extraction`` optionally supplies a precomputed
        :class:`~repro.features.ExtractionResult` for the frame (produced by
        a :class:`repro.cluster.ClusterServer` pipelining extraction ahead of
        tracking); extraction is a pure function of the image, so the result
        is identical to extracting inline.
        """
        workload = StageWorkload()
        self._extract(frame, workload, extraction=extraction)
        if len(self.map) == 0:
            result = self._initialize(frame, workload)
        else:
            result = self._track(frame, workload)
        self.results.append(result)
        return result

    @property
    def last_pose(self) -> Optional[Pose]:
        return self._last_pose

    def estimated_poses(self) -> List[Pose]:
        return [result.pose for result in self.results]

    # -- stage 1: feature extraction ------------------------------------------
    def _extract(self, frame: Frame, workload: StageWorkload, extraction=None) -> None:
        if extraction is None:
            extraction = self.extractor.extract(frame.image)
        frame.set_features(extraction)
        profile = extraction.profile
        workload.pixels_processed = profile.pixels_processed
        workload.keypoints_detected = profile.keypoints_detected
        workload.descriptors_computed = profile.descriptors_computed
        workload.features_retained = profile.features_retained

    # -- initialisation ----------------------------------------------------------
    def _initialize(self, frame: Frame, workload: StageWorkload) -> TrackingResult:
        """Bootstrap the map from the first frame (pose = identity)."""
        frame.pose = Pose.identity()
        frame.is_keyframe = True
        self.keyframe_policy.evaluate(frame.pose)
        stats = self._update_map(
            frame, matched_feature_indices=np.zeros(0, dtype=np.int64)
        )
        workload.map_points_added = stats.points_added
        workload.map_points_deleted = stats.points_deleted
        workload.map_size_after = stats.points_total
        self._last_pose = frame.pose
        return TrackingResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=frame.pose,
            is_keyframe=True,
            num_matches=0,
            num_inliers=0,
            tracked=True,
            workload=workload,
        )

    # -- stages 2-5: matching, pose estimation/optimisation, map update ----------
    def _track(self, frame: Frame, workload: StageWorkload) -> TrackingResult:
        matches = self._match(frame, workload)
        if matches.size < self.config.tracker.min_matches:
            return self._tracking_failure(frame, workload, matches.size)
        pose, inlier_matches = self._estimate_pose(frame, matches, workload)
        if pose is None:
            return self._tracking_failure(frame, workload, matches.size)
        pose = self._optimize_pose(frame, pose, inlier_matches, workload)
        frame.pose = pose
        decision = self.keyframe_policy.evaluate(pose)
        frame.is_keyframe = decision.is_keyframe
        self.map.record_matches(inlier_matches.train_indices, frame.index)
        if decision.is_keyframe:
            stats = self._update_map(
                frame, matched_feature_indices=inlier_matches.query_indices
            )
            workload.map_points_added = stats.points_added
            workload.map_points_deleted = stats.points_deleted
            workload.map_size_after = stats.points_total
        else:
            workload.map_size_after = len(self.map)
        self._last_pose = pose
        return TrackingResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=pose,
            is_keyframe=decision.is_keyframe,
            num_matches=matches.size,
            num_inliers=inlier_matches.size,
            tracked=True,
            workload=workload,
        )

    def _match(self, frame: Frame, workload: StageWorkload) -> MatchArrays:
        """Match the frame against the map; arrays only on the hot path.

        The matcher's :class:`~repro.matching.MatchArrays` feed pose
        estimation, optimisation and map updating through vectorised index
        gathers; per-correspondence :class:`~repro.matching.Match` objects
        are never materialised while tracking.
        """
        map_descriptors = self.map.descriptor_matrix()
        matches = self.matcher.match_arrays(frame.descriptor_matrix(), map_descriptors)
        stats = self.matcher.last_stats
        workload.map_points_matched_against = stats.num_candidates
        workload.distance_evaluations = stats.distance_evaluations
        workload.matches_accepted = stats.accepted
        return matches

    def _estimate_pose(
        self, frame: Frame, matches: MatchArrays, workload: StageWorkload
    ) -> tuple[Optional[Pose], MatchArrays]:
        positions = self.map.position_matrix()
        pixels = frame.keypoint_pixels()
        depths = frame.feature_depths()
        points_world = positions[matches.train_indices]
        observations = pixels[matches.query_indices]
        observed_depths = depths[matches.query_indices]
        ransac = PnpRansac(
            frame.camera,
            RansacConfig(
                num_iterations=self.config.tracker.ransac_iterations,
                inlier_threshold_px=self.config.tracker.ransac_threshold_px,
                min_inliers=self.config.tracker.min_matches,
                seed=frame.index + 1,
            ),
        )
        try:
            result = ransac.estimate(
                points_world,
                observations,
                observed_depths=observed_depths,
                initial_pose=self._last_pose,
            )
        except (GeometryError, np.linalg.LinAlgError):
            # degenerate geometry is a tracking failure; anything else is a bug
            return None, MatchArrays.empty()
        workload.ransac_iterations = result.num_iterations
        workload.ransac_inliers = result.num_inliers
        if not result.success:
            return None, MatchArrays.empty()
        inliers = np.asarray(result.inlier_indices(), dtype=np.int64)
        inlier_matches = MatchArrays(
            query_indices=matches.query_indices[inliers],
            train_indices=matches.train_indices[inliers],
            distances=matches.distances[inliers],
        )
        return result.model, inlier_matches

    def _optimize_pose(
        self,
        frame: Frame,
        pose: Pose,
        inlier_matches: MatchArrays,
        workload: StageWorkload,
    ) -> Pose:
        if inlier_matches.size < 3:
            return pose
        positions = self.map.position_matrix()
        pixels = frame.keypoint_pixels()
        points_world = positions[inlier_matches.train_indices]
        observations = pixels[inlier_matches.query_indices]
        optimizer = PoseOptimizer(
            frame.camera, max_iterations=self.config.tracker.pose_iterations
        )
        result = optimizer.optimize(points_world, observations, pose)
        workload.lm_iterations = result.iterations
        workload.lm_observations = inlier_matches.size
        return result.pose

    def _update_map(
        self, frame: Frame, matched_feature_indices: np.ndarray
    ) -> MapUpdateStats:
        """Key-frame map update: add new points, cull stale ones.

        Operates on the frame's feature arrays: unmatched features with valid
        depth are back-projected and transformed to world coordinates in one
        batch instead of one Python call chain per feature.
        ``matched_feature_indices`` is the accepted correspondences'
        ``query_indices`` array (possibly empty).
        """
        if frame.pose is None:
            raise TrackingError("frame pose must be set before map updating")
        stats = MapUpdateStats()
        depths = frame.feature_depths()
        candidates = depths > 0
        matched = np.asarray(matched_feature_indices, dtype=np.int64)
        if matched.size:
            candidates[matched[matched < candidates.size]] = False
        selected = np.nonzero(candidates)[0]
        if selected.size:
            pixels = frame.keypoint_pixels()[selected]
            points_cam = frame.camera.back_project_many(pixels, depths[selected])
            points_world = frame.pose.inverse().transform(points_cam)
            descriptor_rows = frame.descriptor_matrix()[selected]
            created = self.map.add_points(points_world, descriptor_rows, frame.index)
            stats.points_added = int(created.size)
        stats.points_deleted = self.map.cull(
            frame.index, self.config.tracker.map_point_ttl_frames
        )
        stats.points_total = len(self.map)
        return stats

    def _tracking_failure(
        self, frame: Frame, workload: StageWorkload, num_matches: int
    ) -> TrackingResult:
        """Fallback when matching/pose estimation fails: hold the last pose."""
        pose = self._last_pose or Pose.identity()
        frame.pose = pose
        workload.map_size_after = len(self.map)
        return TrackingResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=pose,
            is_keyframe=False,
            num_matches=num_matches,
            num_inliers=0,
            tracked=False,
            workload=workload,
        )
