"""Software ORB feature extractor.

This is the functional reference for the accelerated ORB Extractor: it runs
FAST detection, Harris scoring, non-maximum suppression, Gaussian smoothing,
orientation computation, BRIEF description (RS-BRIEF or original ORB) and
best-N filtering over a multi-scale image pyramid.

Two workflow orders are supported, matching Section 3.1 of the paper:

* ``original``   -- detect -> filter (keep best N) -> describe.  This is the
  order of the original ORB implementation; on hardware it forces the
  descriptor pipeline to idle until filtering completes and requires caching
  every candidate keypoint's neighbourhood.
* ``rescheduled`` -- detect -> describe -> filter.  eSLAM's streaming order:
  descriptors are computed for *all* M detected keypoints as they stream by
  and the heap keeps the best N at the end.  The extra ``M - N`` descriptor
  computations are the overhead the paper trades for the eliminated idle
  time and cache.

Both orders produce the same final feature set whenever the filtering
criterion depends only on the Harris score (which it does); tests assert
this equivalence, and :class:`ExtractionProfile` records the operation
counts (extra descriptors, cached candidates) that differ between them and
feed the hardware/runtime models.

The per-keypoint compute (orientation + description) is delegated to a
pluggable :class:`~repro.backends.KeypointBackend` selected by
``ExtractorConfig.backend``: the default ``vectorized`` backend batches whole
pyramid levels through numpy while ``reference`` keeps the scalar
ground-truth path; both are bit-identical (see ``docs/backends.md``).
The full-frame detection pass (FAST + Harris + NMS + smoothing) is likewise
delegated to a :class:`~repro.frontend.DetectionEngine` selected by
``ExtractorConfig.frontend`` (see ``docs/frontend.md``), and the multi-scale
pyramid those engines consume comes from the extractor's
:class:`~repro.pyramid.PyramidProvider`, which builds every level of the
frame up front (see ``docs/pyramid.md``).  Candidates move through the
extractor as coordinate/score arrays, and :class:`Feature` objects are only
materialised for the retained set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..image import GrayImage, ImagePyramid, within_border
from ..pyramid import PyramidProvider
from ..telemetry import current_tracer
from .brief import DescriptorEngine
from .heap_filter import BoundedScoreHeap
from .keypoint import Feature, Keypoint


@dataclass
class ExtractionProfile:
    """Operation counts recorded while extracting features from one image.

    These counts drive the platform runtime models and the hardware cycle
    model: they are the workload description, independent of how long this
    Python process happened to take.
    """

    pixels_processed: int = 0
    keypoints_detected: int = 0
    keypoints_after_nms: int = 0
    descriptors_computed: int = 0
    features_retained: int = 0
    heap_comparisons: int = 0
    per_level_keypoints: List[int] = field(default_factory=list)
    workflow: str = "rescheduled"

    @property
    def extra_descriptors(self) -> int:
        """Descriptors computed beyond the retained set (rescheduling overhead)."""
        return max(0, self.descriptors_computed - self.features_retained)


@dataclass
class FeatureArrays:
    """The retained feature set as dense, contiguous arrays (length ``N``).

    This is the wire-format view of an :class:`ExtractionResult`: every
    per-:class:`~repro.features.keypoint.Feature` attribute flattened into
    one array, so a result can be packed into flat buffers
    (:mod:`repro.serving.resultpack`), shipped across a process boundary
    without pickling, and rebuilt bit-identical on the other side.
    ``orientation_bins`` uses ``-1`` and ``orientation_rads`` uses ``NaN``
    for features whose orientation was never computed.
    """

    descriptors: np.ndarray  # (N, D) uint8 descriptor bytes
    levels: np.ndarray  # (N,) int64 pyramid level
    xs: np.ndarray  # (N,) int64 level-local x
    ys: np.ndarray  # (N,) int64 level-local y
    scores: np.ndarray  # (N,) float64 Harris score
    orientation_bins: np.ndarray  # (N,) int64, -1 = not computed
    orientation_rads: np.ndarray  # (N,) float64, NaN = not computed
    x0: np.ndarray  # (N,) float64 level-0 x
    y0: np.ndarray  # (N,) float64 level-0 y

    def __len__(self) -> int:
        return int(self.descriptors.shape[0])

    @classmethod
    def from_features(cls, features: List[Feature]) -> "FeatureArrays":
        """Flatten per-feature objects into dense arrays."""
        if not features:
            return cls.empty()
        return cls(
            descriptors=np.stack([f.descriptor for f in features]),
            levels=np.array([f.keypoint.level for f in features], dtype=np.int64),
            xs=np.array([f.keypoint.x for f in features], dtype=np.int64),
            ys=np.array([f.keypoint.y for f in features], dtype=np.int64),
            scores=np.array([f.score for f in features], dtype=np.float64),
            orientation_bins=np.array(
                [
                    -1 if f.keypoint.orientation_bin is None else f.keypoint.orientation_bin
                    for f in features
                ],
                dtype=np.int64,
            ),
            orientation_rads=np.array(
                [
                    np.nan if f.keypoint.orientation_rad is None else f.keypoint.orientation_rad
                    for f in features
                ],
                dtype=np.float64,
            ),
            x0=np.array([f.x0 for f in features], dtype=np.float64),
            y0=np.array([f.y0 for f in features], dtype=np.float64),
        )

    @classmethod
    def empty(cls, descriptor_width: int = 32) -> "FeatureArrays":
        return cls(
            descriptors=np.zeros((0, descriptor_width), dtype=np.uint8),
            levels=np.zeros(0, dtype=np.int64),
            xs=np.zeros(0, dtype=np.int64),
            ys=np.zeros(0, dtype=np.int64),
            scores=np.zeros(0, dtype=np.float64),
            orientation_bins=np.zeros(0, dtype=np.int64),
            orientation_rads=np.zeros(0, dtype=np.float64),
            x0=np.zeros(0, dtype=np.float64),
            y0=np.zeros(0, dtype=np.float64),
        )

    def build_features(self) -> List[Feature]:
        """Materialise per-feature objects, bit-identical to the originals."""
        features = []
        for index in range(len(self)):
            bin_value = int(self.orientation_bins[index])
            rad_value = float(self.orientation_rads[index])
            keypoint = Keypoint(
                x=int(self.xs[index]),
                y=int(self.ys[index]),
                score=float(self.scores[index]),
                level=int(self.levels[index]),
                orientation_bin=None if bin_value < 0 else bin_value,
                orientation_rad=None if np.isnan(rad_value) else rad_value,
            )
            features.append(
                Feature(
                    keypoint=keypoint,
                    descriptor=self.descriptors[index],
                    x0=float(self.x0[index]),
                    y0=float(self.y0[index]),
                )
            )
        return features


class ExtractionResult:
    """Features extracted from one image plus the associated profile.

    Besides the per-feature objects, the result exposes the retained set as
    dense arrays (descriptor matrix, level-0 coordinates, scores, levels)
    which the SLAM front-end consumes directly on its hot path; the arrays
    are built once on first access and cached.

    A result can be constructed either from per-feature objects (the
    extractor path) or **arrays-first** via :meth:`from_arrays` (the
    zero-copy result transport, :mod:`repro.serving.resultpack`).  In the
    arrays-first form the ``features`` list is built lazily on first
    access, so consumers that only read the dense arrays — the
    server→:class:`~repro.slam.tracker.Tracker` hot path — never pay for
    materialising ``N`` :class:`~repro.features.keypoint.Feature` objects
    at all.
    """

    def __init__(
        self,
        features: Optional[List[Feature]] = None,
        profile: Optional[ExtractionProfile] = None,
        arrays: Optional[FeatureArrays] = None,
    ) -> None:
        if (features is None) == (arrays is None):
            raise ValueError(
                "ExtractionResult takes exactly one of features= or arrays="
            )
        if profile is None:
            raise ValueError("ExtractionResult requires a profile")
        self._features = features
        self._arrays = arrays
        self.profile = profile
        # lazily built array caches (features-backed results only)
        self._descriptors: Optional[np.ndarray] = None
        self._keypoints_xy: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        self._levels: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls, arrays: FeatureArrays, profile: ExtractionProfile
    ) -> "ExtractionResult":
        """Arrays-first constructor: per-feature objects are built lazily."""
        return cls(profile=profile, arrays=arrays)

    @property
    def features(self) -> List[Feature]:
        """The retained features as objects (materialised lazily)."""
        if self._features is None:
            self._features = self._arrays.build_features()
        return self._features

    @property
    def feature_count(self) -> int:
        """Number of retained features, without materialising them."""
        if self._features is not None:
            return len(self._features)
        return len(self._arrays)

    def feature_arrays(self) -> FeatureArrays:
        """The retained set as dense arrays (built once, cached)."""
        if self._arrays is None:
            self._arrays = FeatureArrays.from_features(self._features)
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtractionResult):
            return NotImplemented
        # feature_records() is the repo-wide bit-identity key; comparing
        # Feature objects directly would trip over ndarray truthiness
        return (
            self.feature_records() == other.feature_records()
            and self.profile == other.profile
        )

    def __repr__(self) -> str:
        return (
            f"ExtractionResult(feature_count={self.feature_count}, "
            f"profile={self.profile!r})"
        )

    def descriptor_matrix(self) -> np.ndarray:
        """Return all descriptors stacked as an ``(N, 32)`` uint8 matrix."""
        if self._arrays is not None:
            return self._arrays.descriptors
        if self._descriptors is None:
            if not self.features:
                self._descriptors = np.zeros((0, 32), dtype=np.uint8)
            else:
                self._descriptors = np.stack([f.descriptor for f in self.features])
        return self._descriptors

    def keypoint_array(self) -> np.ndarray:
        """Return level-0 keypoint coordinates as an ``(N, 2)`` float array."""
        if self._keypoints_xy is None:
            if self._arrays is not None:
                self._keypoints_xy = np.column_stack(
                    (self._arrays.x0, self._arrays.y0)
                )
            elif not self.features:
                self._keypoints_xy = np.zeros((0, 2), dtype=np.float64)
            else:
                self._keypoints_xy = np.array(
                    [[f.x0, f.y0] for f in self.features], dtype=np.float64
                )
        return self._keypoints_xy

    def score_array(self) -> np.ndarray:
        """Harris scores of the retained features, ``(N,)`` float64."""
        if self._arrays is not None:
            return self._arrays.scores
        if self._scores is None:
            self._scores = np.array([f.score for f in self.features], dtype=np.float64)
        return self._scores

    def level_array(self) -> np.ndarray:
        """Pyramid level of each retained feature, ``(N,)`` int64."""
        if self._arrays is not None:
            return self._arrays.levels
        if self._levels is None:
            self._levels = np.array(
                [f.keypoint.level for f in self.features], dtype=np.int64
            )
        return self._levels

    def feature_records(self) -> List[tuple]:
        """Hashable per-feature records, in retained order.

        The bit-identity comparison key shared by every parity check in the
        repo — engine/backend parity, hardware-model parity, thread- and
        process-served extraction (``tests/test_serving.py``,
        ``tests/test_cluster.py``) — so the definition of "identical
        features" cannot drift between suites.  Two results are bit-identical
        iff their record lists compare equal.
        """
        return [
            (
                f.keypoint.level,
                f.keypoint.x,
                f.keypoint.y,
                f.score,
                f.keypoint.orientation_bin,
                f.keypoint.orientation_rad,
                f.descriptor.tobytes(),
                f.x0,
                f.y0,
            )
            for f in self.features
        ]


class OrbExtractor:
    """Full software ORB extractor (the functional model of the accelerator).

    Parameters
    ----------
    config:
        Extractor configuration; ``config.use_rs_brief`` selects the
        descriptor strategy, ``config.rescheduled_workflow`` the workflow
        order and ``config.backend`` the keypoint compute backend.
    """

    def __init__(self, config: ExtractorConfig | None = None) -> None:
        # imported here (not at module scope) so that repro.features,
        # repro.backends and repro.frontend can be imported in any order
        # without a cycle
        from ..backends import create_backend
        from ..frontend import create_engine

        self.config = config or ExtractorConfig()
        self.backend = create_backend(self.config.backend, self.config)
        self.frontend = create_engine(self.config.frontend, self.config)
        self.pyramid_provider = PyramidProvider(self.config)
        self.descriptor_engine: DescriptorEngine = self.backend.descriptor_engine
        self._border = max(
            self.config.fast.border,
            self.descriptor_engine.patch_radius() + 1,
            self.config.descriptor.patch_radius + 1,
        )

    # -- public API -------------------------------------------------------
    def extract(
        self, image: GrayImage, frame_id: int | None = None
    ) -> ExtractionResult:
        """Extract up to ``config.max_features`` ORB features from ``image``.

        ``frame_id`` only labels this frame's tracer spans.
        """
        tracer = current_tracer()
        with tracer.span("acquire_pyramid", frame=frame_id):
            pyramid = self.pyramid_provider.acquire(image)
        try:
            profile = ExtractionProfile(
                workflow="rescheduled" if self.config.rescheduled_workflow else "original"
            )
            profile.pixels_processed = pyramid.total_pixels()
            if self.config.rescheduled_workflow:
                features = self._extract_rescheduled(pyramid, profile)
            else:
                features = self._extract_original(pyramid, profile)
            profile.features_retained = len(features)
            if tracer.enabled:
                # the engine's workload counters, attached to the timeline so
                # a slow extract span can be explained without a second run
                tracer.instant(
                    "profile",
                    frame=frame_id,
                    keypoints_detected=profile.keypoints_detected,
                    descriptors_computed=profile.descriptors_computed,
                    features_retained=profile.features_retained,
                )
            return ExtractionResult(features=features, profile=profile)
        finally:
            self.pyramid_provider.release(pyramid)

    # -- per-level candidate detection --------------------------------------
    def _detect_level_candidates(
        self, level_image: GrayImage, level: int, profile: ExtractionProfile
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the detection engine on one pyramid level; return candidate arrays.

        The engine performs the fused FAST + Harris + NMS pass (see
        :mod:`repro.frontend`); this wrapper applies the descriptor-border
        mask and updates the workload profile.  Returns ``(xs, ys, scores)``
        of the NMS survivors that keep a full descriptor border inside the
        level, filtered by array masking (no per-survivor Python loop).
        """
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        xs, ys, scores, corners_detected = self.frontend.detect_with_count(level_image)
        profile.keypoints_detected += corners_detected
        if xs.size == 0:
            profile.per_level_keypoints.append(0)
            return empty
        inside = within_border(xs, ys, level_image.shape, self._border)
        xs = xs[inside]
        ys = ys[inside]
        profile.keypoints_after_nms += int(xs.size)
        profile.per_level_keypoints.append(int(xs.size))
        if xs.size == 0:
            return empty
        return xs, ys, scores[inside]

    def _feature_from_batch(self, batch, index: int, level: int) -> Feature:
        """Materialise one retained :class:`Feature` from a described batch."""
        keypoint = Keypoint(
            x=int(batch.xs[index]),
            y=int(batch.ys[index]),
            score=float(batch.scores[index]),
            level=level,
            orientation_bin=int(batch.orientation_bins[index]),
            orientation_rad=float(batch.orientation_rads[index]),
        )
        scale = self.config.pyramid.level_scale(level)
        x0, y0 = keypoint.level0_coordinates(scale)
        return Feature(
            keypoint=keypoint, descriptor=batch.descriptors[index], x0=x0, y0=y0
        )

    # -- the two workflow orders --------------------------------------------
    def _extract_rescheduled(
        self, pyramid: ImagePyramid, profile: ExtractionProfile
    ) -> List[Feature]:
        """eSLAM order: describe every detected keypoint, then heap-filter.

        Each level's candidates are described as one batch by the backend and
        bulk-inserted into the heap; only the retained winners become
        :class:`Feature` objects.
        """
        tracer = current_tracer()
        heap: BoundedScoreHeap[Tuple[int, int]] = BoundedScoreHeap(self.config.max_features)
        batches: List[Tuple[int, object]] = []
        for level in pyramid:
            with tracer.span("smooth", level=level.level):
                smoothed = self.frontend.smooth(level.image)
            with tracer.span("detect", level=level.level):
                xs, ys, scores = self._detect_level_candidates(level.image, level.level, profile)
            if xs.size == 0:
                continue
            with tracer.span("describe", level=level.level):
                batch = self.backend.describe(smoothed, xs, ys, scores)
            if batch.size == 0:
                continue
            profile.descriptors_computed += batch.size
            batch_index = len(batches)
            batches.append((level.level, batch))
            heap.offer_batch(
                batch.scores, [(batch_index, row) for row in range(batch.size)]
            )
        profile.heap_comparisons = heap.stats.comparisons
        features: List[Feature] = []
        with tracer.span("filter"):
            for batch_index, row in heap.items_by_score():
                level, batch = batches[batch_index]
                features.append(self._feature_from_batch(batch, row, level))
        return features

    def _extract_original(
        self, pyramid: ImagePyramid, profile: ExtractionProfile
    ) -> List[Feature]:
        """Original order: collect all keypoints, filter to best N, then describe."""
        tracer = current_tracer()
        level_data = []
        for level in pyramid:
            with tracer.span("smooth", level=level.level):
                smoothed = self.frontend.smooth(level.image)
            with tracer.span("detect", level=level.level):
                xs, ys, scores = self._detect_level_candidates(level.image, level.level, profile)
            level_data.append((level.level, smoothed, xs, ys, scores))
        all_scores = np.concatenate([entry[4] for entry in level_data])
        if all_scores.size == 0:
            return []
        level_ids = np.concatenate(
            [np.full(entry[4].size, index, dtype=np.int64) for index, entry in enumerate(level_data)]
        )
        local_indices = np.concatenate(
            [np.arange(entry[4].size, dtype=np.int64) for entry in level_data]
        )
        # global best-N filter: stable sort matches the streaming tie-breaking
        order = np.argsort(-all_scores, kind="stable")
        retained = order[: self.config.max_features]
        # describe the retained candidates level by level (one batch each) and
        # scatter the results back into score-rank order
        by_rank: List[Optional[Feature]] = [None] * int(retained.size)
        for index, (level, smoothed, xs, ys, scores) in enumerate(level_data):
            member_ranks = np.nonzero(level_ids[retained] == index)[0]
            if member_ranks.size == 0:
                continue
            selection = local_indices[retained[member_ranks]]
            with tracer.span("describe", level=level):
                batch = self.backend.describe(
                    smoothed, xs[selection], ys[selection], scores[selection]
                )
            profile.descriptors_computed += batch.size
            for row in range(batch.size):
                rank = int(member_ranks[int(batch.kept[row])])
                by_rank[rank] = self._feature_from_batch(batch, row, level)
        return [feature for feature in by_rank if feature is not None]


def extract_features(image: GrayImage, config: ExtractorConfig | None = None) -> ExtractionResult:
    """Convenience one-shot feature extraction with a fresh extractor."""
    return OrbExtractor(config).extract(image)


def check_workflow_equivalence(
    image: GrayImage, config: ExtractorConfig | None = None
) -> int:
    """Return how many retained keypoint positions differ between workflows.

    The rescheduled and original workflows must retain the same keypoints
    (filtering depends only on Harris scores).  Descriptor values are
    identical as well because description is a pure function of (image,
    keypoint).  Returns the size of the symmetric difference of the retained
    ``(level, x, y)`` sets; 0 means the workflows agree exactly.
    """
    cfg = config or ExtractorConfig()
    rescheduled = OrbExtractor(replace(cfg, rescheduled_workflow=True)).extract(image)
    original = OrbExtractor(replace(cfg, rescheduled_workflow=False)).extract(image)
    keys_a = {(f.keypoint.level, f.keypoint.x, f.keypoint.y) for f in rescheduled.features}
    keys_b = {(f.keypoint.level, f.keypoint.x, f.keypoint.y) for f in original.features}
    return len(keys_a.symmetric_difference(keys_b))
