"""Software ORB feature extractor.

This is the functional reference for the accelerated ORB Extractor: it runs
FAST detection, Harris scoring, non-maximum suppression, Gaussian smoothing,
orientation computation, BRIEF description (RS-BRIEF or original ORB) and
best-N filtering over a multi-scale image pyramid.

Two workflow orders are modelled, matching Section 3.1 of the paper:

* ``original``   -- detect -> filter (keep best N) -> describe.  This is the
  order of the original ORB implementation; on hardware it forces the
  descriptor pipeline to idle until filtering completes and requires caching
  every candidate keypoint's neighbourhood.
* ``rescheduled`` -- detect -> describe -> filter.  eSLAM's streaming order:
  the accelerator describes *all* M detected keypoints as they stream by
  and the heap keeps the best N at the end.  The extra ``M - N`` descriptor
  computations are the overhead the paper trades for the eliminated idle
  time and cache.

The retained set depends only on the Harris scores of the candidates, and a
descriptor is a pure function of (level, keypoint), so both orders keep the
same features with the same descriptors.  The software therefore runs one
path for both: detect every level, filter the candidate scores in level
order (the heap's offer stream) with :func:`select_top`, then smooth and
describe only the N kept keypoints.  The workflow changes only the
:class:`ExtractionProfile` counts that feed the hardware/runtime models:
``rescheduled`` counts the M descriptors and the heap comparisons the
streaming hardware performs, ``original`` counts N descriptors and no heap
work.

``ExtractorConfig.engine`` names one :class:`~repro.engines.ExtractionEngine`
(see ``docs/engines.md``), which detects (FAST + Harris + NMS) on every
pyramid level and smooths, orients and describes the kept keypoints.  The
default ``vectorized`` engine batches each level through numpy while
``reference`` keeps the per-stage, per-keypoint ground truth; both are
bit-identical.  The
multi-scale pyramid those engines consume comes from the extractor's
:class:`~repro.pyramid.PyramidProvider`, which builds every level of the
frame up front (see ``docs/pyramid.md``).  Candidates move through the
extractor as coordinate/score arrays, the retained set is gathered out of
them into one :class:`FeatureArrays`, and :class:`Feature` objects are only
built if a caller asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..config import ExtractorConfig, PyramidConfig
from ..image import GrayImage, ImagePyramid, within_border
from ..pyramid import PyramidProvider
from ..telemetry import current_tracer
from .heap_filter import select_top
from .keypoint import Feature, Keypoint

if TYPE_CHECKING:
    from ..engines import DescribedBatch


@dataclass
class ExtractionProfile:
    """Operation counts recorded while extracting features from one image.

    These counts drive the platform runtime models and the hardware cycle
    model: they are the workload description, independent of how long this
    Python process happened to take.  ``descriptors_computed`` is the
    modelled descriptor work of the workflow: every border-clear candidate
    (M) under ``rescheduled``, as the streaming hardware describes them all,
    and the retained set (N) under ``original``.  The software extractor
    describes only the N retained keypoints in both workflows.
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
        """Modelled descriptors beyond the retained set (rescheduling overhead).

        ``M - N`` under ``rescheduled``, 0 under ``original``.
        """
        return max(0, self.descriptors_computed - self.features_retained)


@dataclass
class FeatureArrays:
    """The retained feature set as dense, contiguous arrays (length ``N``).

    This is the one representation of a retained feature set, from the
    extractor through the result transport to the tracker: one array per
    :class:`~repro.features.keypoint.Feature` attribute, so a result can be
    packed into flat buffers (:mod:`repro.cluster.resultpack`), shipped
    across a process boundary without pickling, and rebuilt bit-identical
    on the other side.  ``orientation_bins`` uses ``-1`` and
    ``orientation_rads`` uses ``NaN`` for features whose orientation was
    never computed.
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
    def from_level_columns(
        cls,
        pyramid: PyramidConfig,
        descriptors: np.ndarray,
        levels: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        scores: np.ndarray,
        orientation_bins: np.ndarray,
        orientation_rads: np.ndarray,
    ) -> "FeatureArrays":
        """Assemble the arrays from level-local columns.

        Level-0 coordinates are each level-local coordinate times its
        level's ``pyramid.level_scale``: one float64 product per value.
        """
        xs = xs.astype(np.int64, copy=False)
        ys = ys.astype(np.int64, copy=False)
        scales = np.array(
            [pyramid.level_scale(level) for level in range(pyramid.num_levels)],
            dtype=np.float64,
        )[levels]
        return cls(
            descriptors=descriptors.astype(np.uint8, copy=False),
            levels=levels.astype(np.int64, copy=False),
            xs=xs,
            ys=ys,
            scores=scores.astype(np.float64, copy=False),
            orientation_bins=orientation_bins.astype(np.int64, copy=False),
            orientation_rads=orientation_rads.astype(np.float64, copy=False),
            x0=xs * scales,
            y0=ys * scales,
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

    def keypoint_keys(self) -> List[Tuple[int, int, int]]:
        """``(level, x, y)`` of every retained feature, in retained order."""
        return list(zip(self.levels.tolist(), self.xs.tolist(), self.ys.tolist()))

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
    """The retained feature set of one image plus its extraction profile.

    The retained set is held as one :class:`FeatureArrays` — the same flat
    record stream the accelerator's Heap module keeps (descriptor,
    coordinates, Harris score) — and every accessor below reads its
    columns directly.  The SLAM front-end, the result transport
    (:mod:`repro.cluster.resultpack`) and the parity checks never build
    per-feature objects; :attr:`features` materialises
    :class:`~repro.features.keypoint.Feature` objects lazily for callers
    that ask for them.
    """

    def __init__(self, arrays: FeatureArrays, profile: ExtractionProfile) -> None:
        self._arrays = arrays
        self.profile = profile
        self._features: Optional[List[Feature]] = None

    @property
    def features(self) -> List[Feature]:
        """The retained features as objects (materialised lazily)."""
        if self._features is None:
            self._features = self._arrays.build_features()
        return self._features

    @property
    def feature_count(self) -> int:
        """Number of retained features."""
        return len(self._arrays)

    def feature_arrays(self) -> FeatureArrays:
        """The retained set as dense arrays."""
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtractionResult):
            return NotImplemented
        # feature_records() is the repo-wide bit-identity key
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
        return self._arrays.descriptors

    def keypoint_array(self) -> np.ndarray:
        """Return level-0 keypoint coordinates as an ``(N, 2)`` float array."""
        return np.column_stack((self._arrays.x0, self._arrays.y0))

    def score_array(self) -> np.ndarray:
        """Harris scores of the retained features, ``(N,)`` float64."""
        return self._arrays.scores

    def level_array(self) -> np.ndarray:
        """Pyramid level of each retained feature, ``(N,)`` int64."""
        return self._arrays.levels

    def feature_records(self) -> List[tuple]:
        """Hashable per-feature records, in retained order.

        The bit-identity comparison key shared by every parity check in the
        repo — engine parity, hardware-model parity, process-served
        extraction (``tests/test_cluster.py``) — so the definition of "identical
        features" cannot drift between suites.  Two results are bit-identical
        iff their record lists compare equal.  A record is ``(level, x, y,
        score, orientation_bin, orientation_rad, descriptor bytes, x0, y0)``
        with ``None`` for an orientation that was never computed.
        """
        arrays = self._arrays
        bins = [None if value < 0 else value for value in arrays.orientation_bins.tolist()]
        rads = [None if math.isnan(value) else value for value in arrays.orientation_rads.tolist()]
        return list(
            zip(
                arrays.levels.tolist(),
                arrays.xs.tolist(),
                arrays.ys.tolist(),
                arrays.scores.tolist(),
                bins,
                rads,
                [row.tobytes() for row in arrays.descriptors],
                arrays.x0.tolist(),
                arrays.y0.tolist(),
            )
        )


class OrbExtractor:
    """Full software ORB extractor (the functional model of the accelerator).

    Parameters
    ----------
    config:
        Extractor configuration; ``config.use_rs_brief`` selects the
        descriptor strategy, ``config.rescheduled_workflow`` the workflow
        order and ``config.engine`` the extraction engine.
    """

    def __init__(self, config: ExtractorConfig | None = None) -> None:
        # imported here (not at module scope) so that repro.features and
        # repro.engines can be imported in any order without a cycle
        from ..engines import HwExactEngine, ReferenceEngine, VectorizedEngine

        self.config = config or ExtractorConfig()
        self.engine = {
            "reference": ReferenceEngine,
            "vectorized": VectorizedEngine,
            "hwexact": HwExactEngine,
        }[self.config.engine](self.config)
        self.pyramid_provider = PyramidProvider(self.config)
        self._border = max(
            self.config.fast.border,
            self.engine.descriptor_engine.patch_radius() + 1,
            self.config.descriptor.patch_radius + 1,
        )

    @property
    def frontend(self):  # read only by perfbench's traced pass
        return self.engine

    @property
    def backend(self):  # read only by perfbench's traced pass
        return self.engine

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
            arrays = self._extract(pyramid, profile)
            profile.features_retained = len(arrays)
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
            return ExtractionResult(arrays, profile)
        finally:
            self.pyramid_provider.release(pyramid)

    # -- per-level candidate detection --------------------------------------
    def _detect_level_candidates(
        self, level_image: GrayImage, level: int, profile: ExtractionProfile
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the detection engine on one pyramid level; return candidate arrays.

        The engine performs the fused FAST + Harris + NMS pass (see
        :mod:`repro.engines`); this wrapper applies the descriptor-border
        mask and updates the workload profile.  Returns ``(xs, ys, scores)``
        of the NMS survivors that keep a full descriptor border inside the
        level, filtered by array masking (no per-survivor Python loop).
        """
        xs, ys, scores, corners_detected = self.engine.detect_with_count(level_image)
        profile.keypoints_detected += corners_detected
        inside = within_border(xs, ys, level_image.shape, self._border)
        kept = int(np.count_nonzero(inside))
        profile.keypoints_after_nms += kept
        profile.per_level_keypoints.append(kept)
        return xs[inside], ys[inside], scores[inside]

    def _extract(self, pyramid: ImagePyramid, profile: ExtractionProfile) -> FeatureArrays:
        """Detect every level, keep the heap's best N, describe only those.

        The candidate scores of all levels, in level order, are the heap's
        offer stream: :func:`select_top` gives the rows the heap keeps, in
        heap order, and its comparison count.  Each level that keeps any row
        is then smoothed and its kept keypoints described as one batch, and
        the described rows are gathered into heap order.
        """
        tracer = current_tracer()
        candidates = []
        for level in pyramid:
            with tracer.span("detect", level=level.level):
                xs, ys, scores = self._detect_level_candidates(level.image, level.level, profile)
            candidates.append((level, xs, ys, scores))
        offers = np.concatenate([scores for _, _, _, scores in candidates])
        with tracer.span("filter"):
            rows, stats = select_top(offers, self.config.max_features)
        if self.config.rescheduled_workflow:
            # the streaming hardware describes every candidate it offers
            profile.descriptors_computed = int(offers.size)
            profile.heap_comparisons = stats.comparisons
        else:
            profile.descriptors_computed = int(rows.size)
        if rows.size == 0:
            return FeatureArrays.empty()
        starts = np.cumsum([0] + [xs.size for _, xs, _, _ in candidates])
        level_of_rank = np.searchsorted(starts, rows, side="right") - 1
        batches: List[DescribedBatch] = []
        for index, (level, xs, ys, scores) in enumerate(candidates):
            local = rows[level_of_rank == index] - starts[index]
            if local.size == 0:
                continue
            with tracer.span("smooth", level=level.level):
                smoothed = self.engine.smooth(level.image)
            with tracer.span("describe", level=level.level):
                batches.append(
                    self.engine.describe(smoothed, xs[local], ys[local], scores[local])
                )
        # the batches hold the kept rows grouped by level, in heap order within
        # a level; the inverse of that permutation puts them back in heap order
        order = np.argsort(np.argsort(level_of_rank, kind="stable"))

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(batch, name) for batch in batches])[order]

        return FeatureArrays.from_level_columns(
            self.config.pyramid,
            descriptors=column("descriptors"),
            levels=np.array([level.level for level, _, _, _ in candidates])[level_of_rank],
            xs=column("xs"),
            ys=column("ys"),
            scores=column("scores"),
            orientation_bins=column("orientation_bins"),
            orientation_rads=column("orientation_rads"),
        )

