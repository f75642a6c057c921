"""Feature substrate: FAST, Harris, NMS, orientation, BRIEF / RS-BRIEF, ORB."""

from .keypoint import Feature, Keypoint
from .fast import (
    FAST_CIRCLE_OFFSETS,
    fast_corner_mask,
)
from .harris import HARRIS_K, harris_response_map, harris_scores_sparse
from .nms import non_maximum_suppression, suppress_keypoints_sparse
from .orientation import (
    NUM_ORIENTATION_BINS,
    ORIENTATION_PATCH_RADIUS,
    OrientationGrid,
    compute_orientation,
    compute_orientations,
    discretize_orientation,
    intensity_centroid,
    intensity_centroids,
    orientation_angle,
    orientation_lut_labels,
)
from .patterns import BriefPattern, RotatedPatternLUT, original_brief_pattern, rotated_pattern
from .rs_brief import (
    RsBriefSeed,
    descriptor_rotation_table,
    generate_seed,
    pattern_symmetry_error,
    rotate_descriptor_bytes,
    rs_brief_pattern,
)
from .brief import (
    OriginalOrbDescriptorEngine,
    RsBriefDescriptorEngine,
    evaluate_pattern,
    evaluate_pattern_batch,
    make_descriptor_engine,
    pack_bit_matrix,
    pack_bits,
)
from .heap_filter import HeapStatistics, select_top
from .orb import (
    ExtractionProfile,
    ExtractionResult,
    FeatureArrays,
    OrbExtractor,
)

__all__ = [
    "Feature",
    "Keypoint",
    "FAST_CIRCLE_OFFSETS",
    "fast_corner_mask",
    "HARRIS_K",
    "harris_response_map",
    "harris_scores_sparse",
    "non_maximum_suppression",
    "suppress_keypoints_sparse",
    "NUM_ORIENTATION_BINS",
    "ORIENTATION_PATCH_RADIUS",
    "OrientationGrid",
    "compute_orientation",
    "compute_orientations",
    "discretize_orientation",
    "intensity_centroid",
    "intensity_centroids",
    "orientation_angle",
    "orientation_lut_labels",
    "BriefPattern",
    "RotatedPatternLUT",
    "original_brief_pattern",
    "rotated_pattern",
    "RsBriefSeed",
    "generate_seed",
    "rs_brief_pattern",
    "rotate_descriptor_bytes",
    "descriptor_rotation_table",
    "pattern_symmetry_error",
    "RsBriefDescriptorEngine",
    "OriginalOrbDescriptorEngine",
    "make_descriptor_engine",
    "evaluate_pattern",
    "evaluate_pattern_batch",
    "pack_bit_matrix",
    "pack_bits",
    "HeapStatistics",
    "select_top",
    "ExtractionProfile",
    "ExtractionResult",
    "FeatureArrays",
    "OrbExtractor",
]
