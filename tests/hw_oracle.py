"""The scalar hardware walk: the test oracle of the quantized ``hwexact`` engine.

:func:`extract_quantized` drives the ORB Extractor's fixed-point datapath
(Figure 4) the way the streaming hardware does: every interior 7x7 window
through :class:`FastDetectionUnit` (segment test and integer Harris
accumulators), raster-order NMS on the quantized scores, the 8-bit
fixed-point :class:`ImageSmootherUnit`, then per feature the Orientation
unit (Q6.10 ratio LUT), the BRIEF Computing unit and the BRIEF Rotator,
each record offered to the 1024-entry heap (:class:`BoundedScoreHeap`) one
at a time.  :func:`run_hwexact_parity` compares that walk with the batched
engine record by record.

The walk shares only ``quantize_gaussian_kernel``,
``smooth_image_quantized`` and ``orientation_bins_quantized`` with the
engine; the per-window and per-patch kernels below are its own.  The
Harris kernel reads :data:`repro.quant.kernels.HARRIS_SCORE_SHIFT` when it
is called, so :func:`repro.quant.quantization_overrides` applies to both
sides.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Generic, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.config import ExtractorConfig, FastConfig, PyramidConfig
from repro.errors import DescriptorError, FeatureError, HardwareModelError
from repro.features import ExtractionResult, FeatureArrays, OrbExtractor
from repro.features.fast import FAST_CIRCLE_OFFSETS
from repro.features.heap_filter import HeapStatistics
from repro.features.nms import non_maximum_suppression
from repro.features.orb import ExtractionProfile
from repro.features.orientation import (
    NUM_ORIENTATION_BINS,
    ORIENTATION_BIN_RAD,
    intensity_centroid,
)
from repro.features.rs_brief import rotate_descriptor_bytes, rs_brief_pattern
from repro.image import GrayImage, ImagePyramid, within_border
from repro.quant import kernels
from repro.quant.formats import HARRIS_SCORE_FORMAT
from repro.quant.kernels import (
    HARRIS_K_FIXED,
    HARRIS_K_FRACTION_BITS,
    HARRIS_WINDOW_RADIUS,
    SMOOTHER_WEIGHT_BITS,
    orientation_bins_quantized,
    quantize_gaussian_kernel,
    smooth_image_quantized,
)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# per-window and per-patch kernels
# ---------------------------------------------------------------------------
def smooth_window_quantized(
    window: np.ndarray, kernel_fixed: np.ndarray, weight_bits: int = SMOOTHER_WEIGHT_BITS
) -> int:
    """Smoothed centre pixel of one window (the hardware MAC + shift)."""
    window = np.asarray(window, dtype=np.int64)
    if window.shape != kernel_fixed.shape:
        raise HardwareModelError(
            f"smoother window must be {kernel_fixed.shape[0]}x{kernel_fixed.shape[1]}"
        )
    accumulator = int((window * kernel_fixed).sum())
    return int(np.clip(accumulator >> weight_bits, 0, 255))


def harris_window_score_quantized(window: np.ndarray) -> int:
    """Quantized Harris response of one 7x7 window (integer accumulators).

    Doubled central-difference gradients are accumulated into the integer
    second-moment sums; the score is rescaled by
    :data:`repro.quant.kernels.HARRIS_SCORE_SHIFT` and saturated to
    :data:`repro.quant.formats.HARRIS_SCORE_FORMAT`.
    """
    window = np.asarray(window, dtype=np.int64)
    side = 2 * HARRIS_WINDOW_RADIUS + 1
    if window.shape != (side, side):
        raise HardwareModelError(f"Harris window must be {side}x{side}")
    gx2 = np.zeros_like(window)
    gy2 = np.zeros_like(window)
    gx2[:, 1:-1] = window[:, 2:] - window[:, :-2]
    gy2[1:-1, :] = window[2:, :] - window[:-2, :]
    sxx = int((gx2 * gx2).sum())
    syy = int((gy2 * gy2).sum())
    sxy = int((gx2 * gy2).sum())
    det16 = sxx * syy - sxy * sxy
    trace4 = sxx + syy
    raw = (det16 << HARRIS_K_FRACTION_BITS) - HARRIS_K_FIXED * trace4 * trace4
    return int(HARRIS_SCORE_FORMAT.saturate_integer(raw >> kernels.HARRIS_SCORE_SHIFT))


def orientation_bin_from_patch_quantized(
    patch: np.ndarray, num_bins: int = NUM_ORIENTATION_BINS
) -> int:
    """The Orientation unit's label of one circular patch: centroid, Q6.10
    ratio, 32-way LUT (one row of ``orientation_bins_quantized``)."""
    u, v = intensity_centroid(np.asarray(patch, dtype=np.float64))
    return int(orientation_bins_quantized(np.array([u]), np.array([v]), num_bins)[0])


def brief_descriptor_from_patch(
    patch: np.ndarray, s_int: np.ndarray, d_int: np.ndarray
) -> np.ndarray:
    """Unrotated descriptor bytes from a smoothed patch (hardware bit order).

    Evaluates the rounded test locations against the patch centre and packs
    bit ``i`` into byte ``i // 8`` LSB-first, exactly as the BRIEF Computing
    unit's comparators feed its output register.
    """
    patch = np.asarray(patch, dtype=np.int64)
    if patch.ndim != 2 or patch.shape[0] != patch.shape[1] or patch.shape[0] % 2 == 0:
        raise HardwareModelError("descriptor patch must be square with odd side")
    radius = patch.shape[0] // 2
    max_offset = int(np.abs(np.concatenate([s_int, d_int])).max())
    if radius < max_offset:
        raise HardwareModelError(
            f"patch radius {radius} too small for pattern radius {max_offset}"
        )
    s_vals = patch[radius + s_int[:, 1], radius + s_int[:, 0]]
    d_vals = patch[radius + d_int[:, 1], radius + d_int[:, 0]]
    bits = (s_vals > d_vals).astype(np.uint8)
    return np.packbits(bits, bitorder="little")


def rotate_descriptor(descriptor: np.ndarray, orientation_bin: int) -> np.ndarray:
    """The BRIEF Rotator: the first ``8 * orientation_bin`` bits move to the end."""
    if not 0 <= orientation_bin < NUM_ORIENTATION_BINS:
        raise HardwareModelError(
            f"orientation bin {orientation_bin} outside [0, {NUM_ORIENTATION_BINS})"
        )
    return rotate_descriptor_bytes(np.asarray(descriptor, dtype=np.uint8), orientation_bin)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """The BRIEF Matcher's Distance Computing unit on one descriptor pair:
    XOR, then a popcount of every bit."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DescriptorError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return int(np.unpackbits(np.bitwise_xor(a, b)).sum())


# ---------------------------------------------------------------------------
# datapath units without a cycle model
# ---------------------------------------------------------------------------
class FastDetectionUnit:
    """Window-based FAST segment test with Harris scoring.

    The hardware evaluates one 7x7 window per clock cycle: the 16 circle
    comparisons, the contiguous-arc check and the Harris response all fit in
    a fully unrolled combinational pipeline.
    """

    def __init__(self, config: FastConfig | None = None) -> None:
        self.config = config or FastConfig()

    def evaluate_window(self, window: np.ndarray) -> Tuple[bool, float]:
        """Return ``(is_corner, harris_score)`` for one 7x7 pixel window."""
        window = np.asarray(window, dtype=np.int64)
        if window.shape != (7, 7):
            raise HardwareModelError("FAST window must be 7x7")
        center = int(window[3, 3])
        ring = [int(window[3 + dy, 3 + dx]) for dx, dy in FAST_CIRCLE_OFFSETS]
        is_corner = self._segment_test(center, ring)
        score = float(harris_window_score_quantized(window)) if is_corner else 0.0
        return is_corner, score

    def _segment_test(self, center: int, ring: Sequence[int]) -> bool:
        threshold = self.config.threshold
        arc = self.config.arc_length
        brighter = [value > center + threshold for value in ring]
        darker = [value < center - threshold for value in ring]
        for flags in (brighter, darker):
            doubled = list(flags) + list(flags[: arc - 1])
            run = 0
            for flag in doubled:
                run = run + 1 if flag else 0
                if run >= arc:
                    return True
        return False


class ImageSmootherUnit:
    """7x7 Gaussian blur evaluated as a windowed multiply-accumulate.

    The kernel weights are quantised to 8-bit fixed point, which is how an
    FPGA DSP-based smoother would store them; the centre tap absorbs the
    rounding so the weights sum to ``2**weight_bits``.
    """

    def __init__(self, size: int = 7, sigma: float = 2.0, weight_bits: int = 8) -> None:
        self.weight_bits = weight_bits
        self.kernel_fixed = quantize_gaussian_kernel(size, sigma, weight_bits)

    def smooth_window(self, window: np.ndarray) -> int:
        """Return the smoothed centre pixel of one ``size x size`` window."""
        return smooth_window_quantized(window, self.kernel_fixed, self.weight_bits)

    def smooth_image(self, image: GrayImage) -> GrayImage:
        """Slide the unit over a whole image (edges replicate, matching the
        clamping line buffer)."""
        return smooth_image_quantized(image, self.kernel_fixed, self.weight_bits)


# ---------------------------------------------------------------------------
# NMS and the feature heap
# ---------------------------------------------------------------------------
def suppress_keypoints(
    points: Sequence[Tuple[int, int]],
    scores: Sequence[float],
    shape: Tuple[int, int],
    radius: int = 1,
) -> List[int]:
    """Indices of ``points`` that survive the dense raster-order NMS."""
    if len(points) != len(scores):
        raise FeatureError("points and scores must have the same length")
    h, w = shape
    corner_mask = np.zeros((h, w), dtype=bool)
    score_map = np.full((h, w), -np.inf)
    for (x, y), score in zip(points, scores):
        if not (0 <= x < w and 0 <= y < h):
            raise FeatureError(f"point ({x}, {y}) outside shape {shape}")
        corner_mask[y, x] = True
        score_map[y, x] = score
    keep = non_maximum_suppression(corner_mask, score_map, radius=radius)
    return [i for i, (x, y) in enumerate(points) if keep[y, x]]


@dataclass
class BoundedScoreHeap(Generic[T]):
    """Keep the ``capacity`` items with the largest scores, one offer at a time.

    The streaming form of the Heap module, and the reference
    :func:`repro.features.select_top` must equal: items are arbitrary
    payloads, ties go to the earlier-inserted item (an equal-scoring later
    feature does not evict an earlier one), and ``stats`` counts the
    operations as ``select_top`` reports them.
    """

    capacity: int
    _heap: List[Tuple[float, int, T]] = field(default_factory=list)
    _counter: "itertools.count[int]" = field(default_factory=itertools.count)
    stats: HeapStatistics = field(default_factory=HeapStatistics)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise FeatureError("heap capacity must be positive")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    def offer(self, score: float, item: T) -> bool:
        """Offer an item; return True if it is retained.

        A full heap retains the item only if its score strictly exceeds the
        current minimum; the displaced minimum is discarded.
        """
        # ``-next(counter)`` makes earlier items win ties: for equal scores the
        # earlier item has a larger tiebreaker and therefore is *not* the root.
        order = -next(self._counter)
        if not self.is_full:
            heapq.heappush(self._heap, (score, order, item))
            self.stats.insertions += 1
            self.stats.comparisons += max(1, len(self._heap).bit_length())
            return True
        self.stats.comparisons += 1
        if score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, order, item))
            self.stats.replacements += 1
            self.stats.comparisons += max(1, self.capacity.bit_length())
            return True
        self.stats.rejections += 1
        return False

    def extend(self, scored_items: Iterable[Tuple[float, T]]) -> None:
        """Offer every ``(score, item)`` pair in order."""
        for score, item in scored_items:
            self.offer(score, item)

    def items_by_score(self) -> List[T]:
        """Return retained items sorted by descending score (stable for ties)."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], -entry[1]))
        return [item for _, _, item in ordered]

    def scores(self) -> List[float]:
        """Return retained scores in descending order."""
        return sorted((score for score, _, _ in self._heap), reverse=True)


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------
def extract_quantized(image: GrayImage, config: ExtractorConfig) -> ExtractionResult:
    """Quantized extraction, unit by unit, in the streaming hardware's order.

    Every border-clear NMS survivor is described before the heap filters
    (the rescheduled workflow).  Requires a FAST border of at least 3: the
    hardware never evaluates a partial window.
    """
    if config.fast.border < 3:
        raise HardwareModelError("the hardware window pipeline needs a FAST border of at least 3")
    pattern = rs_brief_pattern(config.descriptor)
    s_int, d_int = pattern.rounded()
    fast_unit = FastDetectionUnit(config.fast)
    smoother = ImageSmootherUnit()
    pyramid = ImagePyramid(image, config.pyramid)
    profile = ExtractionProfile(workflow="rescheduled")
    profile.pixels_processed = pyramid.total_pixels()
    patch_radius = config.descriptor.patch_radius
    descriptor_border = max(
        config.fast.border, int(np.ceil(pattern.max_radius())) + 1, patch_radius + 1
    )
    heap: BoundedScoreHeap[tuple] = BoundedScoreHeap(config.max_features)
    for level in pyramid:
        level_image = level.image
        smoothed = smoother.smooth_image(level_image)
        xs, ys, scores = _detect_level(level_image, fast_unit, profile)
        if not xs:
            profile.per_level_keypoints.append(0)
            continue
        keep = suppress_keypoints(list(zip(xs, ys)), scores, level_image.shape, radius=1)
        survivors = [
            index
            for index in keep
            if within_border(
                np.int64(xs[index]), np.int64(ys[index]), level_image.shape, descriptor_border
            )
        ]
        profile.keypoints_after_nms += len(survivors)
        profile.per_level_keypoints.append(len(survivors))
        for index in survivors:
            x, y = xs[index], ys[index]
            patch = smoothed.patch(x, y, patch_radius)
            orientation_bin = orientation_bin_from_patch_quantized(patch)
            descriptor = rotate_descriptor(
                brief_descriptor_from_patch(patch, s_int, d_int), orientation_bin
            )
            profile.descriptors_computed += 1
            heap.offer(scores[index], (level.level, x, y, scores[index], descriptor, orientation_bin))
    profile.heap_comparisons = heap.stats.comparisons
    arrays = _retained_arrays(heap.items_by_score(), config.pyramid)
    profile.features_retained = len(arrays)
    return ExtractionResult(arrays, profile)


def _detect_level(
    level_image: GrayImage, fast_unit: FastDetectionUnit, profile: ExtractionProfile
) -> Tuple[List[int], List[int], List[float]]:
    """FAST + quantized Harris over every complete window of one level."""
    height, width = level_image.shape
    border = fast_unit.config.border
    pixels = level_image.pixels
    xs: List[int] = []
    ys: List[int] = []
    scores: List[float] = []
    for y in range(border, height - border):
        for x in range(border, width - border):
            is_corner, score = fast_unit.evaluate_window(pixels[y - 3 : y + 4, x - 3 : x + 4])
            if not is_corner:
                continue
            profile.keypoints_detected += 1
            if score > 0:
                xs.append(x)
                ys.append(y)
                scores.append(score)
    return xs, ys, scores


def _retained_arrays(records: List[tuple], pyramid: PyramidConfig) -> FeatureArrays:
    """The heap's ``(level, x, y, score, descriptor, bin)`` records as columns."""
    if not records:
        return FeatureArrays.empty()
    levels, xs, ys, scores, descriptors, bins = zip(*records)
    bins = np.array(bins, dtype=np.int64)
    return FeatureArrays.from_level_columns(
        pyramid,
        descriptors=np.stack(descriptors),
        levels=np.array(levels, dtype=np.int64),
        xs=np.array(xs, dtype=np.int64),
        ys=np.array(ys, dtype=np.int64),
        scores=np.array(scores, dtype=np.float64),
        orientation_bins=bins,
        orientation_rads=bins * ORIENTATION_BIN_RAD,
    )


# ---------------------------------------------------------------------------
# the parity comparison
# ---------------------------------------------------------------------------
def run_hwexact_parity(images: Sequence[GrayImage], config: ExtractorConfig) -> dict:
    """The ``hwexact`` engine against :func:`extract_quantized`, image by image.

    Returns per-image feature and mismatch counts; ``bit_identical`` is True
    only if every feature record *and* every workload profile agrees exactly.
    """
    engine_extractor = OrbExtractor(config)
    rows = []
    total_mismatches = 0
    profiles_equal = True
    for index, image in enumerate(images):
        engine_result = engine_extractor.extract(image)
        hw_result = extract_quantized(image, config)
        engine_records = engine_result.feature_records()
        hw_records = hw_result.feature_records()
        mismatches = sum(a != b for a, b in zip(engine_records, hw_records))
        mismatches += abs(len(engine_records) - len(hw_records))
        total_mismatches += mismatches
        profile_match = vars(engine_result.profile) == vars(hw_result.profile)
        profiles_equal = profiles_equal and profile_match
        rows.append(
            {
                "image": index,
                "engine_features": len(engine_records),
                "hw_features": len(hw_records),
                "mismatched_features": mismatches,
                "profile_match": profile_match,
            }
        )
    return {
        "images": len(rows),
        "rows": rows,
        "total_mismatches": total_mismatches,
        "profiles_equal": profiles_equal,
        "bit_identical": total_mismatches == 0 and profiles_equal,
    }
