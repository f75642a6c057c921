"""Micro-benchmarks of the software kernels underlying the pipeline.

These are not paper tables; they characterise the Python substrate itself
(FAST detection, descriptor computation, Hamming matching, rendering) so that
regressions in the functional code are caught and the runtime models'
workload counters can be sanity-checked against real operation counts.
"""

import numpy as np

from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor, fast_corner_mask, harris_response_map
from repro.geometry import PinholeCamera, Pose
from repro.dataset import wall_scene
from repro.matching import BruteForceMatcher

from conftest import print_section


def test_kernel_fast_detection(benchmark, small_image):
    mask = benchmark(fast_corner_mask, small_image)
    print_section("Kernel: FAST detection (320x240)")
    print(f"  corners detected: {int(mask.sum())}")
    assert mask.sum() > 100


def test_kernel_harris_response(benchmark, small_image):
    response = benchmark(harris_response_map, small_image)
    assert response.shape == small_image.shape


def test_kernel_full_extraction(benchmark, small_image):
    config = ExtractorConfig(
        image_width=320,
        image_height=240,
        pyramid=PyramidConfig(num_levels=2),
        max_features=500,
    )
    extractor = OrbExtractor(config)
    result = benchmark.pedantic(extractor.extract, args=(small_image,), rounds=2, iterations=1)
    print_section("Kernel: full ORB extraction (320x240, 2 levels)")
    print(f"  features: {len(result.features)}, descriptors computed: "
          f"{result.profile.descriptors_computed}")
    assert len(result.features) > 100


def _timed_hamming_matcher(benchmark, map_size):
    """1024 frame descriptors against a ``map_size``-point map whose first
    256 rows are planted copies of the first 256 frame descriptors."""
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, (1024, 32), dtype=np.uint8)
    global_map = rng.integers(0, 256, (map_size, 32), dtype=np.uint8)
    global_map[:256] = frame[:256]
    matcher = BruteForceMatcher()
    matches = benchmark(matcher.match_arrays, frame, global_map)
    print_section(f"Kernel: fused Hamming matcher (1024 x {map_size} descriptors)")
    stats = matcher.last_stats
    print(f"  distance evaluations: {stats.distance_evaluations}, "
          f"accepted: {stats.accepted}")
    assert stats.distance_evaluations == 1024 * map_size
    # the 256 planted copies match at distance 0; unrelated random
    # descriptors sit ~128 bits apart and fail the 64-bit distance filter
    assert matches.train_indices.tolist() == list(range(256))
    assert matches.distances.tolist() == [0] * 256


def test_kernel_hamming_matrix(benchmark):
    """The matcher at the QVGA operating point: 1024 frame descriptors
    against a 5,400-point map (``slam-xyz-qvga``'s final map size)."""
    _timed_hamming_matcher(benchmark, 5400)


def test_kernel_hamming_matrix_small_map(benchmark):
    """A 2,000-point map: below 8,192 / 3 train rows, where numpy's default
    ufunc buffer would put the XOR on its slow buffered loop."""
    _timed_hamming_matcher(benchmark, 2000)


def test_kernel_scene_rendering(benchmark):
    scene = wall_scene()
    camera = PinholeCamera.tum_freiburg1().scaled(0.5)
    view = benchmark(scene.render, camera, Pose.identity())
    print_section("Kernel: ray-plane rendering (320x240)")
    print(f"  valid depth fraction: {view.valid_mask().mean():.2f}")
    assert view.valid_mask().all()
