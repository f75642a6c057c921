"""FAST segment-test keypoint detection.

FAST (Features from Accelerated Segment Test) declares a pixel ``p`` a corner
if at least ``arc_length`` contiguous pixels on a Bresenham circle of radius 3
around ``p`` are all brighter than ``I(p) + t`` or all darker than
``I(p) - t``.  The paper uses the standard FAST-9/16 variant inside the FAST
Detection module, operating on a 7x7 pixel window streamed from the Image
Cache.

The implementation is vectorised over the whole image so the software
pipeline stays fast enough to run full synthetic sequences in the test suite;
:func:`segment_arc_network` resolves the arc test as the AND/OR network the
``vectorized`` engine runs over bit-packed ring flags, and the hardware model
in :mod:`repro.hw.orb_extractor.units` reuses the same circle offsets
for its per-window functional check.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..config import FastConfig
from ..errors import FeatureError
from ..image import GrayImage

#: Bresenham circle of radius 3: 16 (dx, dy) offsets in clockwise order
#: starting from the top, exactly the layout used by the original FAST paper
#: and by the 7x7 hardware window.
FAST_CIRCLE_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)


def _circular_arc_mask(flags: np.ndarray, arc_length: int) -> np.ndarray:
    """Return a boolean map of pixels with >= ``arc_length`` contiguous True flags.

    ``flags`` has shape ``(16, H, W)`` where axis 0 indexes the circle
    positions.  Wrap-around arcs are handled by tiling the circle twice.
    """
    doubled = np.concatenate([flags, flags[: arc_length - 1]], axis=0).astype(np.int16)
    # run[i] = number of consecutive True ending at position i
    run = np.zeros_like(doubled)
    run[0] = doubled[0]
    for i in range(1, doubled.shape[0]):
        run[i] = doubled[i] * (run[i - 1] + 1)
    return (run >= arc_length).any(axis=0)


def segment_arc_network(planes: np.ndarray, arc_length: int) -> np.ndarray:
    """Resolve the segment test with an AND/OR network over 16 ring planes.

    ``planes[i]`` holds the flags of circle position ``i`` (the
    :data:`FAST_CIRCLE_OFFSETS` order) for any number of pixels, as bool or
    as bit-packed integers, 8 pixels per uint8 byte.  Runs of doubling length
    are ANDed from neighbouring start positions (``run_2m[i] = run_m[i] &
    run_m[i + m]``, indices mod 16), the binary decomposition of
    ``arc_length`` chains those runs into one run of exactly ``arc_length``
    from each start, and the 16 starts are ORed.  The result, one plane,
    flags every pixel with a wrap-around run of at least ``arc_length`` set
    flags, the check :func:`_circular_arc_mask` makes with a run counter and
    the hardware FAST Detection module makes combinationally on its 7x7
    window.  Every operation is bitwise, so packed planes resolve 8 pixels
    per byte.
    """
    if not 1 <= arc_length <= 16:
        raise FeatureError("arc_length must be in [1, 16]")
    if planes.shape[0] != 16:
        raise FeatureError("segment_arc_network expects 16 ring planes on axis 0")
    runs, span = planes, 1  # runs[i]: planes i .. i + span - 1 all set
    arc, covered = None, 0  # arc[i]: planes i .. i + covered - 1 all set
    while True:
        if arc_length & span:
            arc = runs if arc is None else _and_rotated(arc, runs, covered)
            covered += span
        if 2 * span > arc_length:
            return np.bitwise_or.reduce(arc, axis=0)
        runs = _and_rotated(runs, runs, span)
        span *= 2


def _and_rotated(planes: np.ndarray, other: np.ndarray, shift: int) -> np.ndarray:
    """``planes[i] & other[(i + shift) % 16]`` for all 16 ``i``, uncopied."""
    out = np.empty_like(planes)
    np.bitwise_and(planes[: 16 - shift], other[shift:], out=out[: 16 - shift])
    np.bitwise_and(planes[16 - shift :], other[:shift], out=out[16 - shift :])
    return out


def fast_corner_mask(image: GrayImage, config: FastConfig | None = None) -> np.ndarray:
    """Return a boolean mask of FAST corner responses for the whole image.

    Pixels closer than ``config.border`` to any image edge are never corners,
    matching the hardware which only evaluates windows fully inside the image
    (and leaves a margin wide enough for the descriptor patch).
    """
    cfg = config or FastConfig()
    h, w = image.shape
    if h < 2 * cfg.border + 1 or w < 2 * cfg.border + 1:
        return np.zeros((h, w), dtype=bool)
    pixels = image.pixels.astype(np.int16)
    center = pixels
    brighter = np.zeros((16, h, w), dtype=bool)
    darker = np.zeros((16, h, w), dtype=bool)
    for idx, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
        shifted = np.roll(np.roll(pixels, -dy, axis=0), -dx, axis=1)
        brighter[idx] = shifted > center + cfg.threshold
        darker[idx] = shifted < center - cfg.threshold
    corner = _circular_arc_mask(brighter, cfg.arc_length) | _circular_arc_mask(
        darker, cfg.arc_length
    )
    # mask out the border where the rolled comparisons wrap around
    valid = np.zeros((h, w), dtype=bool)
    b = cfg.border
    valid[b : h - b, b : w - b] = True
    return corner & valid
