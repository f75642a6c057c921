"""Image pyramid construction.

The eSLAM accelerator contains an *Image Resizing* module that generates a
4-layer pyramid by nearest-neighbour downsampling: while the ORB Extractor is
processing layer ``k``, the resizer produces layer ``k+1`` from layer ``k``.
This module provides the same functional behaviour in software; the hardware
cycle model in :mod:`repro.hw` reuses :func:`nearest_neighbor_resize` for its
functional output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..config import PyramidConfig
from ..errors import ImageError
from .image import GrayImage


def resize_dimensions(height: int, width: int, scale: float) -> Tuple[int, int]:
    """Destination ``(height, width)`` of one nearest-neighbour resize step.

    The single definition of the level-size rounding rule, shared by the
    software pyramid and the hardware Image Resizing model (:mod:`repro.hw.resizer`), so level geometry cannot
    drift between the software and hardware paths.
    """
    if scale < 1.0:
        raise ImageError("scale must be >= 1.0 for downsampling")
    return max(1, int(round(height / scale))), max(1, int(round(width / scale)))


def resize_source_indices(dst_size: int, src_size: int, scale: float) -> np.ndarray:
    """Source index of every destination sample along one axis.

    Destination sample ``i`` reads source sample ``floor(i * scale)``
    clamped to the source extent — the hardware resizer's sampling grid.
    """
    return np.minimum((np.arange(dst_size) * scale).astype(np.int64), src_size - 1)


def resize_nearest_into(src: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """Nearest-neighbour downsample ``src`` into the preallocated ``out``.

    ``out`` must have exactly the shape :func:`resize_dimensions` predicts
    for ``src`` and ``scale``.
    """
    src_h, src_w = src.shape
    if out.shape != resize_dimensions(src_h, src_w, scale):
        raise ImageError(
            f"resize output shape {out.shape} does not match the "
            f"{resize_dimensions(src_h, src_w, scale)} this scale produces"
        )
    dst_h, dst_w = out.shape
    src_rows = resize_source_indices(dst_h, src_h, scale)
    src_cols = resize_source_indices(dst_w, src_w, scale)
    # two plain takes (whole rows, then columns) beat one 2-D fancy index
    np.take(np.take(src, src_rows, axis=0), src_cols, axis=1, out=out)
    return out


def pyramid_level_shapes(
    height: int, width: int, config: PyramidConfig | None = None
) -> List[Tuple[int, int]]:
    """Shape of every pyramid level for a ``height`` x ``width`` base image.

    Pure arithmetic (no pixels touched): applies :func:`resize_dimensions`
    level by level, so the input check and the hardware model can reason
    about level sizes without building anything.
    """
    cfg = config or PyramidConfig()
    shapes = [(int(height), int(width))]
    for _ in range(1, cfg.num_levels):
        shapes.append(resize_dimensions(*shapes[-1], cfg.scale_factor))
    return shapes


def validate_pyramid_base(
    base: object, config: PyramidConfig | None = None, min_level_size: int = 1
) -> GrayImage:
    """Validate a pyramid base image; returns it as a :class:`GrayImage`.

    Rejects non-``uint8`` raw arrays (a float array silently rescaled by
    :class:`GrayImage` is almost always a caller bug on the extraction hot
    path) and images whose **deepest** level would be smaller than
    ``min_level_size`` (the descriptor patch / FAST border window), raising
    a clear :class:`~repro.errors.ImageError` instead of letting the
    downstream stages fail with shape errors.
    """
    if isinstance(base, GrayImage):
        image = base
    elif isinstance(base, np.ndarray):
        if base.dtype != np.uint8:
            raise ImageError(
                f"pyramid base must be uint8 pixels, got dtype {base.dtype}; "
                "wrap explicit conversions in GrayImage first"
            )
        image = GrayImage(base)
    else:
        raise ImageError(
            f"pyramid base must be a GrayImage or uint8 array, got {type(base).__name__}"
        )
    if min_level_size > 1:
        deepest = pyramid_level_shapes(image.height, image.width, config)[-1]
        if min(deepest) < min_level_size:
            raise ImageError(
                f"image of {image.height}x{image.width} pixels shrinks to "
                f"{deepest[0]}x{deepest[1]} at the deepest pyramid level, smaller "
                f"than the {min_level_size}x{min_level_size} patch/border window "
                "the extractor needs; use a larger image or fewer pyramid levels"
            )
    return image


def nearest_neighbor_resize(image: GrayImage, scale: float) -> GrayImage:
    """Downsample ``image`` by ``scale`` using nearest-neighbour sampling.

    ``scale`` is the ratio between source and destination size (a scale of
    1.2 shrinks both dimensions by 1/1.2).  The sampling grid matches the
    hardware resizer: destination pixel ``(i, j)`` reads source pixel
    ``(floor(i*scale), floor(j*scale))``; rounding and sampling both live in
    the shared helpers above.
    """
    out = np.empty(resize_dimensions(image.height, image.width, scale), dtype=np.uint8)
    resize_nearest_into(image.pixels, scale, out)
    return GrayImage(out)


@dataclass(frozen=True)
class PyramidLevel:
    """A single level of the pyramid."""

    level: int
    scale: float
    image: GrayImage

    def to_level0(self, x: float, y: float) -> Tuple[float, float]:
        """Map coordinates from this level back to level-0 pixel coordinates."""
        return x * self.scale, y * self.scale


class ImagePyramid:
    """A multi-scale pyramid built by successive nearest-neighbour resizing.

    Parameters
    ----------
    base:
        The level-0 image (a :class:`GrayImage`, or a raw ``uint8`` array;
        other dtypes are rejected — see :func:`validate_pyramid_base`).
    config:
        Number of levels and scale factor between consecutive levels.
    min_level_size:
        Smallest side the deepest level may have; images that shrink below
        it raise :class:`~repro.errors.ImageError` up front instead of
        failing with shape errors downstream.
    """

    def __init__(
        self,
        base: GrayImage,
        config: PyramidConfig | None = None,
        min_level_size: int = 1,
    ) -> None:
        # num_levels/scale_factor validity is PyramidConfig.__post_init__'s job
        self.config = config or PyramidConfig()
        base = validate_pyramid_base(base, self.config, min_level_size)
        levels: List[PyramidLevel] = [PyramidLevel(0, 1.0, base)]
        current = base
        for level in range(1, self.config.num_levels):
            current = nearest_neighbor_resize(current, self.config.scale_factor)
            levels.append(
                PyramidLevel(level, self.config.level_scale(level), current)
            )
        self._levels = levels

    # -- access ----------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def level(self, index: int) -> PyramidLevel:
        if index < 0 or index >= self.num_levels:
            raise ImageError(f"level {index} outside [0, {self.num_levels})")
        return self._levels[index]

    def __iter__(self) -> Iterator[PyramidLevel]:
        return iter(self._levels)

    def __len__(self) -> int:
        return self.num_levels

    @property
    def levels(self) -> Sequence[PyramidLevel]:
        return tuple(self._levels)

    # -- statistics used by the runtime models -----------------------------
    def total_pixels(self) -> int:
        """Total number of pixels across all levels.

        The paper's discussion section notes the 4-layer pyramid processes
        roughly 48% more pixels than a 2-layer design; this helper provides
        the pixel counts used by that comparison and by the cycle model.
        """
        return sum(lvl.image.num_pixels for lvl in self._levels)

    def pixel_counts(self) -> List[int]:
        """Per-level pixel counts, level 0 first."""
        return [lvl.image.num_pixels for lvl in self._levels]


def pyramid_pixel_ratio(levels_a: int, levels_b: int, scale: float = 1.2) -> float:
    """Ratio of total pixels processed by an ``levels_a``-layer pyramid vs ``levels_b``.

    Pure geometric-series helper used by the discussion ablation benchmark
    (eSLAM's 4 layers vs the 2 layers of the prior FPGA ORB extractor [4]).
    """
    if levels_a < 1 or levels_b < 1:
        raise ImageError("pyramids must have at least one level")

    def total(levels: int) -> float:
        return sum((1.0 / scale**2) ** k for k in range(levels))

    return total(levels_a) / total(levels_b)
