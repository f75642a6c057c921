"""The pyramid provider: one eager pyramid per frame for the ORB extractor.

The paper's Image Resizing module streams layer ``k+1`` while the ORB
Extractor processes layer ``k``; in software every level of the
:class:`~repro.image.ImagePyramid` is built up front, with the hardware's
nearest-neighbour sampling grid and level-size rounding.
:class:`PyramidProvider` is the seam between the
extractor and that build: ``acquire`` hands out a frame's pyramid and
``release`` returns it once extraction is done.  ``docs/pyramid.md``
describes the level geometry and the input check.
"""

from __future__ import annotations

from .config import ExtractorConfig
from .image import GrayImage, ImagePyramid


def minimum_level_size(config: ExtractorConfig) -> int:
    """Smallest side the deepest pyramid level may have under ``config``.

    The detection border and the descriptor patch both need a full window
    inside the level; a level smaller than this window can only produce
    shape errors downstream, so such images are rejected up front (see
    :func:`repro.image.validate_pyramid_base`).
    """
    border = max(config.fast.border, config.descriptor.patch_radius + 1)
    return 2 * border + 1


class PyramidProvider:
    """Builds the whole :class:`~repro.image.ImagePyramid` of each frame.

    Holds only immutable configuration, so one instance serves any
    sequence of frames.
    """

    def __init__(self, config: ExtractorConfig) -> None:
        self.config = config
        self.min_level_size = minimum_level_size(config)

    def acquire(self, image: GrayImage) -> ImagePyramid:
        """Return the pyramid over ``image``; too-small images raise
        :class:`~repro.errors.ImageError`."""
        return ImagePyramid(
            image, self.config.pyramid, min_level_size=self.min_level_size
        )

    def release(self, pyramid: ImagePyramid) -> None:
        """Return a pyramid obtained from :meth:`acquire` (nothing to free)."""
