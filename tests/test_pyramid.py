"""repro.pyramid: the provider seam, input validation and level geometry.

The extractor builds every frame's pyramid through one
:class:`~repro.pyramid.PyramidProvider`; these tests pin down its
``acquire``/``release`` seam, the up-front rejection of images too small
for the deepest level, and the level geometry it shares with
:class:`~repro.image.ImagePyramid`.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ImageError, ReproError
from repro.features import OrbExtractor
from repro.image import GrayImage, ImagePyramid, pyramid_level_shapes, random_blocks
from repro.pyramid import PyramidProvider, minimum_level_size


@pytest.fixture(scope="module")
def pyramid_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=3),
        max_features=150,
    )


class TestPyramidProvider:
    def test_extractor_builds_through_acquire_and_release(self, pyramid_config):
        extractor = OrbExtractor(pyramid_config)
        provider = extractor.pyramid_provider
        assert isinstance(provider, PyramidProvider)
        calls = []
        acquire, release = provider.acquire, provider.release
        provider.acquire = lambda image: calls.append("acquire") or acquire(image)
        provider.release = lambda pyramid: calls.append("release") or release(pyramid)
        extractor.extract(random_blocks(120, 160, block=9, seed=0))
        assert calls == ["acquire", "release"]

    def test_acquired_levels_match_image_pyramid(self, pyramid_config):
        image = random_blocks(120, 160, block=9, seed=1)
        pyramid = PyramidProvider(pyramid_config).acquire(image)
        expected = ImagePyramid(image, pyramid_config.pyramid)
        assert [level.image.shape for level in pyramid] == pyramid_level_shapes(
            120, 160, pyramid_config.pyramid
        )
        for level, reference in zip(pyramid, expected):
            assert np.array_equal(level.image.pixels, reference.image.pixels)
            assert level.scale == reference.scale


class TestPyramidInputValidation:
    def test_rejects_non_uint8_array(self):
        with pytest.raises(ImageError, match="uint8"):
            ImagePyramid(np.zeros((64, 64), dtype=np.float64))

    def test_accepts_uint8_array(self):
        pyramid = ImagePyramid(np.full((64, 64), 9, dtype=np.uint8))
        assert pyramid.level(0).image.shape == (64, 64)

    def test_rejects_non_image_types(self):
        with pytest.raises(ImageError, match="GrayImage"):
            ImagePyramid([[1, 2], [3, 4]])

    def test_extractor_rejects_too_small_image(self, pyramid_config):
        tiny = GrayImage(np.zeros((40, 40), dtype=np.uint8))
        with pytest.raises(ReproError, match="deepest"):
            OrbExtractor(pyramid_config).extract(tiny, frame_id=0)

    def test_minimum_level_size_covers_patch_and_border(self, pyramid_config):
        window = minimum_level_size(pyramid_config)
        assert window == 2 * pyramid_config.fast.border + 1
        deepest = pyramid_level_shapes(120, 160, pyramid_config.pyramid)[-1]
        assert min(deepest) >= window  # the test workload itself is legal
