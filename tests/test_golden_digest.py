"""Golden digests: the absolute extraction output on VGA and QVGA frames.

The engine parity suites compare engines with each other, so a detection
change that moves the reference-derived kernels of every engine alike would
pass them all.  These digests pin the output itself: the sha256 of
``feature_records()`` plus ``vars(profile)`` of two seeded fr1/desk 640x480
frames and of two seeded fr1/xyz 320x240 frames, for the ``vectorized`` and
``hwexact`` engines in both workflows.  The heap keeps about 12% of the
first VGA frame's candidates and about 58% of the first QVGA frame's, so
extraction that describes only the kept features is pinned at both ends.
A digest moves only when extraction output moves; a change meant to be
bit-identical must leave every one of them as it is.
"""

import hashlib

import pytest

from repro.config import ExtractorConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.features import OrbExtractor

#: sha256 over both fr1/desk VGA frames' ``feature_records()`` and
#: ``vars(profile)``, keyed by ``(engine, rescheduled_workflow)``.
GOLDEN_DIGESTS = {
    ("vectorized", True): (
        "279816b44114e42f35e2f68b761d5b9d1d5cb7e2dea29d8a1e132827e123e605"
    ),
    ("vectorized", False): (
        "9c1a79e3f4157605695d3f3c23a858f32c9f850d959f67fa8f097285e13cb718"
    ),
    ("hwexact", True): (
        "0daf33f0234efb45be70be19b6dab72e290eb6834eb2c0c8e646f3245d558c0c"
    ),
    ("hwexact", False): (
        "9ef2e7519ddb132d0cfe3b4b2441456ac39d0a46444c6e41aae6b50761d40c5c"
    ),
}

#: The same digests over two fr1/xyz QVGA frames.
QVGA_GOLDEN_DIGESTS = {
    ("vectorized", True): (
        "6180127b57a148dc81a41e6689d3d2e1145c3f4a76b4ae2b3b6b149070fcdf32"
    ),
    ("vectorized", False): (
        "18957c22ef858aa701013d653e1657a598b402e0a910d182d50f6e11c698fcdf"
    ),
    ("hwexact", True): (
        "67dc98871470e1477fa42f313c4aa8ed9c8c7a5731f42adf45d7871432d0459d"
    ),
    ("hwexact", False): (
        "776c8d3812d7a70fe652f3fa72556e22c9ed549bcd9d795bbc2b87bda9a951dc"
    ),
}


def seeded_frames(name: str, width: int, height: int):
    sequence = make_sequence(
        SequenceSpec(
            name=name,
            num_frames=2,
            image_width=width,
            image_height=height,
            image_noise_std=2.0,
            depth_noise_std_m=0.005,
            seed=1,
        )
    )
    return [frame.image for frame in sequence]


@pytest.fixture(scope="module")
def desk_frames():
    return seeded_frames("fr1/desk", 640, 480)


@pytest.fixture(scope="module")
def xyz_frames():
    return seeded_frames("fr1/xyz", 320, 240)


def extraction_digest(extractor: OrbExtractor, images) -> str:
    """sha256 of each image's feature records and profile, in order."""
    digest = hashlib.sha256()
    for image in images:
        result = extractor.extract(image)
        digest.update(repr(result.feature_records()).encode())
        digest.update(repr(sorted(vars(result.profile).items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
@pytest.mark.parametrize("engine", ["vectorized", "hwexact"])
def test_extraction_matches_golden_digest(desk_frames, engine, rescheduled):
    config = ExtractorConfig(engine=engine, rescheduled_workflow=rescheduled)
    digest = extraction_digest(OrbExtractor(config), desk_frames)
    assert digest == GOLDEN_DIGESTS[(engine, rescheduled)]


@pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
@pytest.mark.parametrize("engine", ["vectorized", "hwexact"])
def test_qvga_extraction_matches_golden_digest(xyz_frames, engine, rescheduled):
    config = ExtractorConfig(engine=engine, rescheduled_workflow=rescheduled)
    digest = extraction_digest(OrbExtractor(config), xyz_frames)
    assert digest == QVGA_GOLDEN_DIGESTS[(engine, rescheduled)]
