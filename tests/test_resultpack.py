"""repro.cluster.resultpack: flat-buffer codec round-trip guarantees.

Property-style sweep: randomized frames and feature counts (empty results
and full-heap results included) packed and unpacked across every engine
pair, asserting record-level bit-identity, exact buffer sizing and the
header validation that protects ring slots from corrupt payloads.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import GrayImage, random_blocks
from repro.cluster.resultpack import (
    RESULT_PACK_MAGIC,
    max_packed_nbytes,
    pack_into,
    packed_nbytes,
    unpack_result,
)

ENGINES = ["reference", "vectorized", "hwexact"]


def pack_result(result):
    """Pack ``result`` into a fresh ``bytes`` blob of its exact size."""
    buffer = np.empty(packed_nbytes(result), dtype=np.uint8)
    used = pack_into(result, buffer)
    return buffer[:used].tobytes()


def _config(engine="vectorized", max_features=150):
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=3),
        max_features=max_features,
        engine=engine,
    )


def _assert_bit_identical(original, rebuilt):
    assert rebuilt.feature_records() == original.feature_records()
    assert rebuilt.profile == original.profile
    left = original.feature_arrays()
    right = rebuilt.feature_arrays()
    for field in (
        "levels",
        "xs",
        "ys",
        "orientation_bins",
        "scores",
        "orientation_rads",
        "x0",
        "y0",
        "descriptors",
    ):
        assert np.array_equal(
            getattr(left, field), getattr(right, field), equal_nan=True
        ), field


class TestRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_randomized_frames_round_trip_bit_identical(self, engine):
        """Property sweep: varied textures and retention caps per engine."""
        extractor_cache = {}
        rng = np.random.default_rng(1234)
        for trial in range(6):
            max_features = int(rng.choice([5, 40, 150]))
            key = (engine, max_features)
            if key not in extractor_cache:
                extractor_cache[key] = OrbExtractor(
                    _config(engine, max_features=max_features)
                )
            block = int(rng.choice([5, 9, 15]))
            frame = random_blocks(120, 160, block=block, seed=trial)
            result = extractor_cache[key].extract(frame)
            rebuilt = unpack_result(pack_result(result))
            _assert_bit_identical(result, rebuilt)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_result_round_trips(self, engine):
        flat = GrayImage(np.full((120, 160), 128, dtype=np.uint8))
        result = OrbExtractor(_config(engine)).extract(flat)
        assert result.feature_count == 0
        rebuilt = unpack_result(pack_result(result))
        _assert_bit_identical(result, rebuilt)

    def test_full_heap_result_fills_worst_case_slot(self):
        """A result at heap capacity packs to exactly ``max_packed_nbytes``."""
        config = _config(max_features=20)
        frame = random_blocks(120, 160, block=5, seed=7)
        result = OrbExtractor(config).extract(frame)
        assert result.feature_count == config.max_features
        blob = pack_result(result)
        assert len(blob) == packed_nbytes(result) == max_packed_nbytes(config)
        _assert_bit_identical(result, unpack_result(blob))

    def test_zero_copy_unpack_views_the_buffer(self):
        result = OrbExtractor(_config()).extract(
            random_blocks(120, 160, block=9, seed=3)
        )
        buffer = np.frombuffer(pack_result(result), dtype=np.uint8)
        rebuilt = unpack_result(buffer, copy=False)
        assert rebuilt.feature_arrays().levels.base is not None
        _assert_bit_identical(result, rebuilt)


class TestPackInto:
    def test_oversized_buffer_reports_exact_bytes_used(self):
        result = OrbExtractor(_config()).extract(
            random_blocks(120, 160, block=9, seed=5)
        )
        buffer = np.zeros(packed_nbytes(result) + 4096, dtype=np.uint8)
        used = pack_into(result, buffer)
        assert used == packed_nbytes(result)
        _assert_bit_identical(result, unpack_result(buffer[:used]))

    def test_undersized_buffer_refused_not_truncated(self):
        result = OrbExtractor(_config()).extract(
            random_blocks(120, 160, block=9, seed=5)
        )
        buffer = np.zeros(packed_nbytes(result) - 1, dtype=np.uint8)
        with pytest.raises(ReproError, match="exceeds"):
            pack_into(result, buffer)
        assert not buffer.any()  # nothing was written before the size check


class TestValidation:
    def test_bad_magic_rejected(self):
        result = OrbExtractor(_config()).extract(
            random_blocks(120, 160, block=9, seed=1)
        )
        blob = np.frombuffer(pack_result(result), dtype=np.uint8).copy()
        blob[:8] = 0
        with pytest.raises(ReproError, match="magic"):
            unpack_result(blob)

    def test_truncated_payload_rejected(self):
        result = OrbExtractor(_config()).extract(
            random_blocks(120, 160, block=9, seed=1)
        )
        blob = np.frombuffer(pack_result(result), dtype=np.uint8)
        with pytest.raises(ReproError, match="truncated"):
            unpack_result(blob[: len(blob) // 2])

    def test_short_header_rejected(self):
        with pytest.raises(ReproError, match="header"):
            unpack_result(np.zeros(8, dtype=np.uint8))

    def test_magic_spells_the_format_tag(self):
        assert RESULT_PACK_MAGIC.to_bytes(4, "big") == b"RPK1"
