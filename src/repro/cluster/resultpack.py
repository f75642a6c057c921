"""Flat-buffer codec for :class:`~repro.features.ExtractionResult`.

The cluster's frames travel to the workers through shared-memory ring
slots; this module is the codec for the return path.  An extraction
result already holds its retained set as one
:class:`~repro.features.FeatureArrays`, so packing copies those columns
and the profile counters into ONE flat, contiguous ``uint8`` buffer whose
layout is plain arrays end to end.  A worker writes it straight into a
:class:`~repro.cluster.result_ring.SharedResultRing` slot, and the
collector rebuilds a bit-identical result with a single memcpy (or none,
for short-lived consumers) instead of unpickling it from a
``multiprocessing`` queue.

Layout (all sections 8-byte aligned, little-endian ``int64``/``float64``):

====================  =======================================================
section               contents
====================  =======================================================
header                ``int64[12]``: magic, feature count ``N``, descriptor
                      width ``D``, level count ``L``, workflow flag, the six
                      scalar :class:`~repro.features.ExtractionProfile`
                      counters, reserved word
per-level counts      ``int64[L]`` (``profile.per_level_keypoints``)
int64 columns         ``levels``, ``xs``, ``ys``, ``orientation_bins``
                      (``-1`` = not computed), each ``int64[N]``
float64 columns       ``scores``, ``orientation_rads`` (``NaN`` = not
                      computed), ``x0``, ``y0``, each ``float64[N]``
descriptors           ``uint8[N * D]`` (row-major ``(N, D)`` matrix)
====================  =======================================================

``pack_into`` + ``unpack_result`` round-trip to a bit-identical result
(``tests/test_resultpack.py`` asserts record-level equality across
randomized feature counts and every engine pair).  Neither side builds
per-feature objects.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ReproError
from ..features import ExtractionResult, FeatureArrays
from ..features.orb import ExtractionProfile

#: Format tag checked on unpack ("RPK1" as an integer).
RESULT_PACK_MAGIC = 0x52504B31

_HEADER_WORDS = 12
(
    _H_MAGIC,
    _H_COUNT,
    _H_DESC_WIDTH,
    _H_NUM_LEVELS,
    _H_WORKFLOW,
    _H_PIXELS,
    _H_DETECTED,
    _H_AFTER_NMS,
    _H_DESCRIBED,
    _H_RETAINED,
    _H_HEAP_CMP,
    _H_RESERVED,
) = range(_HEADER_WORDS)

_WORKFLOWS = ("original", "rescheduled")

#: int64 columns packed per feature (levels, xs, ys, orientation_bins).
_INT_COLUMNS = 4
#: float64 columns packed per feature (scores, rads, x0, y0).
_FLOAT_COLUMNS = 4


def _align8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def packed_nbytes(result: ExtractionResult) -> int:
    """Exact buffer size :func:`pack_into` needs for ``result``."""
    arrays = result.feature_arrays()
    count = len(arrays)
    width = arrays.descriptors.shape[1] if count else 32
    return packed_nbytes_for(
        count, width, len(result.profile.per_level_keypoints)
    )


def packed_nbytes_for(count: int, descriptor_width: int, num_levels: int) -> int:
    """Buffer size for ``count`` features of ``descriptor_width`` bytes."""
    return (
        _HEADER_WORDS * 8
        + num_levels * 8
        + count * (_INT_COLUMNS + _FLOAT_COLUMNS) * 8
        + _align8(count * descriptor_width)
    )


def max_packed_nbytes(config) -> int:
    """Worst-case packed size for results of an extractor ``config``.

    Sizes shared result-ring slots: the heap retains at most
    ``config.max_features`` features of 32 descriptor bytes each, and the
    profile records one per-level count per pyramid level.
    """
    return packed_nbytes_for(
        config.max_features, 32, config.pyramid.num_levels
    )


def pack_into(result: ExtractionResult, buffer: Union[np.ndarray, memoryview]) -> int:
    """Pack ``result`` into ``buffer`` (1-D writable uint8); returns bytes used.

    Raises :class:`~repro.errors.ReproError` when the buffer is too small —
    callers holding a fixed-size ring slot fall back to the pickle
    transport instead of corrupting the slot.
    """
    view = np.frombuffer(buffer, dtype=np.uint8) if isinstance(buffer, memoryview) else buffer
    if view.ndim != 1 or view.dtype != np.uint8:
        raise ReproError("result pack buffers are 1-D uint8 arrays")
    profile = result.profile
    if profile.workflow not in _WORKFLOWS:
        raise ReproError(f"unknown extraction workflow {profile.workflow!r}")
    arrays = result.feature_arrays()
    count = len(arrays)
    width = int(arrays.descriptors.shape[1]) if count else 32
    num_levels = len(profile.per_level_keypoints)
    total = packed_nbytes_for(count, width, num_levels)
    if total > view.size:
        raise ReproError(
            f"packed result of {total} bytes exceeds the {view.size}-byte buffer"
        )

    header = np.zeros(_HEADER_WORDS, dtype=np.int64)
    header[_H_MAGIC] = RESULT_PACK_MAGIC
    header[_H_COUNT] = count
    header[_H_DESC_WIDTH] = width
    header[_H_NUM_LEVELS] = num_levels
    header[_H_WORKFLOW] = _WORKFLOWS.index(profile.workflow)
    header[_H_PIXELS] = profile.pixels_processed
    header[_H_DETECTED] = profile.keypoints_detected
    header[_H_AFTER_NMS] = profile.keypoints_after_nms
    header[_H_DESCRIBED] = profile.descriptors_computed
    header[_H_RETAINED] = profile.features_retained
    header[_H_HEAP_CMP] = profile.heap_comparisons

    offset = 0

    def put(column: np.ndarray) -> None:
        nonlocal offset
        raw = np.ascontiguousarray(column).view(np.uint8).reshape(-1)
        view[offset : offset + raw.size] = raw
        offset = _align8(offset + raw.size)

    put(header)
    put(np.asarray(profile.per_level_keypoints, dtype=np.int64))
    put(arrays.levels.astype(np.int64, copy=False))
    put(arrays.xs.astype(np.int64, copy=False))
    put(arrays.ys.astype(np.int64, copy=False))
    put(arrays.orientation_bins.astype(np.int64, copy=False))
    put(arrays.scores.astype(np.float64, copy=False))
    put(arrays.orientation_rads.astype(np.float64, copy=False))
    put(arrays.x0.astype(np.float64, copy=False))
    put(arrays.y0.astype(np.float64, copy=False))
    put(arrays.descriptors.astype(np.uint8, copy=False))
    assert offset == total
    return total


def unpack_result(
    buffer: Union[bytes, np.ndarray, memoryview], copy: bool = True
) -> ExtractionResult:
    """Rebuild the packed result; bit-identical to the original.

    With ``copy=True`` (default) every column is copied out of ``buffer``
    in one pass, so the caller may recycle the buffer (free the ring slot)
    immediately.  ``copy=False`` returns zero-copy views into ``buffer``
    for short-lived consumers that finish with the result before the slot
    is reused — the caller keeps the buffer alive for the result's whole
    lifetime.
    """
    view = np.frombuffer(buffer, dtype=np.uint8) if not isinstance(buffer, np.ndarray) else buffer
    if view.ndim != 1 or view.dtype != np.uint8:
        raise ReproError("result pack buffers are 1-D uint8 arrays")
    if view.size < _HEADER_WORDS * 8:
        raise ReproError("result pack buffer shorter than its header")
    header = np.frombuffer(view[: _HEADER_WORDS * 8], dtype=np.int64)
    if int(header[_H_MAGIC]) != RESULT_PACK_MAGIC:
        raise ReproError(
            f"bad result pack magic {int(header[_H_MAGIC]):#x} "
            f"(expected {RESULT_PACK_MAGIC:#x})"
        )
    count = int(header[_H_COUNT])
    width = int(header[_H_DESC_WIDTH])
    num_levels = int(header[_H_NUM_LEVELS])
    if count < 0 or width <= 0 or num_levels < 0:
        raise ReproError("corrupt result pack header")
    total = packed_nbytes_for(count, width, num_levels)
    if total > view.size:
        raise ReproError(
            f"result pack of {total} bytes truncated to {view.size} bytes"
        )
    offset = _HEADER_WORDS * 8

    def take(length: int, dtype, shape=None) -> np.ndarray:
        nonlocal offset
        nbytes = length * np.dtype(dtype).itemsize
        column = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
        if shape is not None:
            column = column.reshape(shape)
        offset = _align8(offset + nbytes)
        return column.copy() if copy else column

    per_level = take(num_levels, np.int64)
    arrays = FeatureArrays(
        levels=take(count, np.int64),
        xs=take(count, np.int64),
        ys=take(count, np.int64),
        orientation_bins=take(count, np.int64),
        scores=take(count, np.float64),
        orientation_rads=take(count, np.float64),
        x0=take(count, np.float64),
        y0=take(count, np.float64),
        descriptors=take(count * width, np.uint8, shape=(count, width)),
    )
    profile = ExtractionProfile(
        pixels_processed=int(header[_H_PIXELS]),
        keypoints_detected=int(header[_H_DETECTED]),
        keypoints_after_nms=int(header[_H_AFTER_NMS]),
        descriptors_computed=int(header[_H_DESCRIBED]),
        features_retained=int(header[_H_RETAINED]),
        heap_comparisons=int(header[_H_HEAP_CMP]),
        per_level_keypoints=[int(value) for value in per_level],
        workflow=_WORKFLOWS[int(header[_H_WORKFLOW])],
    )
    return ExtractionResult(arrays, profile)
