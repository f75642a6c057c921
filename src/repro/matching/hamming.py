"""Hamming distance between binary descriptors.

BRIEF descriptors are binary strings, so descriptor distance is the Hamming
distance (number of differing bits).  The hardware Distance Computing module
realises this with XOR followed by a popcount adder tree.  The software twin
views every descriptor as 64-bit words (four for a 256-bit descriptor),
XORs word against word and adds up ``np.bitwise_count`` of the words: one
popcount per 64 bits, the adder tree's leaves taken eight bytes at a time.

Distance sets are computed one tile of query rows at a time by
:func:`distance_tiles`, the single distance kernel of :mod:`repro.matching`.
A tile is a small ``int16`` block sized to stay in cache, so the matcher can
reduce it to best, second-best and argmin without the ``N x M`` matrix ever
existing.  ``docs/matching.md`` describes the tile budget and the contract
that keeps the matches bit-identical to a full-matrix search.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import DescriptorError

#: Longest descriptor the ``int16`` tile accumulator can hold without
#: overflow: 4095 bytes is 32,760 bits, below ``np.iinfo(np.int16).max``.
MAX_DESCRIPTOR_BYTES = 4095

#: Working-set budget of one tile in bytes: a tile's scratch (the uint64
#: XOR words, their uint8 popcounts and the int16 distance block) stays
#: well inside a core's L2 cache.  On a 2 MiB-L2 Xeon, 1 MiB tiles (9-47
#: rows at 2,000-10,000 train descriptors) matched 1024 queries faster than
#: 2-8 MiB tiles, whose taller blocks spill.
TILE_BUDGET_BYTES = 1 << 20

#: Scratch bytes per (query, train) cell of a tile: uint64 XOR, uint8
#: popcount and int16 accumulator.
_TILE_BYTES_PER_CELL = 8 + 1 + 2

#: Upper bound on the rows of one tile, so a row index within a tile fits in
#: 15 bits (the matcher packs it beside a distance into one int32 key).
_MAX_TILE_ROWS = 1 << 15


def as_descriptor_matrix(descriptors: np.ndarray, name: str) -> np.ndarray:
    """Return ``descriptors`` as a 2-D ``(N, bytes)`` uint8 matrix.

    A 1-D array is one descriptor; any other rank is rejected.
    """
    matrix = np.asarray(descriptors, dtype=np.uint8)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise DescriptorError(f"{name} must be a 1-D or 2-D byte array, got {matrix.ndim}-D")
    return matrix


def _descriptor_words(matrix: np.ndarray) -> np.ndarray:
    """View an ``(N, B)`` uint8 matrix as ``(N, ceil(B / 8))`` uint64 words.

    Descriptors whose byte width is not a multiple of 8 (or is 0) are
    zero-padded to whole words; zero bytes XOR to zero, so padding never
    changes a distance.
    """
    num_rows, width = matrix.shape
    padded_width = max(8, -(-width // 8) * 8)
    if padded_width == width:
        padded = np.ascontiguousarray(matrix)
    else:
        padded = np.zeros((num_rows, padded_width), dtype=np.uint8)
        padded[:, :width] = matrix
    return padded.view(np.uint64)


def tile_rows(num_train: int) -> int:
    """Query rows per tile against ``num_train`` train descriptors."""
    per_row = max(num_train, 1) * _TILE_BYTES_PER_CELL
    return int(min(_MAX_TILE_ROWS, max(1, TILE_BUDGET_BYTES // per_row)))


def distance_tiles(
    query_descriptors: np.ndarray, train_descriptors: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield the Hamming distances between two descriptor sets tile by tile.

    Each item is ``(start, block)`` where ``block`` is an ``(h, M)`` int16
    array holding the distances of query rows ``start .. start + h`` to all
    ``M`` train rows.  ``block`` is a scratch buffer that the next tile
    overwrites: reduce or copy it before advancing the iterator.
    """
    query = as_descriptor_matrix(query_descriptors, "query descriptors")
    train = as_descriptor_matrix(train_descriptors, "train descriptors")
    if query.shape[1] != train.shape[1]:
        raise DescriptorError(
            f"descriptor byte lengths differ: {query.shape[1]} vs {train.shape[1]}"
        )
    if query.shape[1] > MAX_DESCRIPTOR_BYTES:
        raise DescriptorError(
            f"descriptors of {query.shape[1]} bytes exceed the "
            f"{MAX_DESCRIPTOR_BYTES}-byte limit of the int16 accumulator"
        )
    query_words = _descriptor_words(query)
    # word-major train layout: the word-w column of every train descriptor
    # is one contiguous row, XORed against a broadcast query column
    train_columns = np.ascontiguousarray(_descriptor_words(train).T)
    num_words, num_train = train_columns.shape
    height = max(1, min(query_words.shape[0], tile_rows(num_train)))
    xor = np.empty((height, num_train), dtype=np.uint64)
    counts = np.empty((height, num_train), dtype=np.uint8)
    block = np.empty((height, num_train), dtype=np.int16)
    for start in range(0, query_words.shape[0], height):
        rows = query_words[start : start + height]
        tile = block[: rows.shape[0]]
        tile_xor = xor[: rows.shape[0]]
        tile_counts = counts[: rows.shape[0]]
        for word in range(num_words):
            np.bitwise_xor(rows[:, word, np.newaxis], train_columns[word], out=tile_xor)
            if word == 0:
                np.bitwise_count(tile_xor, out=tile)
            else:
                np.bitwise_count(tile_xor, out=tile_counts)
                tile += tile_counts
        yield start, tile


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Return the Hamming distance between two packed descriptors."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DescriptorError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    words_a = _descriptor_words(a.reshape(1, -1))
    words_b = _descriptor_words(b.reshape(1, -1))
    return int(np.bitwise_count(words_a ^ words_b).sum())


def hamming_distance_matrix(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """Return the ``(N, M)`` Hamming distance matrix between two descriptor sets.

    ``descriptors_a`` has shape ``(N, B)`` and ``descriptors_b`` ``(M, B)``
    where ``B`` is the descriptor byte length (32 for 256-bit descriptors).
    The matcher never builds this matrix; it is for callers that need every
    distance.
    """
    a = as_descriptor_matrix(descriptors_a, "descriptors_a")
    b = as_descriptor_matrix(descriptors_b, "descriptors_b")
    distances = np.empty((a.shape[0], b.shape[0]), dtype=np.int32)
    for start, block in distance_tiles(a, b):
        distances[start : start + block.shape[0]] = block
    return distances


def popcount_bytes(values: np.ndarray) -> np.ndarray:
    """Return the popcount of every byte in ``values`` (same shape)."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint8))


def normalized_hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Return the Hamming distance as a fraction of descriptor length in bits."""
    a = np.asarray(a, dtype=np.uint8)
    total_bits = a.size * 8
    if total_bits == 0:
        raise DescriptorError("descriptors must not be empty")
    return hamming_distance(a, b) / total_bits
