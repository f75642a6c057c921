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
#: popcount, int16 widened popcount and int16 block.
_TILE_BYTES_PER_CELL = 8 + 1 + 2 + 2

#: numpy ufunc buffer size, in elements, while a tile is computed.  Under
#: the default 8,192 numpy runs a broadcast ``(h, 1) ^ (M,)`` XOR through
#: its buffered loop whenever a row has at most 8,192 / 3 elements, about
#: 3x slower per cell; a tiny buffer keeps every M on the fast loop.  The
#: tile needs no ufunc casts (``copyto`` widens outside the ufunc buffers),
#: and the caller's size is restored before each tile is yielded.
_TILE_BUFSIZE = 16


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
    return max(1, TILE_BUDGET_BYTES // per_row)


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
    num_train = train_columns.shape[1]
    height = max(1, min(query_words.shape[0], tile_rows(num_train)))
    xor = np.empty((height, num_train), dtype=np.uint64)
    counts = np.empty((height, num_train), dtype=np.uint8)
    wide = np.empty((height, num_train), dtype=np.int16)
    block = np.empty((height, num_train), dtype=np.int16)
    for start in range(0, query_words.shape[0], height):
        rows = query_words[start : start + height]
        n = rows.shape[0]
        saved_bufsize = np.setbufsize(_TILE_BUFSIZE)
        try:
            _fill_tile(rows, train_columns, block[:n], xor[:n], counts[:n], wide[:n])
        finally:
            np.setbufsize(saved_bufsize)
        yield start, block[:n]


def _fill_tile(
    rows: np.ndarray,
    train_columns: np.ndarray,
    tile: np.ndarray,
    xor: np.ndarray,
    counts: np.ndarray,
    wide: np.ndarray,
) -> None:
    """Write the distances of query ``rows`` to every train column into ``tile``.

    Each word's uint8 popcounts are widened by ``copyto`` and added into
    the int16 ``tile``: every ufunc call stays within one dtype.
    """
    for word in range(train_columns.shape[0]):
        np.bitwise_xor(rows[:, word, np.newaxis], train_columns[word], out=xor)
        np.bitwise_count(xor, out=counts)
        if word == 0:
            np.copyto(tile, counts)
        else:
            np.copyto(wide, counts)
            np.add(tile, wide, out=tile)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Return the Hamming distance between two packed descriptors."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DescriptorError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    words_a = _descriptor_words(a.reshape(1, -1))
    words_b = _descriptor_words(b.reshape(1, -1))
    return int(np.bitwise_count(words_a ^ words_b).sum())
