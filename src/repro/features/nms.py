"""Non-maximum suppression of FAST keypoints.

The NMS module of the ORB Extractor removes FAST keypoints that are too
close to each other: within any 3x3 pixel patch only the keypoint with the
maximum Harris score survives.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import FeatureError


def non_maximum_suppression(
    corner_mask: np.ndarray,
    score_map: np.ndarray,
    radius: int = 1,
) -> np.ndarray:
    """Suppress non-maximal corners within a ``(2*radius+1)``-square window.

    Parameters
    ----------
    corner_mask:
        Boolean map of detected corners.
    score_map:
        Harris scores, same shape as ``corner_mask``.
    radius:
        Suppression radius; the paper's NMS uses a 3x3 patch (radius 1).

    Returns
    -------
    numpy.ndarray
        Boolean map with only locally-maximal corners set.
    """
    if corner_mask.shape != score_map.shape:
        raise FeatureError("corner mask and score map must have the same shape")
    if radius < 1:
        raise FeatureError("radius must be >= 1")
    masked_scores = np.where(corner_mask, score_map, -np.inf)
    local_max = masked_scores.copy()
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            shifted = np.full_like(masked_scores, -np.inf)
            src = masked_scores[
                max(0, -dy) : masked_scores.shape[0] - max(0, dy),
                max(0, -dx) : masked_scores.shape[1] - max(0, dx),
            ]
            shifted[
                max(0, dy) : masked_scores.shape[0] - max(0, -dy),
                max(0, dx) : masked_scores.shape[1] - max(0, -dx),
            ] = src
            local_max = np.maximum(local_max, shifted)
    # A corner survives if its score equals the local maximum.  Ties are
    # broken in favour of the raster-first pixel by strictly suppressing
    # later pixels that tie with an earlier one.
    survivors = corner_mask & (masked_scores >= local_max)
    return _break_ties_raster_order(survivors, masked_scores, radius)


def _break_ties_raster_order(
    survivors: np.ndarray, scores: np.ndarray, radius: int
) -> np.ndarray:
    """Keep only the raster-first corner among equal-score neighbours."""
    result = survivors.copy()
    ys, xs = np.nonzero(survivors)
    order = np.lexsort((xs, ys))  # raster order
    h, w = survivors.shape
    for idx in order:
        y, x = int(ys[idx]), int(xs[idx])
        if not result[y, x]:
            continue
        y0, y1 = max(0, y - radius), min(h, y + radius + 1)
        x0, x1 = max(0, x - radius), min(w, x + radius + 1)
        window = result[y0:y1, x0:x1]
        tie = (scores[y0:y1, x0:x1] == scores[y, x]) & window
        tie_ys, tie_xs = np.nonzero(tie)
        for ty, tx in zip(tie_ys + y0, tie_xs + x0):
            if (ty, tx) != (y, x):
                result[ty, tx] = False
    return result


def suppress_keypoints_sparse(
    xs: np.ndarray,
    ys: np.ndarray,
    scores: np.ndarray,
    shape: Tuple[int, int],
    radius: int = 1,
) -> np.ndarray:
    """Loop-free sparse NMS, bit-equivalent to :func:`non_maximum_suppression`.

    Takes corners as coordinate/score arrays (positions must be unique) and
    returns a boolean keep mask aligned with the inputs.  Semantics match the
    dense path exactly, including its sequential raster-order tie-breaking:

    1. a corner survives stage 1 iff its score is >= every corner score in
       its ``(2*radius+1)`` window (computed by scattering scores into a
       padded grid and gathering the window neighbours per corner — no
       ``np.roll`` full-image copies);
    2. any two stage-1 survivors within each other's window necessarily tie
       (each one's window max bounds the other's score), so the dense path's
       per-survivor tie-break loop is exactly a greedy raster-order maximal
       independent set over the conflicted survivors.  Raster order comes
       from one ``lexsort``; the greedy selection is resolved in vectorised
       rounds (a node is decided once no earlier-raster neighbour is still
       undecided), each round an array op over the few conflicted nodes.
    """
    if radius < 1:
        raise FeatureError("radius must be >= 1")
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if not (xs.shape == ys.shape == scores.shape):
        raise FeatureError("xs, ys and scores must have the same length")
    if xs.size == 0:
        return np.zeros(0, dtype=bool)
    height, width = int(shape[0]), int(shape[1])
    if (xs < 0).any() or (xs >= width).any() or (ys < 0).any() or (ys >= height).any():
        raise FeatureError(f"corner coordinates outside shape {shape}")
    # raster order via lexsort; detection-engine input arrives pre-sorted
    # (np.nonzero emits raster order), in which case the sort is skipped
    raster_key = ys * width + xs
    if raster_key.size > 1 and np.all(raster_key[1:] > raster_key[:-1]):
        order = None
        sx, sy, ss = xs, ys, scores
    else:
        order = np.lexsort((xs, ys))
        sx, sy, ss = xs[order], ys[order], scores[order]
    # window offsets, excluding the centre
    span = np.arange(-radius, radius + 1, dtype=np.int64)
    dys, dxs = np.meshgrid(span, span, indexing="ij")
    centre = (dys == 0) & (dxs == 0)
    dys, dxs = dys[~centre], dxs[~centre]
    # flat padded scatter grids; one neighbour-index matrix drives every
    # scatter/gather below
    stride = width + 2 * radius
    grid_size = (height + 2 * radius) * stride
    base = (sy + radius) * stride + (sx + radius)
    neighbour_index = base[:, None] + (dys * stride + dxs)[None, :]
    # stage 1: score >= max over window neighbours
    flat_scores = np.full(grid_size, -np.inf)
    flat_scores[base] = ss
    keep = ss >= np.take(flat_scores, neighbour_index).max(axis=1)
    # conflict detection: survivors with another survivor in their window
    survivors = np.nonzero(keep)[0]
    flat_flags = np.zeros(grid_size, dtype=bool)
    flat_flags[base[survivors]] = True
    conflicted = np.take(flat_flags, neighbour_index[survivors]).any(axis=1)
    if conflicted.any():
        clashed = survivors[conflicted]
        keep[clashed] = _greedy_raster_independent_set(
            grid_size, base[clashed], neighbour_index[clashed], dys, dxs
        )
    if order is None:
        return keep
    result = np.empty(xs.size, dtype=bool)
    result[order] = keep
    return result


def _greedy_raster_independent_set(
    grid_size: int,
    base: np.ndarray,
    neighbour_index: np.ndarray,
    dys: np.ndarray,
    dxs: np.ndarray,
) -> np.ndarray:
    """Greedy raster-order MIS over tied survivors.

    Nodes arrive in raster order with their flat positions (``base``) in a
    padded grid of ``grid_size`` cells and their window gather indices.
    Equivalent to visiting survivors sequentially and suppressing each one's
    later tied neighbours, but resolved in rounds: a node is decided as soon
    as all earlier-raster window neighbours are decided, then selected iff
    none of them was selected.  Each round decides at least the earliest
    undecided node, and chains of ties (A kills B, which resurrects C, ...)
    propagate one link per round; every round is pure array ops over the
    conflicted nodes.
    """
    count = base.size
    flat_ids = np.full(grid_size, -1, dtype=np.int64)
    flat_ids[base] = np.arange(count, dtype=np.int64)
    neighbour_ids = np.take(flat_ids, neighbour_index)
    # missing neighbours map to a sentinel slot that is never undecided/selected
    neighbour_ids = np.where(neighbour_ids < 0, count, neighbour_ids)
    earlier = (dys < 0) | ((dys == 0) & (dxs < 0))
    earlier_ids = neighbour_ids[:, earlier]
    undecided = np.ones(count + 1, dtype=bool)
    undecided[count] = False
    selected = np.zeros(count + 1, dtype=bool)
    while undecided[:count].any():
        ready = undecided[:count] & ~undecided[earlier_ids].any(axis=1)
        chosen = ready & ~selected[neighbour_ids].any(axis=1)
        selected[:count] |= chosen
        undecided[:count] &= ~ready
    return selected[:count]


def suppress_keypoints(
    points: Sequence[Tuple[int, int]],
    scores: Sequence[float],
    shape: Tuple[int, int],
    radius: int = 1,
) -> List[int]:
    """Sparse-input NMS: return indices of ``points`` that survive suppression.

    Convenience wrapper used when corners are already in list form (e.g. by
    the hardware model, which streams keypoints rather than full maps).
    """
    if len(points) != len(scores):
        raise FeatureError("points and scores must have the same length")
    h, w = shape
    corner_mask = np.zeros((h, w), dtype=bool)
    score_map = np.full((h, w), -np.inf)
    for (x, y), score in zip(points, scores):
        if not (0 <= x < w and 0 <= y < h):
            raise FeatureError(f"point ({x}, {y}) outside shape {shape}")
        corner_mask[y, x] = True
        score_map[y, x] = score
    keep = non_maximum_suppression(corner_mask, score_map, radius=radius)
    return [i for i, (x, y) in enumerate(points) if keep[y, x]]
