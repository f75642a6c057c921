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


#: Rows of the dense window-max grid per band of :func:`suppress_keypoints_sparse`;
#: a band's float64 grid stays a few hundred KB at VGA width.
NMS_BAND_ROWS: int = 64


def suppress_keypoints_sparse(
    xs: np.ndarray,
    ys: np.ndarray,
    scores: np.ndarray,
    shape: Tuple[int, int],
    radius: int = 1,
) -> np.ndarray:
    """Banded NMS over corner arrays, bit-equivalent to :func:`non_maximum_suppression`.

    Takes corners as coordinate/score arrays (positions must be unique) and
    returns a boolean keep mask aligned with the inputs.  Semantics match the
    dense path exactly, including its sequential raster-order tie-breaking:

    1. a corner survives stage 1 iff its score is >= every corner score in
       its ``(2*radius+1)`` window: the scores are scattered into a
       ``-inf`` grid of :data:`NMS_BAND_ROWS` rows plus a ``radius``-row
       halo, a dense window max runs over it (:func:`_window_maxima`), and
       each corner of the band compares against the max at its position;
    2. any two stage-1 survivors within each other's window necessarily tie
       (each one's window max bounds the other's score), so the dense path's
       per-survivor tie-break loop is exactly a greedy raster-order maximal
       independent set over the survivors that share a window.  Those are
       found, and their neighbours indexed, by binary search over the
       survivors' raster keys alone (:func:`_greedy_raster_independent_set`).
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
    # raster keys on a grid padded by ``radius`` columns, so a window never
    # wraps into the next row; detection-engine input arrives in raster
    # order (np.nonzero emits it), in which case the sort is skipped
    stride = width + 2 * radius
    keys = ys * stride + xs
    if keys.size > 1 and np.all(keys[1:] > keys[:-1]):
        order = None
        sx, sy, ss = xs, ys, scores
    else:
        order = np.lexsort((xs, ys))
        sx, sy, ss, keys = xs[order], ys[order], scores[order], keys[order]
    keep = _window_maxima(sx, sy, ss, height, width, radius)
    # survivors that share a window with another survivor: in their own
    # row the raster neighbours say it, in every other window row one
    # binary search for the first survivor at or after the window's start
    survivors = np.flatnonzero(keep)
    survivor_keys = keys[survivors]
    # sentinel keys lie beyond every window
    padded = np.concatenate(
        ([-(radius + 1) * stride], survivor_keys, [(height + radius + 1) * stride])
    )
    gaps = np.diff(padded)
    conflicted = (gaps[:-1] <= radius) | (gaps[1:] <= radius)
    for dy in range(-radius, radius + 1):
        if dy:
            window_start = survivor_keys + (dy * stride - radius)
            first = padded[np.searchsorted(padded, window_start)]
            conflicted |= first <= window_start + 2 * radius
    if conflicted.any():
        keep[survivors[conflicted]] = _greedy_raster_independent_set(
            survivor_keys[conflicted], stride, radius
        )
    if order is None:
        return keep
    result = np.empty(xs.size, dtype=bool)
    result[order] = keep
    return result


def _window_maxima(
    xs: np.ndarray, ys: np.ndarray, scores: np.ndarray, height: int, width: int, radius: int
) -> np.ndarray:
    """Whether each raster-ordered corner scores >= every corner in its window.

    One flat ``-inf`` grid of :data:`NMS_BAND_ROWS` rows plus a
    ``radius``-row halo above and below, ``width + 2 * radius`` columns
    wide, serves every band: the band's corners and its halo corners are
    scattered in, the window max runs as ``2 * radius`` maxima along the
    flat rows and ``2 * radius`` down the columns (contiguous 1-D slices;
    the padding columns keep a window from wrapping into the next row),
    and the scattered cells are reset to ``-inf`` afterwards.  The max
    includes the corner itself, so ``score >= max`` is the reference's
    ``score >= max over neighbours``.
    """
    stride = width + 2 * radius
    band_rows = min(NMS_BAND_ROWS, height)
    grid = np.full((band_rows + 2 * radius) * stride, -np.inf)
    across = np.empty(grid.size - 2 * radius)
    window = np.empty(band_rows * stride)
    keep = np.empty(xs.size, dtype=bool)
    tops = np.arange(0, height, NMS_BAND_ROWS)
    first = np.searchsorted(ys, tops)
    last = np.searchsorted(ys, tops + NMS_BAND_ROWS)
    halo_first = np.searchsorted(ys, tops - radius)
    halo_last = np.searchsorted(ys, tops + NMS_BAND_ROWS + radius)
    for top, start, stop, halo_start, halo_stop in zip(
        tops.tolist(), first.tolist(), last.tolist(), halo_first.tolist(), halo_last.tolist()
    ):
        if start == stop:
            continue
        rows = min(NMS_BAND_ROWS, height - top)
        # grid cell of (y, x) is (y - top + radius) * stride + x + radius
        halo = slice(halo_start, halo_stop)
        cells = (ys[halo] - (top - radius)) * stride + xs[halo] + radius
        grid[cells] = scores[halo]
        # across[i] = max grid[i .. i + 2r]: the row window centred on i + r
        count = (rows + 2 * radius) * stride - 2 * radius
        np.maximum(grid[0:count], grid[1 : count + 1], out=across[:count])
        for offset in range(2, 2 * radius + 1):
            np.maximum(across[:count], grid[offset : offset + count], out=across[:count])
        # window[j] = max across[j + k * stride]: the full window of the
        # corner at (y, x) sits at (y - top) * stride + x
        count = rows * stride - 2 * radius
        np.maximum(across[0:count], across[stride : stride + count], out=window[:count])
        for offset in range(2 * stride, 2 * radius * stride + 1, stride):
            np.maximum(window[:count], across[offset : offset + count], out=window[:count])
        grid[cells] = -np.inf
        at = (ys[start:stop] - top) * stride + xs[start:stop]
        keep[start:stop] = scores[start:stop] >= window[at]
    return keep


def _greedy_raster_independent_set(keys: np.ndarray, stride: int, radius: int) -> np.ndarray:
    """Greedy raster-order MIS over tied survivors.

    Nodes arrive in raster order as sorted keys ``y * stride + x`` on a grid
    whose rows are padded by ``radius`` columns.  Each node's window
    neighbours are found by binary search among the keys.  Equivalent to
    visiting survivors sequentially and suppressing each one's later tied
    neighbours, but resolved in rounds: a node is decided as soon as all
    earlier-raster window neighbours are decided, then selected iff none of
    them was selected.  Each round decides at least the earliest undecided
    node, and chains of ties (A kills B, which resurrects C, ...) propagate
    one link per round; every round is pure array ops over the conflicted
    nodes.
    """
    count = keys.size
    span = np.arange(-radius, radius + 1, dtype=np.int64)
    dys, dxs = np.meshgrid(span, span, indexing="ij")
    centre = (dys == 0) & (dxs == 0)
    dys, dxs = dys[~centre], dxs[~centre]
    targets = keys[:, None] + (dys * stride + dxs)[None, :]
    found = np.minimum(np.searchsorted(keys, targets), count - 1)
    # missing neighbours map to a sentinel slot that is never undecided/selected
    neighbour_ids = np.where(keys[found] == targets, found, count)
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
