"""Dynamic-programming sequence alignment over pairwise cost matrices.

One batched kernel, :func:`align_stack`, aligns every matrix of a batch under
one of two measures:

* ``dtw`` -- classic dynamic time warping: the path is anchored at both
  corners, every row and every column of the cost matrix is visited, and the
  accumulated cost follows C(i, j) = D(i, j) + min of the three predecessors.
* ``otam`` -- boundary-relaxed alignment realized as subsequence DTW on the
  second (clip) axis: the path may start at any column of the first row and
  end at any column of the last row, so a prefix/suffix of the clip sequence
  can be skipped while every anchor row is still matched.

Alignment scores are summed cosine similarities along the minimum-cost path
(cost = 1 - similarity), optionally divided by the path length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError

MEASURES = ("dtw", "otam")

# Back-pointer codes.  The order is the tie-break: on equal accumulated cost a
# cell prefers its diagonal, then its vertical (previous row, same column),
# then its horizontal (same row, previous column) predecessor.
_DIAG, _VERT, _HORIZ, _START = 0, 1, 2, 3
_DI = np.array([1, 1, 0, 0])
_DJ = np.array([1, 0, 1, 0])


@dataclass(frozen=True)
class Alignments:
    """Optimal warping paths of a batch of cost matrices.

    ``distances[b]`` is the summed cost over item b's path and ``lengths[b]``
    its number of cells.  ``path(b)`` lists the cells as (row, column) pairs in
    increasing order; consecutive pairs differ by (1, 1), (1, 0) or (0, 1).
    """

    distances: np.ndarray
    lengths: np.ndarray
    # (max length, batch) cells visited, walking back from each path's end;
    # item b's path is the first lengths[b] entries of its column, reversed.
    _rows: np.ndarray
    _cols: np.ndarray

    def path(self, b: int) -> list[tuple[int, int]]:
        n = int(self.lengths[b])
        return list(zip(self._rows[n - 1 :: -1, b].tolist(), self._cols[n - 1 :: -1, b].tolist()))

    def scores(self, normalize: bool = True) -> np.ndarray:
        """Summed path similarity ``length - distance`` under cost = 1 - similarity,
        divided by the path length when ``normalize``."""
        raw = self.lengths - self.distances
        return raw / self.lengths if normalize else raw


def pad_costs(costs) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad 2-d cost matrices of any shapes into one (batch, n, m) stack.

    Returns the stack and the (batch, 2) array of each item's (rows, columns),
    the two arguments :func:`align_stack` takes for a ragged batch.
    """
    mats = [np.asarray(c, dtype=np.float64) for c in costs]
    if not mats:
        raise DataError("alignment: no cost matrices")
    for c in mats:
        if c.ndim != 2 or c.size == 0:
            raise DataError(f"alignment: cost matrix must be 2-d and nonempty, got shape {c.shape}")
    shapes = np.array([c.shape for c in mats])
    stack = np.zeros((len(mats), *shapes.max(axis=0)))
    for b, c in enumerate(mats):
        stack[b, : c.shape[0], : c.shape[1]] = c
    return stack, shapes


def align_stack(costs: np.ndarray, measure: str = "dtw", shapes: np.ndarray | None = None) -> Alignments:
    """Align every cost matrix of a (batch, n, m) stack in one wavefront pass.

    ``shapes`` gives each item's (rows, columns) when the stack holds ragged
    matrices zero-padded to a common shape (see :func:`pad_costs`).  Padding
    is exact because a cell only reads cells above and left of it, so item b's
    result is read at its own (n_b - 1, m_b - 1) corner (dtw) or from the
    first m_b columns of its row n_b - 1 (otam, the end going to the smallest
    column on ties).  The recursion runs along anti-diagonals, vectorized over
    the batch and the diagonal's cells, and stores a back-pointer per cell
    from which the paths are read.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 3 or costs.size == 0:
        raise DataError(f"alignment: expected a nonempty (batch, n, m) stack, got shape {costs.shape}")
    if not np.all(np.isfinite(costs)):
        raise DataError("alignment: cost matrix contains non-finite values")
    batch, n, m = costs.shape
    if shapes is None:
        rows, cols = np.full(batch, n), np.full(batch, m)
    else:
        rows, cols = np.asarray(shapes, dtype=np.int64).T
        if rows.shape != (batch,) or np.any((rows < 1) | (rows > n) | (cols < 1) | (cols > m)):
            raise DataError(f"alignment: item shapes do not fit the {n}x{m} stack")
    cost = costs.transpose(1, 2, 0)
    items = np.arange(batch)

    # cum[i + 1, j + 1] is the accumulated cost of cell (i, j); the extra first
    # row and column are +inf so that border cells see only real predecessors.
    cum = np.full((n + 1, m + 1, batch), np.inf)
    ptr = np.empty((n, m, batch), dtype=np.int8)
    if measure == "dtw":
        cum[1, 1:] = np.cumsum(cost[0], axis=0)
        ptr[0] = _HORIZ
        ptr[0, 0] = _START
    else:
        cum[1, 1:] = cost[0]
        ptr[0] = _START
    for d in range(1, n + m - 1):
        i = np.arange(max(1, d - m + 1), min(d, n - 1) + 1)
        j = d - i
        diag, up, left = cum[i, j], cum[i, j + 1], cum[i + 1, j]
        vert = up < diag  # strict comparisons keep the earlier step on ties
        best = np.where(vert, up, diag)
        horiz = left < best
        cum[i + 1, j + 1] = cost[i, j] + np.where(horiz, left, best)
        ptr[i, j] = np.where(horiz, _HORIZ, vert)  # vert is _VERT (1) or _DIAG (0)

    last = cum[rows, 1:, items]  # (batch, m): each item's last row
    if measure == "dtw":
        end = cols - 1
    else:
        last[np.arange(m) >= cols[:, None]] = np.inf
        end = np.argmin(last, axis=1)
    distances = last[items, end]

    # Walk every path back from its end at once; an item that reached its
    # start keeps repeating that cell, which the length count ignores.
    i, j = rows - 1, end
    trail_i, trail_j = [i], [j]
    lengths = np.ones(batch, dtype=np.int64)
    step = ptr[i, j, items]
    while np.any(step != _START):
        lengths += step != _START
        i = i - _DI[step]
        j = j - _DJ[step]
        trail_i.append(i)
        trail_j.append(j)
        step = ptr[i, j, items]
    return Alignments(distances, lengths, np.array(trail_i), np.array(trail_j))


# Single-matrix entry points named by the benchmark's per-layer hook table
# (perfbench/layertrace.py, layer align.single) and its tests.


def dtw(cost) -> Alignments:
    """:func:`align_stack` of one matrix under dtw."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "dtw")


def otam(cost) -> Alignments:
    """:func:`align_stack` of one matrix under otam."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "otam")
