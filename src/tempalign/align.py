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
(cost = 1 - similarity), optionally divided by the path length.  Callers
hand :func:`align_cosines` their cosines, and it alone makes those costs.

Layout: the kernel keeps the accumulated costs and path sizes of three
anti-diagonals only, each as an (n + 2, batch) buffer that holds cell (i, j)
of diagonal d = i + j at row i + 1, and rolls them over the diagonals.  A
diagonal's cells and each of their three predecessors are then contiguous
slices, so every step of the wavefront reads and writes whole slices and
gathers nothing but each item's last-row cell, which it records as it passes.
The (n, m, batch) array of back-pointers is the one full-size array.
Distances and path lengths come out of the forward pass; the path cells
(:attr:`Alignments.walk`) are walked back from the stored back-pointers only
when first read, so scoring never builds them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DataError

MEASURES = ("dtw", "otam")

# Most padded cells (matrices x rows x columns) one align_stack call aligns,
# for every caller (evaluation's all-pairs scorer, pair match, training and
# the align command, all through align_cosines); a matrix larger than this
# goes alone.
# A call's per-diagonal Python work (about twenty array operations) is fixed,
# so the more matrices per call the less it costs per matrix; its memory is
# its costs and back-pointers (9 bytes per cell) plus O(n + m) per matrix.
# Measured on retrieval at n = 200 (5 x 10-20 cells a matrix, 2-vCPU VM),
# 65,536 ran 5% faster than this but peaked 0.3 MB higher in RSS.  A call
# pads every matrix to its largest one, so evaluate._score_matrix walks its
# pairs tile by tile in descending shape (evaluate._tile_grid) and caps the
# padding of each call (evaluate.PAD_SHARE).
STACK_CELLS = 49_152

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
    its number of cells.  ``path(b)`` is the (lengths[b], 2) int array of its
    (row, column) cells in increasing order; consecutive cells differ by
    (1, 1), (1, 0) or (0, 1).
    """

    distances: np.ndarray
    lengths: np.ndarray
    #: per kernel call, in item order: its back-pointers and each item's end
    #: cell, as (ptr, end rows, end columns)
    trails: tuple

    @staticmethod
    def concat(parts: list["Alignments"]) -> "Alignments":
        """The alignments of several batches as one, in order."""
        return Alignments(np.concatenate([p.distances for p in parts]), np.concatenate([p.lengths for p in parts]),
                          sum((p.trails for p in parts), ()))

    @functools.cached_property
    def walk(self) -> np.ndarray:
        """(steps, batch, 2) read-only cells visited walking back from each
        path's end; an item that reached its start repeats that cell, so item
        b's path is ``walk[lengths[b] - 1 :: -1, b]``.  Built on first use."""
        steps = int(self.lengths.max())
        walk = np.concatenate([_walk_back(*trail, steps) for trail in self.trails], axis=1)
        walk.setflags(write=False)
        return walk

    def path(self, b: int) -> np.ndarray:
        return self.walk[self.lengths[b] - 1 :: -1, b]

    def cells(self) -> np.ndarray:
        """(lengths.sum(), 2) cells of every path, item by item, each path
        read from its end (``path(b)[::-1]``)."""
        return self.walk.transpose(1, 0, 2)[np.arange(len(self.walk)) < self.lengths[:, None]]

    def scores(self, normalize: bool = True) -> np.ndarray:
        """Summed path similarity ``length - distance`` under cost = 1 - similarity,
        divided by the path length when ``normalize``."""
        raw = self.lengths - self.distances
        return raw / self.lengths if normalize else raw


def align_stack(costs: np.ndarray, measure: str = "dtw", shapes: np.ndarray | None = None) -> Alignments:
    """Align every cost matrix of a (batch, n, m) stack in one wavefront pass.

    ``shapes`` gives each item's (rows, columns) when the stack holds ragged
    matrices padded to a common shape, with any finite values.  Padding is
    exact because a cell only reads cells above and left of it, so item b's
    result is read at its own (n_b - 1, m_b - 1) corner (dtw) or from the
    first m_b columns of its row n_b - 1 (otam, the end going to the smallest
    column on ties).  The recursion runs along anti-diagonals, vectorized over
    the batch and the diagonal's cells as slices (see the module docstring).
    It counts each cell's path size as it goes and stores a back-pointer per
    cell, from which the result's ``walk`` reads the paths on demand.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 3 or costs.size == 0:
        raise DataError(f"alignment: expected a nonempty (batch, n, m) stack, got shape {costs.shape}")
    # min and max propagate NaN and reach any infinity, with no temporary
    if not (np.isfinite(costs.min()) and np.isfinite(costs.max())):
        raise DataError("alignment: cost matrix contains non-finite values")
    batch, n, m = costs.shape
    if shapes is None:
        rows, cols = np.full(batch, n), np.full(batch, m)
    else:
        shapes = np.asarray(shapes)
        if shapes.dtype.kind not in "iu" or shapes.shape != (batch, 2):
            raise DataError(f"alignment: item shapes must be a ({batch}, 2) integer array")
        rows, cols = shapes.astype(np.int64).T
        if np.any((rows < 1) | (rows > n) | (cols < 1) | (cols > m)):
            raise DataError(f"alignment: item shapes do not fit the {n}x{m} stack")
    items = np.arange(batch)

    # Cell (i, j) of anti-diagonal d = i + j sits at row i + 1 of diagonal d's
    # (n + 2, batch) buffer of accumulated costs and of path sizes; three
    # buffers roll over the diagonals.  Row 1 holds the top row (cell (0, d)),
    # +inf past column m - 1, and the row below the diagonal's last cell is
    # +inf, so border cells see only real predecessors.
    size_type = np.min_scalar_type(n + m)
    cum = np.full((3, n + 2, batch), np.inf)
    size = np.zeros((3, n + 2, batch), dtype=size_type)
    ptr = np.empty((n, m, batch), dtype=np.int8)
    if measure == "dtw":
        ptr[0] = _HORIZ
        ptr[0, 0] = _START
    else:
        ptr[0] = _START
    # Item b's last-row cell (rows[b] - 1, j) lies on diagonal rows[b] - 1 + j;
    # each is recorded as the wavefront passes it, from the first diagonal
    # that holds a result (the item's end under dtw, any last-row cell under
    # otam).
    first = int((rows - 1 + (cols - 1) * (measure == "dtw")).min())
    last_cum = np.empty((n + m - 1 - first, batch))
    last_size = np.empty((n + m - 1 - first, batch), dtype=size_type)
    at = rows * batch + items  # each item's last row, flat in a diagonal buffer
    # Cell (i, j) is row i * (m - 1) + d of ptr and cost viewed as one row per
    # cell, so a diagonal's cells are one strided slice.
    ptr_rows, cost_rows = ptr.reshape(-1, batch), costs.reshape(batch, n * m).T
    step = max(m - 1, 1)
    for d in range(n + m - 1):
        own_cum, own_size = cum[d % 3], size[d % 3]
        prev_cum, prev_size = cum[(d - 1) % 3], size[(d - 1) % 3]
        if d >= m:
            own_cum[1] = np.inf
        elif measure == "dtw" and d:
            np.add(prev_cum[1], cost_rows[d], out=own_cum[1])
            own_size[1] = d + 1
        else:
            own_cum[1] = cost_rows[d]
            own_size[1] = 1
        lo, hi = max(1, d - m + 1), min(d, n - 1)
        own_cum[hi + 2] = np.inf
        if lo <= hi:
            diag, up, left = cum[(d - 2) % 3][lo : hi + 1], prev_cum[lo : hi + 1], prev_cum[lo + 1 : hi + 2]
            cell = slice(lo * (m - 1) + d, hi * (m - 1) + d + 1, step)
            acc = own_cum[lo + 1 : hi + 2]
            vert = up < diag  # strict comparisons keep the earlier step on ties
            np.minimum(diag, up, out=acc)
            horiz = left < acc
            np.minimum(acc, left, out=acc)
            acc += cost_rows[cell]
            marks = ptr_rows[cell]
            np.copyto(marks, vert)  # _VERT (1) or _DIAG (0)
            marks[horiz] = _HORIZ
            # the chosen predecessor's size plus one, selected by the 0/1 flags
            # in unsigned arithmetic (differences wrap, the selected size does not)
            grown, size_diag = own_size[lo + 1 : hi + 2], size[(d - 2) % 3][lo : hi + 1]
            np.subtract(prev_size[lo : hi + 1], size_diag, out=grown)
            grown *= vert
            grown += size_diag
            grown += (prev_size[lo + 1 : hi + 2] - grown) * horiz
            grown += 1
        if d >= first:
            np.take(own_cum.reshape(-1), at, out=last_cum[d - first])
            np.take(own_size.reshape(-1), at, out=last_size[d - first])

    if measure == "dtw":
        end = cols - 1
        distances = last_cum[rows - 1 + end - first, items]
    else:
        last = last_cum[(rows - 1 - first)[:, None] + np.arange(m), items[:, None]]  # (batch, m)
        last[np.arange(m) >= cols[:, None]] = np.inf
        end = np.argmin(last, axis=1)
        distances = last[items, end]
    lengths = last_size[rows - 1 + end - first, items].astype(np.int64)
    return Alignments(distances, lengths, ((ptr, rows - 1, end),))


def align_cosines(sims: np.ndarray, measure: str, shapes: np.ndarray) -> Alignments:
    """:func:`align_stack` of a padded (batch, n, m) stack of cosines of any
    size, as one :class:`Alignments`: each cosine is clipped to [-1, 1] and
    becomes the cost ``1 - cos``, in place, so ``sims`` is consumed.  Aligns
    in calls of as many matrices as fit in STACK_CELLS padded cells (one at
    least)."""
    np.clip(sims, -1.0, 1.0, out=sims)
    np.subtract(1.0, sims, out=sims)
    cap = max(1, STACK_CELLS // max(1, int(np.prod(sims.shape[1:]))))
    # an empty stack makes one call, which refuses it
    calls = range(0, len(sims) or 1, cap)
    return Alignments.concat([align_stack(sims[lo : lo + cap], measure, shapes[lo : lo + cap]) for lo in calls])


def _walk_back(ptr: np.ndarray, i: np.ndarray, j: np.ndarray, steps: int) -> np.ndarray:
    """(steps, batch, 2) cells visited following back-pointers from each
    item's end cell (i[b], j[b]); an item that reached its start repeats it."""
    items = np.arange(len(i))
    walk = np.empty((steps, len(i), 2), dtype=np.int64)
    walk[0, :, 0], walk[0, :, 1] = i, j
    for s in range(1, steps):
        step = ptr[i, j, items]
        i = i - _DI[step]
        j = j - _DJ[step]
        walk[s, :, 0], walk[s, :, 1] = i, j
    return walk


# Single-matrix entry points named by the benchmark's per-layer hook table
# (perfbench/layertrace.py, layer align.single) and its tests.


def dtw(cost) -> Alignments:
    """:func:`align_stack` of one matrix under dtw."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "dtw")


def otam(cost) -> Alignments:
    """:func:`align_stack` of one matrix under otam."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "otam")
