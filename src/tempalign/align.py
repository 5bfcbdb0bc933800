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

Layout: the kernel keeps (n + 1, m + 1, batch) arrays of accumulated costs and
path sizes and an (n, m, batch) array of back-pointers, each viewed as one row
of ``batch`` values per cell.  In that view the cells of an anti-diagonal, and
each of their three predecessors, are one strided slice, so every step of the
wavefront reads and writes whole slices and gathers nothing.  Distances and
path lengths come out of the forward pass; the path cells
(:attr:`Alignments.walk`) are walked back from the stored back-pointers only
when first read, so scoring never builds them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DataError

MEASURES = ("dtw", "otam")

# Most matrices one align_stack call aligns, for every caller (evaluation's
# all-pairs scorer, pair match and training, the last two through
# align_chunked): enough to amortize its per-call Python work (about fifteen
# array operations per anti-diagonal, each over the whole batch), few enough
# to keep its (batch, n, m) arrays small.  A default training batch (8 x 33)
# fits in one.  A call pads every matrix to its largest one, so
# evaluate._score_matrix walks its pairs tile by tile in descending shape
# (evaluate._tile_grid) and a call's matrices share one shape or two adjacent
# ones.
STACK_MATRICES = 400

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
    the batch and the diagonal's cells as strided slices (see the module
    docstring).  It counts each cell's path size as it goes and stores a
    back-pointer per cell, from which the result's ``walk`` reads the paths
    on demand.
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
    items = np.arange(batch)

    # cum[i + 1, j + 1] is the accumulated cost of cell (i, j); the extra first
    # row and column are +inf so that border cells see only real predecessors.
    # size[i + 1, j + 1] counts the cells of the path that ends at (i, j).
    cum = np.full((n + 1, m + 1, batch), np.inf)
    size = np.zeros((n + 1, m + 1, batch), dtype=np.min_scalar_type(n + m))
    ptr = np.empty((n, m, batch), dtype=np.int8)
    if measure == "dtw":
        cum[1, 1:] = np.cumsum(costs[:, 0].T, axis=0)
        size[1, 1:] = np.arange(1, m + 1)[:, None]
        ptr[0] = _HORIZ
        ptr[0, 0] = _START
    else:
        cum[1, 1:] = costs[:, 0].T
        size[1, 1:] = 1
        ptr[0] = _START
    # One row per cell: cell (i, j) of anti-diagonal d = i + j is row
    # i * m + d + m + 2 of cum and size and row i * (m - 1) + d of ptr and
    # cost, so each diagonal and its three predecessors are strided slices.
    cum_rows, size_rows = cum.reshape(-1, batch), size.reshape(-1, batch)
    ptr_rows, cost_rows = ptr.reshape(-1, batch), costs.reshape(batch, n * m).T
    step = max(m - 1, 1)
    for d in range(1, n + m - 1):
        lo, hi = max(1, d - m + 1), min(d, n - 1)
        diag = slice(lo * m + d, hi * m + d + 1, m)  # cum row of (i - 1, j - 1)
        up, left, own = (slice(diag.start + k, diag.stop + k, m) for k in (1, m + 1, m + 2))
        cell = slice(lo * (m - 1) + d, hi * (m - 1) + d + 1, step)
        vert = cum_rows[up] < cum_rows[diag]  # strict comparisons keep the earlier step on ties
        best = np.minimum(cum_rows[diag], cum_rows[up])
        horiz = cum_rows[left] < best
        np.minimum(best, cum_rows[left], out=best)
        np.add(cost_rows[cell], best, out=cum_rows[own])
        marks = ptr_rows[cell]
        np.copyto(marks, vert)  # _VERT (1) or _DIAG (0)
        marks[horiz] = _HORIZ
        # the chosen predecessor's size, selected by the 0/1 flags in
        # unsigned arithmetic (differences wrap, the selected size does not)
        pick = size_rows[diag] + (size_rows[up] - size_rows[diag]) * vert
        pick += (size_rows[left] - pick) * horiz
        np.add(pick, 1, out=size_rows[own])

    last = cum[rows, 1:, items]  # (batch, m): each item's last row
    if measure == "dtw":
        end = cols - 1
    else:
        last[np.arange(m) >= cols[:, None]] = np.inf
        end = np.argmin(last, axis=1)
    distances = last[items, end]
    lengths = size[rows, end + 1, items].astype(np.int64)
    return Alignments(distances, lengths, ((ptr, rows - 1, end),))


def align_chunked(costs: np.ndarray, measure: str, shapes: np.ndarray) -> Alignments:
    """:func:`align_stack` of a padded stack of any size, at most
    STACK_MATRICES matrices per call, as one :class:`Alignments`."""
    cap = STACK_MATRICES
    return Alignments.concat([align_stack(costs[lo : lo + cap], measure, shapes[lo : lo + cap]) for lo in range(0, len(costs), cap)])


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
