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
Each step writes its comparison flags and size arithmetic into buffers
allocated once per call, so a diagonal allocates and casts nothing.  The
(n, m, batch) int8 array of back-pointers is the one full-size array, and a
call that only scores (``paths=False``) keeps none.  Distances and path
lengths come out of the forward pass; the path cells (:attr:`Alignments.walk`)
are walked back from the stored back-pointers only when first read, so
scoring never builds them.
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
# its costs and back-pointers (9 bytes per cell; 8, the costs alone, for a
# call that keeps no paths) plus O(n + m) per matrix.
# Measured on retrieval at n = 200 (5 x 10-20 cells a matrix, 2-vCPU VM),
# 65,536 ran 5% faster than this but peaked 0.3 MB higher in RSS.  With
# score-only calls that keep no back-pointers, 65,536 still peaked 0.13 MB
# above 49,152 with back-pointers, and 0.25 MB above 49,152 without them.
# A call pads every matrix to its largest one, so evaluate._plan fills its calls
# band by band from tiles of pairs in descending shape.
STACK_CELLS = 49_152

# Back-pointer codes.  On equal accumulated cost a cell prefers its diagonal,
# then its vertical (previous row, same column), then its horizontal (same row,
# previous column) predecessor.  The kernel writes each code as vert + 2 * horiz
# from two flags: vert is set when the vertical predecessor beats the diagonal
# one, horiz when the horizontal one beats the better of those two.  So 0 is
# diagonal, 1 vertical, and 2 and 3 horizontal (3: the vertical one beat the
# diagonal but lost to the horizontal).  A path's first cell is 4.  _DI and _DJ
# are each code's step back in rows and columns.
_HORIZ, _START = 2, 4
_DI = np.array([1, 1, 0, 0, 0])
_DJ = np.array([1, 0, 1, 1, 0])


@dataclass(frozen=True)
class Alignments:
    """Optimal warping paths of a batch of cost matrices.

    ``distances[b]`` is the summed cost over item b's path and ``lengths[b]``
    its number of cells.  ``path(b)`` is the (lengths[b], 2) int array of its
    (row, column) cells in increasing order; consecutive cells differ by
    (1, 1), (1, 0) or (0, 1).  Alignments made with ``paths=False`` keep no
    back-pointers: their ``trails`` are empty, and reading ``walk``,
    ``path`` or ``cells`` raises ValueError.
    """

    distances: np.ndarray
    lengths: np.ndarray
    #: per kernel call, in item order: its back-pointers and each item's end
    #: cell, as (ptr, end rows, end columns); empty when no paths were kept
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
        b's path is ``walk[lengths[b] - 1 :: -1, b]``.  Built on first use;
        raises ValueError when the alignments kept no paths."""
        if not self.trails:
            raise ValueError("alignment: no paths were kept (aligned with paths=False)")
        steps = int(self.lengths.max())
        walks = [_walk_back(*trail, steps) for trail in self.trails]
        walk = walks[0] if len(walks) == 1 else np.concatenate(walks, axis=1)
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


def align_stack(costs: np.ndarray, measure: str = "dtw", shapes: np.ndarray | None = None, paths: bool = True) -> Alignments:
    """Align every cost matrix of a (batch, n, m) stack in one wavefront pass.

    ``shapes`` gives each item's (rows, columns) when the stack holds ragged
    matrices padded to a common shape, with any finite values.  Padding is
    exact because a cell only reads cells above and left of it, so item b's
    result is read at its own (n_b - 1, m_b - 1) corner (dtw) or from the
    first m_b columns of its row n_b - 1 (otam, the end going to the smallest
    column on ties).  The recursion runs along anti-diagonals, vectorized over
    the batch and the diagonal's cells as slices (see the module docstring).
    It counts each cell's path size as it goes and, with ``paths``, stores a
    back-pointer per cell, from which the result's ``walk`` reads the paths on
    demand.  A caller that reads only distances, lengths or scores passes
    ``paths=False``, and no back-pointer is allocated or written.
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
    # buffers roll over the diagonals.  Row 1 holds the top row (cell (0, d))
    # while d < m, and every row a border cell reads outside the matrix is
    # +inf, so border cells see only real predecessors.
    size_type = np.min_scalar_type(n + m)
    # A diagonal's vertical and horizontal flags and its size temporary are
    # slices of these; the flags enter the size arithmetic as size_type when
    # that is one byte, so nothing is cast.  (Allocated before cum and size:
    # after them, perfbench's fewshot-videoonly read 0.1-0.25 MB higher peak
    # RSS, through heap placement alone.)
    flags = np.empty((2, n, batch), dtype=bool)
    size_flags = flags.view(np.uint8) if size_type == np.uint8 else flags
    spare = np.empty((n, batch), dtype=size_type)
    cum = np.full((3, n + 2, batch), np.inf)
    size = np.zeros((3, n + 2, batch), dtype=size_type)
    if paths:
        ptr = np.empty((n, m, batch), dtype=np.int8)
        if measure == "dtw":
            ptr[0] = _HORIZ
            ptr[0, 0] = _START
        else:
            ptr[0] = _START
        ptr_rows = ptr.reshape(-1, batch)
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
    cost_rows = costs.reshape(batch, n * m).T
    step = max(m - 1, 1)
    for d in range(n + m - 1):
        own_cum, own_size = cum[d % 3], size[d % 3]
        prev_cum, prev_size = cum[(d - 1) % 3], size[(d - 1) % 3]
        # Two borders stay as they are, with no write.  Row 1 past column
        # m - 1 (d >= m): later diagonals read from row d - m + 2 >= 2 down,
        # and what a one-row item records there lies past its last column,
        # which its result never reads.  Row hi + 2 is still +inf from the
        # fill: hi never shrinks, so no earlier diagonal wrote below row hi + 1.
        if d < m:
            if measure == "dtw" and d:
                np.add(prev_cum[1], cost_rows[d], out=own_cum[1])
                own_size[1] = d + 1
            else:
                own_cum[1] = cost_rows[d]
                own_size[1] = 1
        lo, hi = max(1, d - m + 1), min(d, n - 1)
        if lo <= hi:
            diag, up, left = cum[(d - 2) % 3][lo : hi + 1], prev_cum[lo : hi + 1], prev_cum[lo + 1 : hi + 2]
            cell = slice(lo * (m - 1) + d, hi * (m - 1) + d + 1, step)
            acc, k = own_cum[lo + 1 : hi + 2], hi + 1 - lo
            vert, horiz, tmp = flags[0, :k], flags[1, :k], spare[:k]
            np.less(up, diag, out=vert)  # strict comparisons keep the earlier step on ties
            np.minimum(diag, up, out=acc)
            np.less(left, acc, out=horiz)
            np.minimum(acc, left, out=acc)
            acc += cost_rows[cell]
            if paths:
                marks = ptr_rows[cell]
                np.add(vert.view(np.int8), horiz.view(np.int8), out=marks)
                marks += horiz.view(np.int8)  # vert + 2 * horiz
            # the chosen predecessor's size plus one, selected by the 0/1 flags
            # in unsigned arithmetic (differences wrap, the selected size does not)
            grown, size_diag = own_size[lo + 1 : hi + 2], size[(d - 2) % 3][lo : hi + 1]
            np.subtract(prev_size[lo : hi + 1], size_diag, out=grown)
            grown *= size_flags[0, :k]
            grown += size_diag
            np.subtract(prev_size[lo + 1 : hi + 2], grown, out=tmp)
            tmp *= size_flags[1, :k]
            grown += tmp
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
    return Alignments(distances, lengths, ((ptr, rows - 1, end),) if paths else ())


def align_cosines(sims: np.ndarray, measure: str, shapes: np.ndarray, paths: bool = True) -> Alignments:
    """:func:`align_stack` of a padded (batch, n, m) stack of cosines of any
    size, as one :class:`Alignments`: each cosine is clipped to [-1, 1] and
    becomes the cost ``1 - cos``, in place, so ``sims`` is consumed.  Aligns
    in calls of as many matrices as fit in STACK_CELLS padded cells (one at
    least), keeping back-pointers only with ``paths``."""
    np.clip(sims, -1.0, 1.0, out=sims)
    np.subtract(1.0, sims, out=sims)
    cap = max(1, STACK_CELLS // max(1, int(np.prod(sims.shape[1:]))))
    # an empty stack makes one call, which refuses it
    calls = range(0, len(sims) or 1, cap)
    return Alignments.concat([align_stack(sims[lo : lo + cap], measure, shapes[lo : lo + cap], paths=paths) for lo in calls])


def _walk_back(ptr: np.ndarray, i: np.ndarray, j: np.ndarray, steps: int) -> np.ndarray:
    """(steps, batch, 2) cells visited following back-pointers from each
    item's end cell (i[b], j[b]); an item that reached its start repeats it.
    The walk moves flat indices into ``ptr``, each code's step being a fixed
    offset, and splits them into (row, column) pairs once at the end."""
    _, m, batch = ptr.shape
    flat = ptr.reshape(-1)
    delta = (_DI * m + _DJ) * batch
    walk = np.empty((steps, batch, 2), dtype=np.int64)
    idx = walk[:, :, 1]  # the flat indices, split in place at the end
    idx[0] = (i * m + j) * batch + np.arange(batch)
    for s in range(1, steps):
        np.subtract(idx[s - 1], delta[flat[idx[s - 1]]], out=idx[s])
    # divmod, not //: a process's first integer floor_divide took 128 KB more
    # resident memory, and nothing else in the program floor-divides arrays
    np.divmod(idx, batch, out=(idx, walk[:, :, 0]))  # cell i * m + j, and the item
    np.divmod(idx, m, out=(walk[:, :, 0], idx))
    return walk


# Single-matrix entry points named by the benchmark's per-layer hook table
# (perfbench/layertrace.py, layer align.single) and its tests.


def dtw(cost) -> Alignments:
    """:func:`align_stack` of one matrix under dtw."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "dtw")


def otam(cost) -> Alignments:
    """:func:`align_stack` of one matrix under otam."""
    return align_stack(np.asarray(cost, dtype=np.float64)[None], "otam")
