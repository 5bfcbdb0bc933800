"""Evaluation protocols: retrieval, localization, pair matching, few-shot.

All rankings break score ties by stable input order, every random choice is
derived from an explicit seed, and reports are plain data, so repeated runs
are byte-identical.  ``model=None`` evaluates the raw (identity-projected)
embeddings everywhere.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import align
from .core import DataError, LabeledVideo, SegmentedPair, unit_normalize
from .core import similarity_matrix  # noqa: F401  (hooked by perfbench/layertrace.py)

RETRIEVAL_MEASURES = ("dtw", "otam", "capavg", "dtw+capavg", "otam+capavg")
FEWSHOT_MEASURES = ("dtw", "otam", "bag")

# Episodes fewshot_eval draws and scores at a time: its memory stays flat in the episode count.
EPISODE_BLOCK = 200
# Captions retrieval_clip scores and ranks at a time against the whole clip
# pool, so its memory stays flat in the caption count.
RANK_ROWS = 128
# Largest block of normalized unit stacks (see _normalized).  Larger blocks
# (one array per stack length) raised the few-shot benchmark's peak RSS by
# 0.1-0.8 MB: allocations that large get fresh pages from the system instead
# of reusing the heap memory that training freed.
BLOCK_BYTES = 64 * 1024
# Fewest padded cells of _plan's calls per process that aligns them (see
# _shares).  A worker costs a fork, a reap and a copy of each private page
# either process writes after the fork; its scores go straight into the
# shared matrix.  On a 2-vCPU VM a fork took 0.7-1.4 ms and a reap 2.1-2.6 ms:
# two shares of few-shot's 1.14 M-cell plan ran no faster than one, and two
# of retrieval's 3.0 M cells at n = 200 ran about 30% faster.  These were
# timed with unpinned workers; pinned, 500,000 cells ran few-shot no faster.
WORKER_CELLS = 1_000_000


@dataclass
class EvalReport:
    """One protocol run: recall@K map plus auxiliary scalars."""

    task: str
    measure: str
    recalls: dict[int, float] = field(default_factory=dict)
    aux: dict[str, float] = field(default_factory=dict)
    per_query: list[dict] | None = None

    def csv_rows(self):
        """Rows under the schema (task, measure, k, value); aux rows use k=0."""
        for k in sorted(self.recalls):
            yield (self.task, self.measure, k, self.recalls[k])
        for name in sorted(self.aux):
            yield (f"{self.task}.{name}", self.measure, 0, self.aux[name])

    def text_table(self) -> str:
        lines = [f"{'task':<28}{'measure':<14}{'k':>4}  value"]
        for task, measure, k, value in self.csv_rows():
            lines.append(f"{task:<28}{measure:<14}{k:>4}  {value:.6g}")
        return "\n".join(lines)


def _transforms(model):
    if model is None:
        return (lambda x: x), (lambda x: x)
    return model.transform_anchor, model.transform_clips


def _check_ks(ks, n_candidates: int) -> tuple[int, ...]:
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks) or list(ks) != sorted(set(ks)):
        raise DataError(f"ks must be sorted unique positive integers, got {ks}")
    if ks[-1] > n_candidates:
        raise DataError(f"recall@{ks[-1]} needs at least {ks[-1]} candidates, corpus has {n_candidates}")
    return ks


def _minmax(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` scaled to [0, 1]; a constant row becomes 0.5."""
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    varies = hi > lo
    return np.where(varies, (x - lo) / np.where(varies, hi - lo, 1.0), 0.5)


def _ranks(scores: np.ndarray, target: np.ndarray, tiebreak: np.ndarray | None = None) -> np.ndarray:
    """0-based rank of column ``target[q]`` in row q of ``scores``, ordered by
    descending score, then descending ``tiebreak`` (same shape), then column.

    Counts the columns ahead of each target with array comparisons, no sort.
    """
    rows = np.arange(len(scores))
    mine = scores[rows, target][:, None]
    ahead = scores > mine
    tied = scores == mine
    if tiebreak is not None:
        theirs = tiebreak[rows, target][:, None]
        ahead |= tied & (tiebreak > theirs)
        tied &= tiebreak == theirs
    tied &= np.arange(scores.shape[1]) < target[:, None]
    return np.count_nonzero(ahead | tied, axis=1)


@dataclass(frozen=True)
class _Units:
    """Row-normalized float64 unit stacks stored in blocks: a block is one
    (count, length, dim) array of stacks of one length, in input order,
    ``index[b]`` holds block b's stack indices in slot order, and
    ``stacks[index[b][s]]`` is the view ``blocks[b][s]``."""

    stacks: list[np.ndarray]
    blocks: list[np.ndarray]
    index: list[np.ndarray]


def _blocks(lengths: np.ndarray, dim: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Empty blocks for stacks of the given lengths, at most BLOCK_BYTES each
    (one stack at least), and each stack's block and slot."""
    block, slot = np.empty((2, len(lengths)), dtype=np.int64)
    shapes, filling = [], {}  # (count, length) per block; length -> block being filled
    for k, length in enumerate(lengths.tolist()):
        b = filling.get(length)
        if b is None or (shapes[b][0] + 1) * length * dim * 8 > BLOCK_BYTES:
            b = filling[length] = len(shapes)
            shapes.append([0, length])
        block[k], slot[k] = b, shapes[b][0]
        shapes[b][0] += 1
    return [np.empty((count, length, dim)) for count, length in shapes], block, slot


def _normalized(*groups, lengths) -> tuple[_Units, ...]:
    """Row-normalized float64 copies of iterables of unit stacks, one
    :class:`_Units` each.

    ``lengths`` holds each group's stack lengths.  A stack is an array, or
    ``(units, rows)`` for those rows of ``units``.  Every stack must be 2-d
    and of its stated length, and all must share one dimension.  Each stack
    is copied into its block as the iterable yields it, so no raw copy made
    by a generator accumulates.  Each filled block is then checked to be
    finite and normalized once, in place (row by row, as
    :func:`unit_normalize` normalizes one stack).
    """
    out = []
    ref = None
    for group, sizes in zip(groups, lengths):
        sizes = np.asarray(sizes, dtype=np.int64)
        stacks, (blocks, block, slot) = [], _blocks(sizes[:0], 0)  # kept if the group is empty
        for k, u in enumerate(group):
            u, rows = u if isinstance(u, tuple) else (u, None)
            u = np.asarray(u, dtype=np.float64)
            ref = u.shape if ref is None else ref
            if u.ndim != 2 or u.shape[1] != ref[1]:
                raise DataError(f"similarity: dimension mismatch {ref} vs {u.shape}")
            count = len(u) if rows is None else len(rows)
            if count != sizes[k]:
                raise DataError(f"similarity: a stack of {count} units where {sizes[k]} were expected")
            if k == 0:
                blocks, block, slot = _blocks(sizes, ref[1])
            view = blocks[block[k]][slot[k]]
            if rows is None:
                view[...] = u
            else:  # rows are in range; mode "raise" would copy through a buffer
                np.take(u, rows, axis=0, out=view, mode="clip")
            stacks.append(view)
        for b in blocks:
            if not np.all(np.isfinite(b)):
                raise DataError("similarity: non-finite input")
            unit_normalize(b, out=b)
        out.append(_Units(stacks, blocks, [np.flatnonzero(block == b) for b in range(len(blocks))]))
    return tuple(out)


def pair_units(corpus: list[SegmentedPair], model, background: str) -> tuple[_Units, _Units]:
    """A corpus's anchors and clips, normalized (see :func:`_normalized`):
    each pair's covered clips (taken straight into their blocks when there is
    no model), or all its clips when ``background`` is ``keep``."""
    f_anchor, f_clips = _transforms(model)
    covered = [None if background == "keep" else p.covered_indices for p in corpus]
    return _normalized(
        (f_anchor(p.anchor.units) for p in corpus),
        ((p.positive.units, rows) if model is None else f_clips(p.positive.units if rows is None else p.positive.units[rows])
         for p, rows in zip(corpus, covered)),
        lengths=([len(p.anchor) for p in corpus], [len(p.positive) if rows is None else rows.size for p, rows in zip(corpus, covered)]),
    )


def _score_matrix(rows: _Units, cols: _Units, measure: str) -> np.ndarray:
    """(len(rows.stacks), len(cols.stacks)) alignment scores of every row
    stack against every column stack, both row-normalized (see
    :func:`_normalized`).

    Each pair's cosines are ``row @ col.T``, turned into costs by
    ``align.align_cosines``, so the scores equal aligning pair by pair.  The
    alignment calls and their bands come from :func:`_plan`.  Each band, some
    row slots of one block against some column slots of one block, is one
    broadcast ``np.matmul`` of two block slices, written into the call's
    stack, and its scores go back as one block of the matrix.  A broadcast
    product makes the same per-matrix BLAS call as ``row @ col.T``, so it
    rounds identically; products are never padded, since a padded GEMM shape
    can round differently.

    The calls are split into :func:`_shares`, and every share runs the same
    loop: align a call, write its scores into the matrix.  This process
    aligns the first share, and a worker forked for each other share aligns
    that one.  With workers the matrix lies in a shared anonymous mapping,
    which every process writes straight into (and tracemalloc does not see).
    Share k's process is pinned, best-effort, to the k-th CPU this process
    may run on; this process's own mask is restored after the call.
    This process then waits for each worker and aligns again the whole share
    of one that failed or could not be started, overwriting whatever it
    wrote, so an error is raised as if no worker had run.  No worker
    outlives the call.

    A set scored against itself (``rows is cols``) under ``dtw`` aligns only
    the pairs whose row index is at most their column index and mirrors each
    score to ``[c, r]``: the entry of two stacks is the score with the
    earlier one as rows.  dtw's accumulated cost is exact under transposition
    (each cell adds the same cost to the minimum of the same three values),
    and so is its path length, except where a cell's vertical and horizontal
    predecessors tie below its diagonal one: there the two orientations can
    walk paths of different lengths, so the later stack as rows could score
    differently.  otam is not symmetric and aligns every pair.
    """
    mirror = rows is cols and measure == "dtw"
    calls = _plan(rows, cols, mirror)
    own, *shares = _shares(calls)
    shape = (len(rows.stacks), len(cols.stacks))
    if shares:
        import mmap  # here, not at the top, as signal below
        scores = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))
        cpus = sorted(os.sched_getaffinity(0))  # the CPUs _shares counted
    else:
        scores, cpus = np.empty(shape), [None]
    # One buffer for every call's stack: allocating a fresh one per call costs
    # page faults and, through heap fragmentation, peak memory.  It is zeroed
    # once, as padding only needs finite values: an earlier call leaves costs
    # in [0, 2] there, and no matrix's score reads its padding.
    buffer = np.zeros(max((np.prod(dims) for dims, _ in calls), default=0))

    def fill(share, cpu=None) -> None:
        """Align each call of ``share`` (on ``cpu`` alone, if given) and write its scores into the matrix."""
        if cpu is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        for dims, bands in share:
            stack = buffer[: np.prod(dims)].reshape(dims)
            sizes = [k * w for _, _, k, _, _, w in bands]
            ends = np.cumsum(sizes).tolist()
            shapes = [(rows.blocks[i].shape[1], cols.blocks[j].shape[1]) for i, _, _, j, _, _ in bands]
            for (i, s, k, j, c, w), (n, m), end in zip(bands, shapes, ends):
                out = stack[end - k * w : end].reshape(k, w, *dims[1:])[:, :, :n, :m]
                np.matmul(rows.blocks[i][s : s + k, None], cols.blocks[j][c : c + w].transpose(0, 2, 1)[None], out=out)
            done = align.align_cosines(stack, measure, np.repeat(shapes, sizes, axis=0), paths=False).scores()
            for (i, s, k, j, c, w), end in zip(bands, ends):
                scores[rows.index[i][s : s + k, None], cols.index[j][c : c + w]] = done[end - k * w : end].reshape(k, w)

    workers = []  # (share, pid) of each worker not yet reaped
    try:
        for k, share in enumerate(shares, 1):
            pid = _fork(fill, share, cpus[k % len(cpus)])  # % as the mask may have shrunk since _shares
            if pid is None:  # no process could be started
                own = own + share
            else:
                workers.append((share, pid))
        fill(own, cpus[0])
        while workers:
            share, pid = workers[0]
            failed = os.waitpid(pid, 0)[1] != 0
            workers.pop(0)
            if failed:
                fill(share)
    finally:
        if workers:  # this process raised
            import signal  # here, not at the top: the module adds 0.1 MB to the benchmark's peak RSS
        for _, pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if shares:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
    if mirror:  # row r's scores below the diagonal are column r's above it
        for r in range(1, len(scores)):
            scores[r, :r] = scores[:r, r]
    return scores


def _shares(calls: list) -> list[list]:
    """:func:`_plan`'s calls in W contiguous shares of about equal padded
    cells, W = min(CPUs this process may run on, cells // WORKER_CELLS), or
    all in one share when W < 2, when the platform cannot fork, or when other
    threads run (a forked child holds only the thread that forked it)."""
    total = sum(math.prod(dims) for dims, _ in calls)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, total // WORKER_CELLS)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [calls]
    shares, filled = [[]], 0
    for call in calls:  # in plain Python: np.cumsum and np.searchsorted here took 128 KB more resident memory
        if filled >= total * len(shares) / count:
            shares.append([])
        shares[-1].append(call)
        filled += math.prod(call[0])
    return shares


def _fork(work, *args) -> int | None:
    """Fork a worker that runs ``work(*args)`` and leaves through
    ``os._exit``, with status 0 once it returned and 1 on any exception;
    returns its pid, or None when no process could be started."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            gc.disable()  # garbage made before the fork is not finalized twice
            work(*args)
            status = 0
        finally:
            os._exit(status)
    return pid


def _plan(rows: _Units, cols: _Units, mirror: bool) -> list[tuple[tuple[int, int, int], list[tuple[int, ...]]]]:
    """The alignment calls of :func:`_score_matrix`, each as its padded stack
    shape (pairs, n, m) and its bands in stack order.  Band (i, s, k, j, c, w)
    is row slots s .. s + k - 1 of row block i against column slots
    c .. c + w - 1 of column block j, row by row; no per-pair index is formed.

    Tiles, every pair of one row block and one column block, come in
    descending (row length, column length).  A tile's rows each take all its
    columns or, with ``mirror``, those of index at least their own
    (consecutive rows that start at one column form one band).  A call is
    padded to its first pair's shape and holds one pair at least.  It ends
    for one of two reasons: it holds as many pairs as align.STACK_CELLS
    padded cells allow, or the next tile would widen its padding.  Row
    lengths only descend, so that is a tile of more columns than the call's.
    A call may thus end inside a band, between its rows or inside one.
    """
    tiles = sorted(((-rb.shape[1], -cb.shape[1]), i, j) for i, rb in enumerate(rows.blocks) for j, cb in enumerate(cols.blocks))
    calls, bands, count, cap = [], [], 0, 0
    for (a, b), i, j in tiles:
        a, b, tile_rows, tile_cols = -a, -b, rows.index[i], cols.index[j]
        if not mirror or tile_rows[-1] < tile_cols[0]:
            groups = [(0, len(tile_rows), 0)]  # (first row slot, end row slot, first column slot)
        elif tile_rows[0] > tile_cols[-1]:
            continue
        else:
            first = np.searchsorted(tile_cols, tile_rows)
            cuts = [0, *(np.flatnonzero(np.diff(first)) + 1).tolist(), len(first)]
            groups = [(lo, hi, int(first[lo])) for lo, hi in zip(cuts, cuts[1:])]
        for r0, r1, c0 in groups:
            w = len(tile_cols) - c0
            p, total = 0, (r1 - r0) * w  # p: pairs of the group planned so far
            while p < total:
                if count == cap or b > m:  # the call is full, or this tile would widen its padding
                    if count:
                        calls.append(((count, n, m), bands))
                    n, m, cap, bands, count = a, b, max(1, align.STACK_CELLS // (a * b)), [], 0
                t = min(total - p, cap - count)
                count, stop = count + t, p + t
                while p < stop:  # the rest of a row, whole rows, then the start of a row
                    y, x = divmod(p, w)
                    k = max(1, (stop - p) // w) if x == 0 else 1
                    span = w if k > 1 else min(w - x, stop - p)
                    bands.append((i, r0 + y, k, j, c0 + x, span))
                    p += k * span
    if count:
        calls.append(((count, n, m), bands))
    return calls


def retrieval_full(
    corpus: list[SegmentedPair],
    model=None,
    measure: str = "dtw",
    background: str = "remove",
    ks=(1, 5, 10),
) -> EvalReport:
    """Paragraph -> full-video retrieval under an alignment or voting measure.

    ``capavg`` lets each caption vote for the video owning its globally most
    similar clip; vote ties between videos break on summed best-clip
    similarity.  Ensemble measures min-max normalize each component's score
    vector per query to [0, 1] and average them.  ``background`` selects
    whether candidate videos keep clips outside every segment.
    """
    if measure not in RETRIEVAL_MEASURES:
        raise DataError(f"unknown retrieval measure {measure!r}, expected one of {RETRIEVAL_MEASURES}")
    if background not in ("keep", "remove"):
        raise DataError(f"background must be 'keep' or 'remove', got {background!r}")
    if len(corpus) < 2:
        raise DataError("retrieval needs at least 2 videos")
    ks = _check_ks(ks, len(corpus))
    anchors, clips = pair_units(corpus, model, background)
    n = len(corpus)

    scores, tiebreak = None, None
    if measure != "capavg":
        scores = _score_matrix(anchors, clips, "otam" if measure.startswith("otam") else "dtw")
    if measure.endswith("capavg"):
        pool = np.concatenate(clips.stacks, axis=0)
        owner = np.concatenate([np.full(len(c), v) for v, c in enumerate(clips.stacks)])
        starts = np.cumsum([0] + [len(c) for c in clips.stacks[:-1]])
        votes, sumsim = np.empty((n, n)), np.empty((n, n))
        for q in range(n):  # one query's captions x pool at a time
            sims = np.clip(anchors.stacks[q] @ pool.T, -1.0, 1.0)
            votes[q] = np.bincount(owner[np.argmax(sims, axis=1)], minlength=n)  # first max = stable clip order
            # each caption's best clip in each video, summed over captions
            # along a contiguous axis so it rounds like a 1-d sum per video
            sumsim[q] = np.ascontiguousarray(np.maximum.reduceat(sims, starts, axis=1).T).sum(axis=1)
        if scores is None:
            scores, tiebreak = votes, sumsim
        else:
            scores = (_minmax(scores) + _minmax(votes)) / 2.0

    ranks = _ranks(scores, np.arange(n), tiebreak)
    recalls = {k: float(np.mean(ranks < k)) for k in ks}
    per_query = [{"query": p.id, "rank": int(r) + 1} for p, r in zip(corpus, ranks)]
    return EvalReport(task="retrieval-full", measure=measure, recalls=recalls,
                      aux={"n_queries": float(n)}, per_query=per_query)


def retrieval_clip(corpus: list[SegmentedPair], model=None, ks=(1, 5, 10)) -> EvalReport:
    """Caption -> clip retrieval over the pooled clips of all videos.

    A caption counts at K when any clip of its own segment ranks in the
    top K by cosine similarity, that is when its best such clip (the first
    in pool order on ties) does.  Captions are scored against the pool and
    ranked RANK_ROWS at a time.
    """
    if len(corpus) < 2:
        raise DataError("retrieval needs at least 2 videos")
    offsets = np.cumsum([0] + [len(p.positive) for p in corpus])
    ks = _check_ks(ks, offsets[-1])
    queries, pool = (np.concatenate(units.stacks) for units in pair_units(corpus, model, "keep"))
    # caption i of a pair queries for its segment i
    truth = np.concatenate([np.array(p.segments) + offset for p, offset in zip(corpus, offsets)])

    ranks = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), RANK_ROWS):
        sims = queries[lo : lo + RANK_ROWS] @ pool.T
        np.clip(sims, -1.0, 1.0, out=sims)
        target = np.array([start + np.argmax(row[start:end]) for row, (start, end) in zip(sims, truth[lo : lo + RANK_ROWS])])
        ranks[lo : lo + RANK_ROWS] = _ranks(sims, target)
    recalls = {k: float(np.mean(ranks < k)) for k in ks}
    per_query = [{"query": q, "rank": int(r) + 1} for q, r in enumerate(ranks)]
    return EvalReport(task="retrieval-clip", measure="cosine", recalls=recalls,
                      aux={"n_queries": float(len(queries))}, per_query=per_query)


def localization(corpus: list[SegmentedPair], model=None) -> EvalReport:
    """Step localization: the fraction of each video's captions whose most
    similar clip (background included) falls inside their ground-truth
    range, averaged over videos."""
    if not corpus:
        raise DataError("empty corpus")
    anchors, clips = pair_units(corpus, model, "keep")
    recall = np.empty(len(corpus))
    for b, (pair, a, c) in enumerate(zip(corpus, anchors.stacks, clips.stacks)):
        pick = np.argmax(np.clip(a @ c.T, -1.0, 1.0), axis=1)  # caption i's clip, against segment i
        lo, hi = np.array(pair.segments).T
        recall[b] = np.mean((lo <= pick) & (pick < hi))
    return EvalReport(task="localize", measure="cosine", recalls={1: float(np.mean(recall))},
                      aux={"n_videos": float(len(corpus))})


def corpus_pair_match(corpus: list[SegmentedPair], model=None, measure: str = "dtw") -> float:
    """Fraction of warping-path entries whose clip lies in the matched
    caption's ground-truth range (alignment restricted to covered clips),
    averaged over all videos of a corpus.

    Aligns one zero-padded stack of the whole corpus's cosines, each pair's
    product written straight into it, and makes one pass over every path
    cell.
    """
    if not corpus:
        raise DataError("empty corpus")
    anchors, clips = pair_units(corpus, model, "remove")
    shapes = np.array([(len(a), len(c)) for a, c in zip(anchors.stacks, clips.stacks)])
    sims = np.zeros((len(corpus), *shapes.max(axis=0)))
    for (n, m), a, c, out in zip(shapes.tolist(), anchors.stacks, clips.stacks, sims):
        np.matmul(a, c.T, out=out[:n, :m])
    res = align.align_cosines(sims, measure, shapes)
    del sims
    # each path cell's pair, and its caption's span among the pair's covered
    # clips (caption i owns segment i)
    owner = np.repeat(np.arange(len(corpus)), res.lengths)
    cells = res.cells()
    first = np.cumsum(shapes[:, 0]) - shapes[:, 0]
    lo, hi = np.concatenate([p.covered_spans() for p in corpus])[first[owner] + cells[:, 0]].T
    hits = (lo <= cells[:, 1]) & (cells[:, 1] < hi)
    return float(np.mean(np.bincount(owner[hits], minlength=len(corpus)) / res.lengths))


def fewshot_eval(
    base_model,
    novel: list[LabeledVideo],
    way: int = 5,
    shot: int = 1,
    queries_per_class: int = 15,
    episodes: int = 1000,
    measure: str = "dtw",
    seed: int = 0,
) -> EvalReport:
    """Episodic N-way K-shot recognition by class-averaged sequence score.

    Per episode (seeded by (seed, episode_index) so parallel order cannot
    matter): sample ``way`` classes, disjoint supports and queries per class,
    score each query against every support, average scores per class, and
    predict the argmax class with ties going to the lowest class slot.
    Every (query, support) pair of novel videos is scored once, before any
    episode is drawn, into one (n, n) matrix: through retrieval's
    :func:`_score_matrix` or, for ``bag``, as the dot product of the two
    videos' normalized mean frames.  Under ``dtw`` the matrix is symmetric:
    each unordered pair is aligned once, with the video earlier in ``novel``
    as rows, and mirrored.  That equals aligning the query as rows except
    where a dtw cell's vertical and horizontal predecessors tie below its
    diagonal one, which exactly repeated frames can cause (see
    :func:`_score_matrix`).  Episodes are then drawn EPISODE_BLOCK at
    a time and read their scores from it, so memory stays flat in
    ``episodes``.
    Reports mean accuracy over episodes with a 95% normal-approximation CI.
    """
    if measure not in FEWSHOT_MEASURES:
        raise DataError(f"unknown few-shot measure {measure!r}, expected one of {FEWSHOT_MEASURES}")
    if way < 2 or shot < 1 or queries_per_class < 1 or episodes < 1:
        raise DataError("fewshot_eval: way >= 2, shot >= 1, queries_per_class >= 1, episodes >= 1")
    labels = sorted({v.label for v in novel})
    members = [np.array([i for i, v in enumerate(novel) if v.label == lab]) for lab in labels]
    if len(labels) < way:
        raise DataError(f"need at least {way} classes, got {len(labels)}")
    needed = shot + queries_per_class
    for lab, idx in zip(labels, members):
        if len(idx) < needed:
            raise DataError(f"class {lab!r} has {len(idx)} videos, needs {needed}")

    _, f_clips = _transforms(base_model)
    n = len(novel)
    if measure == "bag":
        (means,) = _normalized((f_clips(v.frames.units).mean(axis=0, keepdims=True) for v in novel), lengths=[[1] * n])
        means = np.concatenate(means.blocks)[:, 0]  # every mean has one row
        scores = np.empty((n, n))
        for q in range(n):  # row by row, so no (n, n, dim) product is formed
            scores[q] = np.sum(means[q] * means, axis=1)
        del means  # the episodes read only the scores
    else:
        (units,) = _normalized((f_clips(v.frames.units) for v in novel), lengths=[[len(v.frames.units) for v in novel]])
        scores = _score_matrix(units, units, measure)
        del units  # the episodes read only the scores, and reuse its memory
    accuracies = np.empty(episodes)
    for start in range(0, episodes, EPISODE_BLOCK):
        block = range(start, min(start + EPISODE_BLOCK, episodes))
        queries = np.empty((len(block), way, queries_per_class), dtype=np.int64)
        supports = np.empty((len(block), way, shot), dtype=np.int64)
        for row, ep in enumerate(block):
            rng = np.random.default_rng((seed, ep))
            class_pick = rng.choice(len(labels), size=way, replace=False)
            for slot, ci in enumerate(class_pick):
                perm = members[ci][rng.permutation(len(members[ci]))]
                supports[row, slot] = perm[:shot]
                queries[row, slot] = perm[shot:needed]
        drawn = scores[queries.reshape(len(block), -1, 1), supports.reshape(len(block), 1, -1)]
        pred = np.argmax(drawn.reshape(len(block), -1, way, shot).mean(axis=3), axis=2)  # first max = lowest class slot
        accuracies[start : block.stop] = np.mean(pred == np.arange(way).repeat(queries_per_class), axis=1)

    acc = float(np.mean(accuracies))
    ci = float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return EvalReport(
        task=f"fewshot-{way}way-{shot}shot",
        measure=measure,
        recalls={},
        aux={"accuracy": acc, "ci95": ci, "episodes": float(episodes)},
    )
