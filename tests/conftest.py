import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from tempalign import align, evaluate
from tempalign.align import MEASURES
from tempalign.core import DataError, EmbeddingSequence, SegmentedPair, similarity_matrix
from tempalign.loss import LossConfig, _masked_infonce, column_spans, seq_grad_core
from tempalign.negatives import Negatives

# hypothesis's pytest plugin imports this module (and libcst) only to report a
# failing example, and the import warns.  filterwarnings = ["error"] would turn
# that into an INTERNALERROR that stops the whole run, so import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def basis(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def seq(vectors, sid="s") -> EmbeddingSequence:
    return EmbeddingSequence(sid, np.asarray(vectors, dtype=float))


def make_pair(captions, clips, segments, pid="p0") -> SegmentedPair:
    return SegmentedPair(
        id=pid,
        anchor=seq(captions, f"{pid}-captions"),
        positive=seq(clips, f"{pid}-clips"),
        segments=segments,
    )


def with_units(pair: SegmentedPair, anchor_units: np.ndarray, positive_units: np.ndarray) -> SegmentedPair:
    """Same structure with replaced embeddings (e.g. after projection)."""
    return SegmentedPair(
        id=pair.id,
        anchor=EmbeddingSequence(pair.anchor.id, anchor_units),
        positive=EmbeddingSequence(pair.positive.id, positive_units),
        segments=pair.segments,
    )


def covered_units(pair: SegmentedPair) -> np.ndarray:
    """The pair's clips that some segment covers, in temporal order."""
    return pair.positive.units[pair.covered_indices]


def covered_view(pair: SegmentedPair) -> SegmentedPair:
    """Background-free view: clips restricted to segment-covered ones,
    segment ranges remapped to the compacted positions.  A pair without
    background clips is its own view (a copy would be equal)."""
    if not pair.background_mask.any():
        return pair
    return SegmentedPair(
        id=pair.id,
        anchor=pair.anchor,
        positive=EmbeddingSequence(pair.positive.id, covered_units(pair)),
        segments=pair.covered_spans(),
    )


def cost_matrix(a: EmbeddingSequence, b: EmbeddingSequence) -> np.ndarray:
    """Pairwise matching costs, cost(i, j) = 1 - cosine(a_i, b_j), in [0, 2]."""
    return 1.0 - similarity_matrix(a.units, b.units)


def pad_costs(costs) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad 2-d cost matrices into one (batch, n, m) stack; returns it
    and each item's (rows, columns), the arguments align_stack takes for a
    ragged batch."""
    shapes = np.array([np.shape(c) for c in costs])
    stack = np.zeros((len(costs), *shapes.max(axis=0)))
    for out, c, (n, m) in zip(stack, costs, shapes):
        out[:n, :m] = c
    return stack, shapes


def reference_scores(rows, cols, measure: str) -> np.ndarray:
    """(len(rows), len(cols)) alignment scores of every (row, column) pair of
    unit stacks, one similarity_matrix per pair and one padded alignment call."""
    stack, shapes = pad_costs([1.0 - similarity_matrix(r, c) for r in rows for c in cols])
    return align.align_stack(stack, measure, shapes).scores().reshape(len(rows), len(cols))


class StackCall(tuple):
    """The (batch, n, m) shape of one align.align_stack call's stack, with the
    item ``shapes`` it aligned (a (batch, 2) array) and its ``paths`` flag."""

    def __new__(cls, costs, shapes, paths):
        call = super().__new__(cls, np.shape(costs))
        batch, n, m = call
        call.shapes = np.tile((n, m), (batch, 1)) if shapes is None else np.array(shapes)
        call.paths = paths
        return call


@pytest.fixture
def stack_calls(monkeypatch):
    """A :class:`StackCall` for every align.align_stack call, in order.  The
    all-pairs scorer aligns in this process alone, since a forked worker's
    calls are recorded only in the worker."""
    calls = []
    kernel = align.align_stack
    monkeypatch.setattr(evaluate, "WORKER_CELLS", sys.maxsize)

    def recording(costs, measure="dtw", shapes=None, paths=True):
        calls.append(StackCall(costs, shapes, paths))
        return kernel(costs, measure, shapes, paths=paths)

    monkeypatch.setattr(align, "align_stack", recording)
    return calls


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process (waitpid: {left})")


def split_perms(negs) -> list[np.ndarray]:
    """Each drawn negative's permutation, in draw order."""
    return np.split(negs.perms, np.cumsum(negs.lengths)[:-1])


def check_path(path, shape, measure: str) -> None:
    """Structural warping-path invariants for either measure."""
    n, m = shape
    assert len(path) >= 1
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in ((1, 1), (1, 0), (0, 1))
    rows = {i for i, _ in path}
    cols = {j for _, j in path}
    assert rows == set(range(n)), "every anchor row must be matched"
    if measure == "dtw":
        assert path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
        assert cols == set(range(m)), "every column must be matched under dtw"
    else:
        assert path[0][0] == 0 and path[-1][0] == n - 1
        j0, j1 = path[0][1], path[-1][1]
        assert j0 <= j1
        assert cols == set(range(j0, j1 + 1))


def infonce_with_grad(pos_score: float, neg_scores, tau: float) -> tuple[float, float, np.ndarray]:
    """-log( e^{pos/tau} / (e^{pos/tau} + sum_k e^{neg_k/tau}) ), stably, plus
    d(loss)/d(pos) and d(loss)/d(neg_k) in closed form.

    The loss is always >= 0; it equals log(1 + K) when all K + 1 scores are
    equal, and 0 when there are no negatives.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    scores = np.concatenate(([float(pos_score)], np.asarray(neg_scores, dtype=np.float64).ravel()))
    if not np.all(np.isfinite(scores)):
        raise ValueError("infonce: non-finite score")
    loss, dz = _masked_infonce(scores[None] / tau, np.ones((1, scores.size), dtype=bool), np.zeros(1, dtype=np.int64))
    return float(loss[0]), dz[0, 0] / tau, dz[0, 1:] / tau


@dataclass
class PairSeqLoss:
    """Sequence InfoNCE of one pair (see :func:`seq_infonce`)."""

    loss: float
    scores: np.ndarray
    candidates: list[str]
    paths: align.Alignments
    #: d(loss)/d(similarity) per source id, an (n_anchor, n_covered) matrix each
    grad_by_source: dict[str, np.ndarray]


def seq_infonce(pair: SegmentedPair, negs: Negatives, cfg: LossConfig, corpus=None) -> PairSeqLoss:
    """Sequence-level InfoNCE of one pair and its fixed-path gradient w.r.t.
    every touched similarity entry; loss 0 when there are no negatives.

    Negatives drawn from other pairs read those pairs' covered units from
    ``corpus``.
    """
    by_id = {p.id: p for p in corpus or ()} | {pair.id: pair}
    order = list(dict.fromkeys((pair.id, *negs.sources)))
    for src in order:
        if src not in by_id:
            raise ValueError(f"negative references unknown pair {src!r}; pass the corpus")
    units = [covered_units(by_id[src]) for src in order]
    spans = column_spans(order, [len(u) for u in units])
    sims = similarity_matrix(pair.anchor.units, np.concatenate(units))
    res = seq_grad_core(sims, [(0, len(sims))], spans, [pair.id], [negs], cfg)
    by_source = {src: res.grad[:, lo:hi] for src, (lo, hi) in spans.items()}
    return PairSeqLoss(float(res.losses[0]), res.scores, res.candidates, res.paths, by_source)


# Preference on exact ties: diagonal, then vertical (previous row, same
# column), then horizontal (same row, previous column).
_STEPS = ((1, 1), (1, 0), (0, 1))

_BRUTE_FORCE_MAX_CELLS = 30


@dataclass
class OracleResult:
    """Cheapest path, its summed cost and summed similarity ``len(path) - distance``."""

    path: list[tuple[int, int]]
    distance: float
    score: float


def brute_force_align(cost, measure: str = "dtw") -> OracleResult:
    """Exhaustive minimum over all admissible warping paths (test oracle).

    Enumerates every monotone path satisfying the measure's boundary rule and
    returns the cheapest one, breaking exact-cost ties by the
    lexicographically smallest path.  Limited to cost matrices of at most
    30 cells.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise DataError(f"alignment: cost matrix must be 2-d and nonempty, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DataError("alignment: cost matrix contains non-finite values")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    n, m = cost.shape
    if n * m > _BRUTE_FORCE_MAX_CELLS:
        raise DataError(f"brute_force_align: {n}x{m} exceeds the {_BRUTE_FORCE_MAX_CELLS}-cell bound")

    best_cost = np.inf
    best_path: tuple[tuple[int, int], ...] | None = None

    def consider(path: tuple[tuple[int, int], ...], total: float) -> None:
        nonlocal best_cost, best_path
        if total < best_cost or (total == best_cost and (best_path is None or path < best_path)):
            best_cost = total
            best_path = path

    def extend(i: int, j: int, path: tuple[tuple[int, int], ...], total: float) -> None:
        if i == n - 1:
            if measure == "otam" or j == m - 1:
                consider(path, total)
        for di, dj in _STEPS:
            # A path occupies exactly one cell of row 0 under otam.
            if measure == "otam" and i == 0 and (di, dj) == (0, 1):
                continue
            ni, nj = i + di, j + dj
            if ni >= n or nj >= m:
                continue
            extend(ni, nj, path + ((ni, nj),), total + cost[ni, nj])

    starts = [(0, 0)] if measure == "dtw" else [(0, j) for j in range(m)]
    for si, sj in starts:
        extend(si, sj, ((si, sj),), float(cost[si, sj]))

    path = list(best_path)
    return OracleResult(path=path, distance=float(best_cost), score=len(path) - float(best_cost))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
