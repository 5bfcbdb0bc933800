"""Contrastive objectives over alignment scores, with analytic gradients.

The sequence-level objective is an InfoNCE over one positive alignment score
and N negative alignment scores, where each score is the (optionally
length-normalized) summed cosine similarity along the minimum-cost warping
path of that candidate.  Gradients hold each candidate's optimal path fixed:
wherever the argmin path is unique this is the exact derivative of the
piecewise objective, and at ties it is a subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import align
from .core import SegmentedPair, similarity_matrix
from .negatives import NegativePermutation


@dataclass
class LossConfig:
    """Temperature, joint weights, and how alignment scores are produced."""

    tau: float = 1.0
    w_unit: float = 0.3
    w_seq: float = 0.7
    normalize_score: bool = True
    measure: str = "dtw"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.w_unit < 0 or self.w_seq < 0 or self.w_unit + self.w_seq <= 0:
            raise ValueError(f"weights must be nonnegative with positive sum, got ({self.w_unit}, {self.w_seq})")
        if self.measure not in ("dtw", "otam"):
            raise ValueError(f"measure must be 'dtw' or 'otam', got {self.measure!r}")


def unit_infonce(pos_score: float, neg_scores, tau: float = 1.0) -> float:
    """-log( e^{pos/tau} / (e^{pos/tau} + sum_k e^{neg_k/tau}) ), stably.

    Always >= 0; equals log(1 + K) when all K + 1 scores are equal, and 0
    when there are no negatives.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return infonce_with_grad(pos_score, neg_scores, tau)[0]


def infonce_with_grad(pos_score: float, neg_scores, tau: float) -> tuple[float, float, np.ndarray]:
    """Loss plus d(loss)/d(pos) and d(loss)/d(neg_k) in closed form."""
    scores = np.concatenate(([float(pos_score)], np.asarray(neg_scores, dtype=np.float64).ravel()))
    if not np.all(np.isfinite(scores)):
        raise ValueError("infonce: non-finite score")
    z = scores / tau
    z -= z.max()
    w = np.exp(z)
    total = w.sum()
    w /= total
    return float(np.log(total) - z[0]), (w[0] - 1.0) / tau, w[1:] / tau


@dataclass
class CandidateScore:
    """One scored candidate: its path and the unit indices it touches.

    ``entries[k] = (anchor_index, source_index)`` identifies the similarity
    entry behind path step k; source indices refer to the candidate's source
    sequence.  For visual-anchor negatives the anchor index is the permuted
    caption and the source index the covered clip, so anchor always comes
    first.
    """

    label: str
    source_id: str
    score: float
    distance: float
    length: int
    entries: list[tuple[int, int]]


@dataclass
class SeqLossResult:
    loss: float
    candidates: list[CandidateScore]
    #: d(loss)/d(similarity entry) accumulated per source pair id as dense
    #: (n_anchor, n_source_covered) matrices in covered-position space; the
    #: pair's own id keys the matrix over its own covered clips.  Populated
    #: when gradients are requested.
    grad_by_source: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def scores(self) -> np.ndarray:
        return np.array([c.score for c in self.candidates])


def seq_grad_core(
    anchor_units: np.ndarray,
    covered_units: np.ndarray,
    covered_index: np.ndarray,
    source_id: str,
    negs: list[NegativePermutation],
    cfg: LossConfig,
    others: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    want_grad: bool = True,
) -> SeqLossResult:
    """Array-level engine behind seq_infonce / seq_infonce_grad and training.

    ``covered_index`` maps similarity-matrix columns back to original unit
    indices of the positive sequence.  Negatives drawn from other sources
    read ``others[source_id] = (units, original_indices)``.  The positive and
    every negative are aligned in one batched call.
    """
    # source id -> (similarity matrix, original unit index of each column,
    # column of each original unit index)
    sources = {source_id: (similarity_matrix(anchor_units, covered_units), np.asarray(covered_index),
                           {int(j): q for q, j in enumerate(covered_index)})}
    all_rows, all_cols = np.arange(anchor_units.shape[0]), np.arange(len(covered_index))

    # Per candidate: (label, source id, rows, columns) selecting its
    # similarity matrix from the source's.
    specs = [("positive", source_id, all_rows, all_cols)]
    for neg in negs:
        if neg.strategy == "visual_anchor":
            specs.append((neg.strategy, source_id, neg.perm, all_cols))
            continue
        if neg.source_id not in sources:
            if neg.source_id not in others:
                raise ValueError(f"negative references unknown pair {neg.source_id!r}; pass the corpus")
            units, orig = others[neg.source_id]
            sources[neg.source_id] = (similarity_matrix(anchor_units, units), np.asarray(orig),
                                      {int(j): q for q, j in enumerate(orig)})
        col_of = sources[neg.source_id][2]
        try:
            cols = np.asarray([col_of[int(j)] for j in neg.perm], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"negative for {neg.source_id!r} references uncovered unit {exc}") from exc
        specs.append((neg.strategy, neg.source_id, all_rows, cols))

    stack, shapes = align.pad_costs([1.0 - sources[src][0][np.ix_(rows, cols)] for _, src, rows, cols in specs])
    aligned = align.align_stack(stack, cfg.measure, shapes)
    scores = aligned.scores(cfg.normalize_score)
    candidates = []
    cells = []  # per candidate: path cells as (rows, columns) of its source's similarity matrix
    for k, (label, src, rows, cols) in enumerate(specs):
        path = np.array(aligned.path(k))
        r, c = rows[path[:, 0]], cols[path[:, 1]]
        cells.append((r, c))
        candidates.append(CandidateScore(
            label=label, source_id=src, score=float(scores[k]), distance=float(aligned.distances[k]),
            length=int(aligned.lengths[k]), entries=list(zip(r.tolist(), sources[src][1][c].tolist())),
        ))
    if not negs:
        return SeqLossResult(loss=0.0, candidates=candidates)

    loss, dpos, dnegs = infonce_with_grad(scores[0], scores[1:], cfg.tau)
    out = SeqLossResult(loss=loss, candidates=candidates)
    if not want_grad:
        return out

    dscore = np.concatenate(([dpos], dnegs))
    if cfg.normalize_score:
        dscore = dscore / aligned.lengths
    by_source = {src: np.zeros(sim.shape) for src, (sim, _, _) in sources.items()}
    for k, (_, src, _, _) in enumerate(specs):
        # the cells of one path are distinct: permutations never repeat an index
        by_source[src][cells[k]] += dscore[k]
    out.grad_by_source = by_source
    return out


def seq_infonce(
    pair: SegmentedPair,
    negs: list[NegativePermutation],
    cfg: LossConfig,
    corpus=None,
) -> tuple[float, SeqLossResult]:
    """Sequence-level InfoNCE for one pair; loss 0 when there are no negatives."""
    result = seq_infonce_grad(pair, negs, cfg, corpus, want_grad=False)
    return result.loss, result


def seq_infonce_grad(
    pair: SegmentedPair,
    negs: list[NegativePermutation],
    cfg: LossConfig,
    corpus=None,
    *,
    want_grad: bool = True,
) -> SeqLossResult:
    """Loss and fixed-path gradient w.r.t. every touched similarity entry."""
    pair.require_canonical()
    drawn_from = {neg.source_id for neg in negs}
    others = {p.id: (p.covered_units(), p.covered_indices) for p in corpus or () if p.id in drawn_from}
    return seq_grad_core(
        pair.anchor.units, pair.covered_units(), pair.covered_indices, pair.id, negs, cfg, others,
        want_grad=want_grad,
    )


def unit_term_video_text(
    sims_covered: np.ndarray,
    segment_ranges: list[tuple[int, int]],
    tau: float,
) -> tuple[float, np.ndarray]:
    """Per-unit InfoNCE for a caption/clip pair, with gradient.

    One term per (caption i, clip q inside caption i's span); its negatives
    are this video's covered clips outside the span (intra-video).  Returns
    the mean term loss and d(loss)/d(sims) of the same shape.
    """
    sims = np.asarray(sims_covered, dtype=np.float64)
    n_anchor, n_clips = sims.shape
    grad = np.zeros_like(sims)
    losses = []
    terms = []
    for i, (lo, hi) in enumerate(segment_ranges):
        out_cols = np.concatenate((np.arange(0, lo), np.arange(hi, n_clips)))
        for q in range(lo, hi):
            loss, dpos, dnegs = infonce_with_grad(sims[i, q], sims[i, out_cols], tau)
            losses.append(loss)
            terms.append((i, q, out_cols, dpos, dnegs))
    if not losses:
        return 0.0, grad
    scale = 1.0 / len(losses)
    for i, q, out_cols, dpos, dnegs in terms:
        grad[i, q] += dpos * scale
        if out_cols.size:
            grad[i, out_cols] += dnegs * scale
    return float(np.mean(losses)), grad


def unit_term_video_only(sims_self: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Per-frame InfoNCE: frame i against its own projection, negatives are
    the other frames of the same video."""
    sims = np.asarray(sims_self, dtype=np.float64)
    n = sims.shape[0]
    grad = np.zeros_like(sims)
    losses = []
    for i in range(n):
        out_cols = np.concatenate((np.arange(0, i), np.arange(i + 1, n)))
        loss, dpos, dnegs = infonce_with_grad(sims[i, i], sims[i, out_cols], tau)
        losses.append(loss)
        grad[i, i] += dpos
        if out_cols.size:
            grad[i, out_cols] += dnegs
    grad /= max(n, 1)
    return float(np.mean(losses)), grad


def joint_loss(unit_terms, seq_terms, cfg: LossConfig) -> float:
    """w_unit * mean(unit losses) + w_seq * mean(seq losses)."""
    unit_terms = list(unit_terms)
    seq_terms = list(seq_terms)
    if not unit_terms and not seq_terms:
        raise ValueError("joint_loss: no terms")
    m_unit = float(np.mean(unit_terms)) if unit_terms else 0.0
    m_seq = float(np.mean(seq_terms)) if seq_terms else 0.0
    return cfg.w_unit * m_unit + cfg.w_seq * m_seq
