"""Contrastive objectives over alignment scores, with analytic gradients.

The sequence-level objective is an InfoNCE over one positive alignment score
and N negative alignment scores, where each score is the (optionally
length-normalized) summed cosine similarity along the minimum-cost warping
path of that candidate.  Gradients hold each candidate's optimal path fixed:
wherever the argmin path is unique this is the exact derivative of the
piecewise objective, and at ties it is a subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class SeqLossResult:
    loss: float
    #: alignment score of each candidate, positive first
    scores: np.ndarray
    #: source id of each candidate, positive first
    candidates: list[str]
    #: the candidates' optimal paths, in the same order
    paths: align.Alignments
    #: d(loss)/d(similarity entry) per source id, as dense (n_anchor,
    #: n_covered) matrices over the source's covered positions; the own id
    #: keys the matrix over the positive's covered clips.
    grad_by_source: dict[str, np.ndarray]


def seq_grad_core(
    anchor_units: np.ndarray,
    units_of: dict[str, np.ndarray],
    self_id: str,
    negs: list[NegativePermutation],
    cfg: LossConfig,
) -> SeqLossResult:
    """Loss and fixed-path gradient of one anchor against its positive and negatives.

    ``units_of[source_id]`` holds each source's covered units: the positive
    is ``units_of[self_id]``, and a negative's ``perm`` names columns of its
    source (rows of the anchor for visual-anchor).  The positive and every
    negative are aligned in one batched call.
    """
    sims = {self_id: similarity_matrix(anchor_units, units_of[self_id])}
    all_rows, all_cols = np.arange(anchor_units.shape[0]), np.arange(sims[self_id].shape[1])
    # Per candidate: (source id, rows, columns) selecting its similarity
    # matrix from the source's.
    specs = [(self_id, all_rows, all_cols)]
    for neg in negs:
        if neg.strategy == "visual_anchor":
            specs.append((self_id, neg.perm, all_cols))
            continue
        if neg.source_id not in sims:
            if neg.source_id not in units_of:
                raise ValueError(f"negative references unknown pair {neg.source_id!r}; pass the corpus")
            sims[neg.source_id] = similarity_matrix(anchor_units, units_of[neg.source_id])
        specs.append((neg.source_id, all_rows, neg.perm))

    stack, shapes = align.pad_costs([1.0 - sims[src][np.ix_(rows, cols)] for src, rows, cols in specs])
    paths = align.align_stack(stack, cfg.measure, shapes)
    scores = paths.scores(cfg.normalize_score)
    loss, dpos, dnegs = infonce_with_grad(scores[0], scores[1:], cfg.tau)
    dscore = np.concatenate(([dpos], dnegs))
    if cfg.normalize_score:
        dscore = dscore / paths.lengths
    grad_by_source = {src: np.zeros(sim.shape) for src, sim in sims.items()}
    for k, (src, rows, cols) in enumerate(specs):
        path = paths.path(k)
        # the cells of one path are distinct: permutations never repeat an index
        grad_by_source[src][rows[path[:, 0]], cols[path[:, 1]]] += dscore[k]
    return SeqLossResult(loss, scores, [src for src, _, _ in specs], paths, grad_by_source)


def seq_infonce(
    pair: SegmentedPair,
    negs: list[NegativePermutation],
    cfg: LossConfig,
    corpus=None,
) -> SeqLossResult:
    """Sequence-level InfoNCE of one pair and its fixed-path gradient w.r.t.
    every touched similarity entry; loss 0 when there are no negatives.

    Negatives drawn from other pairs read those pairs' covered units from
    ``corpus``.
    """
    pair.require_canonical()
    drawn_from = {neg.source_id for neg in negs}
    units_of = {p.id: p.covered_units() for p in corpus or () if p.id in drawn_from}
    units_of[pair.id] = pair.covered_units()
    return seq_grad_core(pair.anchor.units, units_of, pair.id, negs, cfg)


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
