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
# Unused here: kept only as the attribute perfbench's core.sim layer hooks,
# until the benchmark drops that hook.
from .core import similarity_matrix  # noqa: F401  (hooked by perfbench/layertrace.py)
from .negatives import Negatives


@dataclass
class LossConfig:
    """Temperature, joint weights, and how alignment scores are produced."""

    tau: float = 1.0
    w_unit: float = 0.3
    w_seq: float = 0.7
    normalize_score: bool = True
    measure: str = "dtw"

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        weights = (self.w_unit, self.w_seq)
        if not np.all(np.isfinite(weights)) or min(weights) < 0 or sum(weights) <= 0:
            raise ValueError(f"weights must be finite and nonnegative with positive sum, got {weights}")
        if self.measure not in align.MEASURES:
            raise ValueError(f"measure must be one of {align.MEASURES}, got {self.measure!r}")


def _masked_infonce(z: np.ndarray, mask: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """InfoNCE of entry ``pos[r]`` of each row r of a logit matrix against the
    row's other entries where ``mask`` holds; each row's loss and d(loss)/d(z)."""
    z = np.where(mask, z, -np.inf)
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    total = w.sum(axis=1, keepdims=True)
    w /= total
    rows = np.arange(len(z))
    w[rows, pos] -= 1.0
    return np.log(total[:, 0]) - z[rows, pos], w


def column_spans(ids, lengths) -> dict:
    """Consecutive ranges of the given lengths from 0, keyed by ``ids`` in order."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return dict(zip(ids, zip([0] + ends[:-1], ends)))


@dataclass
class SeqLossResult:
    """Sequence InfoNCE of every item of a batch."""

    #: each item's loss
    losses: np.ndarray
    #: alignment score of each candidate, item by item, each item's positive first
    scores: np.ndarray
    #: source id of each candidate, in the same order
    candidates: list[str]
    #: the candidates' optimal paths, in the same order
    paths: align.Alignments
    #: d(sum of the losses)/d(sims), in the shape of the batch's similarity
    #: matrix; item b's rows hold d(loss_b)/d(sims), nonzero only in the
    #: columns of the sources b reads
    grad: np.ndarray


def seq_grad_core(sims: np.ndarray, rows: list[tuple[int, int]], spans: dict, ids: list[str], negs: list[Negatives],
                  cfg: LossConfig) -> SeqLossResult:
    """Loss and fixed-path gradient of every item of a batch against its
    positive and negatives.

    ``sims`` is the batch's one similarity matrix: every item's anchor rows,
    item b's at ``rows[b]``, against the covered units of every source the
    batch reads, side by side, at the column ranges ``spans`` maps each
    source id to.  Item b's positive is its own source ``ids[b]``; a negative
    permutes its source's columns (the item's anchor rows for visual-anchor).
    Every candidate's cosines are gathered with one index into ``sims``, all
    candidates are aligned in one padded stack (``align.align_cosines``), and
    all path gradients are scattered by one ``bincount``.
    """
    row_idx, col_idx, n_rows, n_cols, candidates = [], [], [], [], []
    for (r0, r1), own, neg in zip(rows, ids, negs):
        n_anchor, k = r1 - r0, len(neg)
        lo, hi = spans[own]
        all_rows, own_cols = np.arange(r0, r1), np.arange(lo, hi)
        if neg.permutes_anchor:
            row_idx += [all_rows, neg.perms + r0]
            n_rows += [[n_anchor], neg.lengths]
            col_idx.append(np.tile(own_cols, k + 1))
            n_cols.append(np.full(k + 1, hi - lo))
        else:
            starts = np.array([spans[src][0] for src in neg.sources], dtype=np.int64)
            row_idx.append(np.tile(all_rows, k + 1))
            n_rows.append(np.full(k + 1, n_anchor))
            col_idx += [own_cols, neg.perms + np.repeat(starts, neg.lengths)]
            n_cols += [[hi - lo], neg.lengths]
        candidates += [own, *neg.sources]
    shapes = np.column_stack((np.concatenate(n_rows), np.concatenate(n_cols)))
    counts = np.array([len(neg) + 1 for neg in negs])
    # Candidate c's (row, column) cell is sims[row_at[c, i], col_at[c, j]];
    # padding points at entry (0, 0), which align_stack never reads into the
    # candidate's own result.
    n, m = shapes.max(axis=0)
    row_at = np.zeros((len(shapes), n), dtype=np.int64)
    row_at[np.arange(n) < shapes[:, :1]] = np.concatenate(row_idx)
    col_at = np.zeros((len(shapes), m), dtype=np.int64)
    col_at[np.arange(m) < shapes[:, 1:]] = np.concatenate(col_idx)
    paths = align.align_cosines(sims[row_at[:, :, None], col_at[:, None, :]], cfg.measure, shapes)
    scores = paths.scores(cfg.normalize_score)

    # InfoNCE per item over its candidates' scores, positive first
    mask = np.arange(counts.max()) < counts[:, None]
    z = np.zeros(mask.shape)
    z[mask] = scores / cfg.tau
    losses, dz = _masked_infonce(z, mask, np.zeros(len(counts), dtype=np.int64))
    dscore = dz[mask] / cfg.tau
    if cfg.normalize_score:
        dscore = dscore / paths.lengths
    # Every path cell as a flat index into sims, candidate by candidate so
    # that each entry sums its candidates in order.
    cells = paths.cells()
    owner = np.repeat(np.arange(len(shapes)), paths.lengths)
    at = row_at[owner, cells[:, 0]] * sims.shape[1] + col_at[owner, cells[:, 1]]
    grad = np.bincount(at, weights=dscore[owner], minlength=sims.size).reshape(sims.shape)
    return SeqLossResult(losses, scores, candidates, paths, grad)


def unit_term_video_text(sims: np.ndarray, rows: list[tuple[int, int]], cols: list[tuple[int, int]],
                         spans: list[list[tuple[int, int]]], tau: float, grad: np.ndarray, weight: float) -> np.ndarray:
    """Per-unit InfoNCE of every item of a batch, with gradient.

    Item b's captions are the rows ``rows[b]`` of the batch matrix ``sims``
    and its covered clips the columns ``cols[b]``; caption i's clips are
    ``spans[b][i]``, counted from the item's first column.  One term per
    (caption i, clip q inside its span); its negatives are the item's clips
    outside the span (intra-video).  Every term is one row of one masked
    log-sum-exp.  Returns each item's mean term loss, and adds ``weight``
    times d(sum of those)/d(sims) into ``grad``, a C-contiguous array of the
    shape of ``sims``; only each item's rows x columns change.
    """
    lo, hi = np.array([span for item in spans for span in item], dtype=np.int64).reshape(-1, 2).T
    n_captions = np.array([len(item) for item in spans])
    c0, c1 = np.array(cols, dtype=np.int64).reshape(-1, 2).T
    owner = np.repeat(np.arange(len(spans)), n_captions)  # each caption's item
    first = np.array([r for r, _ in rows], dtype=np.int64) - (np.cumsum(n_captions) - n_captions)
    row = first[owner] + np.arange(lo.size)  # each caption's row of sims
    width = c1 - c0
    j = np.arange(width.max())
    # each caption's row, cut to its item's columns (clamped past them)
    at = row[:, None] * sims.shape[1] + np.minimum(c0[owner, None] + j, sims.shape[1] - 1)
    # one term per (caption, clip of its span), caption by caption
    sizes = hi - lo
    caption = np.repeat(np.arange(lo.size), sizes)
    clip = np.arange(caption.size) - np.repeat(np.cumsum(sizes) - hi, sizes)
    item = owner[caption]
    mask = (j < width[item, None]) & ((j < lo[caption, None]) | (j >= hi[caption, None]) | (j == clip[:, None]))
    losses, dz = _masked_infonce(sims.reshape(-1)[at[caption]] / tau, mask, clip)
    n_terms = np.bincount(item, minlength=len(spans))
    dz /= tau * n_terms[item, None]
    # each caption's terms summed in term order (np.add.at: a reduceat or
    # an index built for bincount read 0.1 MB more peak RSS in a fit)
    per_caption = np.zeros(at.shape)
    np.add.at(per_caption, caption, dz)
    own = j < width[owner, None]
    grad.reshape(-1)[at[own]] += weight * per_caption[own]
    return np.bincount(item, weights=losses, minlength=len(spans)) / n_terms


def unit_term_video_only(sims_self: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Per-frame InfoNCE: frame i against its own projection, negatives are
    the other frames of the same video (each frame its own one-frame span).
    Training does not call it: it stays only as a perfbench hook target."""
    sims = np.asarray(sims_self, dtype=np.float64)
    grad = np.zeros(sims.shape)
    n, m = sims.shape
    losses = unit_term_video_text(sims, [(0, n)], [(0, m)], [[(i, i + 1) for i in range(n)]], tau, grad, 1.0)
    return float(losses[0]), grad


def joint_loss(unit_terms, seq_terms, cfg: LossConfig) -> float:
    """w_unit * mean(unit losses) + w_seq * mean(seq losses)."""
    unit_terms = list(unit_terms)
    seq_terms = list(seq_terms)
    if not unit_terms and not seq_terms:
        raise ValueError("joint_loss: no terms")
    m_unit = float(np.mean(unit_terms)) if unit_terms else 0.0
    m_seq = float(np.mean(seq_terms)) if seq_terms else 0.0
    return cfg.w_unit * m_unit + cfg.w_seq * m_seq
