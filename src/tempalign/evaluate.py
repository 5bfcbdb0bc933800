"""Evaluation protocols: retrieval, localization, pair matching, few-shot.

All rankings break score ties by stable input order, every random choice is
derived from an explicit seed, and reports are plain data, so repeated runs
are byte-identical.  ``model=None`` evaluates the raw (identity-projected)
embeddings everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import align
from .core import DataError, LabeledVideo, SegmentedPair, similarity_matrix, unit_normalize

RETRIEVAL_MEASURES = ("dtw", "otam", "capavg", "dtw+capavg", "otam+capavg")
FEWSHOT_MEASURES = ("dtw", "otam", "bag")


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
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _rank_order(primary: np.ndarray, secondary: np.ndarray | None = None) -> np.ndarray:
    """Indices sorted by descending score(s); ties fall back to input order."""
    n = primary.shape[0]
    if secondary is None:
        return np.lexsort((np.arange(n), -primary))
    return np.lexsort((np.arange(n), -secondary, -primary))


def retrieval_full(
    corpus: list[SegmentedPair],
    model=None,
    measure: str = "dtw",
    background: str = "remove",
    ks=(1, 5, 10),
    dump_scores: bool = False,
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
    f_anchor, f_clips = _transforms(model)

    anchors = [f_anchor(p.anchor.units) for p in corpus]
    clips = [f_clips(p.positive.units if background == "keep" else p.covered_units()) for p in corpus]
    n = len(corpus)

    need_align = measure in ("dtw", "otam", "dtw+capavg", "otam+capavg")
    need_votes = measure in ("capavg", "dtw+capavg", "otam+capavg")
    align_measure = "otam" if measure.startswith("otam") else "dtw"

    if need_votes:
        pool = np.concatenate(clips, axis=0)
        owner = np.concatenate([np.full(len(c), v) for v, c in enumerate(clips)])
        bounds = np.cumsum([0] + [len(c) for c in clips])

    ranks = np.empty(n, dtype=np.int64)
    per_query = [] if dump_scores else None
    for q in range(n):
        if need_align:
            stack, shapes = align.pad_costs([1.0 - similarity_matrix(anchors[q], c) for c in clips])
            align_scores = align.align_stack(stack, align_measure, shapes).scores()
        if need_votes:
            sims = similarity_matrix(anchors[q], pool)
            best = np.argmax(sims, axis=1)  # first max = stable clip order
            votes = np.bincount(owner[best], minlength=n).astype(np.float64)
            sumsim = np.array([sims[:, bounds[v] : bounds[v + 1]].max(axis=1).sum() for v in range(n)])
        if measure in ("dtw", "otam"):
            order = _rank_order(align_scores)
        elif measure == "capavg":
            order = _rank_order(votes, sumsim)
        else:
            combined = (_minmax(align_scores) + _minmax(votes)) / 2.0
            order = _rank_order(combined)
        ranks[q] = int(np.flatnonzero(order == q)[0])
        if per_query is not None:
            per_query.append({"query": corpus[q].id, "rank": int(ranks[q]) + 1})

    recalls = {k: float(np.mean(ranks < k)) for k in ks}
    return EvalReport(task="retrieval-full", measure=measure, recalls=recalls,
                      aux={"n_queries": float(n)}, per_query=per_query)


def retrieval_clip(
    corpus: list[SegmentedPair],
    model=None,
    ks=(1, 5, 10),
    dump_scores: bool = False,
) -> EvalReport:
    """Caption -> clip retrieval over the pooled clips of all videos.

    A caption counts at K when any clip of its own segment ranks in the
    top K by cosine similarity.
    """
    if len(corpus) < 2:
        raise DataError("retrieval needs at least 2 videos")
    f_anchor, f_clips = _transforms(model)
    clip_blocks = [f_clips(p.positive.units) for p in corpus]
    pool = np.concatenate(clip_blocks, axis=0)
    offsets = np.cumsum([0] + [len(b) for b in clip_blocks])
    ks = _check_ks(ks, pool.shape[0])

    queries = []
    truth = []
    for p_idx, pair in enumerate(corpus):
        anchor = f_anchor(pair.anchor.units)
        for caption, start, end in pair.segments:
            queries.append(anchor[caption])
            truth.append(np.arange(start, end) + offsets[p_idx])
    sims = similarity_matrix(np.asarray(queries), pool)

    hits = np.zeros((len(queries), len(ks)))
    per_query = [] if dump_scores else None
    for q in range(len(queries)):
        order = np.argsort(-sims[q], kind="stable")
        gt = set(int(j) for j in truth[q])
        best_rank = next(r for r, j in enumerate(order) if int(j) in gt)
        for ki, k in enumerate(ks):
            hits[q, ki] = best_rank < k
        if per_query is not None:
            per_query.append({"query": q, "rank": int(best_rank) + 1})
    recalls = {k: float(hits[:, ki].mean()) for ki, k in enumerate(ks)}
    return EvalReport(task="retrieval-clip", measure="cosine", recalls=recalls,
                      aux={"n_queries": float(len(queries))}, per_query=per_query)


def localization_recall(pair: SegmentedPair, model=None) -> float:
    """Fraction of captions whose most similar clip (background included)
    falls inside their ground-truth range."""
    pair.require_canonical()
    f_anchor, f_clips = _transforms(model)
    sims = similarity_matrix(f_anchor(pair.anchor.units), f_clips(pair.positive.units))
    correct = 0
    for caption, start, end in pair.segments:
        pick = int(np.argmax(sims[caption]))
        correct += int(start <= pick < end)
    return correct / len(pair.segments)


def pair_match_percentage(pair: SegmentedPair, model=None, measure: str = "dtw") -> float:
    """Fraction of warping-path entries whose clip lies in the matched
    caption's ground-truth range (alignment restricted to covered clips)."""
    return float(_pair_match([pair], model, measure)[0])


def corpus_pair_match(corpus: list[SegmentedPair], model=None, measure: str = "dtw") -> float:
    """pair_match_percentage averaged over all videos of a corpus."""
    if not corpus:
        raise DataError("empty corpus")
    return float(np.mean(_pair_match(corpus, model, measure)))


def _pair_match(corpus: list[SegmentedPair], model, measure: str) -> np.ndarray:
    """Per-pair match fractions, from one alignment call for the whole corpus."""
    f_anchor, f_clips = _transforms(model)
    costs = []
    for pair in corpus:
        pair.require_canonical()
        costs.append(1.0 - similarity_matrix(f_anchor(pair.anchor.units), f_clips(pair.covered_units())))
    stack, shapes = align.pad_costs(costs)
    res = align.align_stack(stack, measure, shapes)
    matched = np.empty(len(corpus))
    for b, pair in enumerate(corpus):
        spans = {caption: (start, end) for caption, start, end in pair.segments}
        covered_index = pair.covered_indices
        correct = sum(1 for i, q in res.path(b) if spans[i][0] <= int(covered_index[q]) < spans[i][1])
        matched[b] = correct / int(res.lengths[b])
    return matched


def _episode_scores(q_units, s_units, measure: str) -> np.ndarray:
    """(n_queries, n_supports) alignment or bag scores."""
    if measure == "bag":
        q_means, _ = unit_normalize(np.stack([u.mean(axis=0) for u in q_units]))
        s_means, _ = unit_normalize(np.stack([u.mean(axis=0) for u in s_units]))
        return q_means @ s_means.T
    lengths = {u.shape[0] for u in q_units} | {u.shape[0] for u in s_units}
    if len(lengths) == 1:
        q_hat = np.stack([unit_normalize(u)[0] for u in q_units])
        s_hat = np.stack([unit_normalize(u)[0] for u in s_units])
        sims = np.clip(np.einsum("qid,sjd->qsij", q_hat, s_hat), -1.0, 1.0)
        stack, shapes = 1.0 - sims.reshape(-1, sims.shape[2], sims.shape[3]), None
    else:
        stack, shapes = align.pad_costs([1.0 - similarity_matrix(q, s) for q in q_units for s in s_units])
    return align.align_stack(stack, measure, shapes).scores().reshape(len(q_units), len(s_units))


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
    Reports mean accuracy over episodes with a 95% normal-approximation CI.
    """
    if measure not in FEWSHOT_MEASURES:
        raise DataError(f"unknown few-shot measure {measure!r}, expected one of {FEWSHOT_MEASURES}")
    if way < 2 or shot < 1 or queries_per_class < 1 or episodes < 1:
        raise DataError("fewshot_eval: way >= 2, shot >= 1, queries_per_class >= 1, episodes >= 1")
    labels = sorted({v.label for v in novel})
    groups = {lab: [v for v in novel if v.label == lab] for lab in labels}
    if len(labels) < way:
        raise DataError(f"need at least {way} classes, got {len(labels)}")
    needed = shot + queries_per_class
    for lab in labels:
        if len(groups[lab]) < needed:
            raise DataError(f"class {lab!r} has {len(groups[lab])} videos, needs {needed}")

    _, f_clips = _transforms(base_model)
    projected = {lab: [f_clips(v.frames.units) for v in groups[lab]] for lab in labels}

    accuracies = np.empty(episodes)
    for ep in range(episodes):
        rng = np.random.default_rng((seed, ep))
        class_pick = rng.choice(len(labels), size=way, replace=False)
        supports: list[np.ndarray] = []
        queries: list[np.ndarray] = []
        q_class: list[int] = []
        for slot, ci in enumerate(class_pick):
            vids = projected[labels[ci]]
            perm = rng.permutation(len(vids))
            supports.extend(vids[j] for j in perm[:shot])
            queries.extend(vids[j] for j in perm[shot : shot + queries_per_class])
            q_class.extend([slot] * queries_per_class)
        scores = _episode_scores(queries, supports, measure)
        class_means = scores.reshape(len(queries), way, shot).mean(axis=2)
        pred = np.argmax(class_means, axis=1)  # first max = lowest class slot
        accuracies[ep] = float(np.mean(pred == np.asarray(q_class)))

    acc = float(np.mean(accuracies))
    ci = float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return EvalReport(
        task=f"fewshot-{way}way-{shot}shot",
        measure=measure,
        recalls={},
        aux={"accuracy": acc, "ci95": ci, "episodes": float(episodes)},
    )
