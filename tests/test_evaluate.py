import dataclasses
import errno
import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import basis, covered_units, make_pair, reference_scores, with_units
from tempalign import align, cli, evaluate
from tempalign.align import STACK_CELLS
from tempalign.core import DataError, EmbeddingSequence, LabeledVideo, similarity_matrix, unit_normalize
from tempalign.evaluate import (
    FEWSHOT_MEASURES,
    RETRIEVAL_MEASURES,
    EvalReport,
    _normalized,
    _ranks,
    _plan,
    _score_matrix,
    corpus_pair_match,
    fewshot_eval,
    localization,
    pair_units,
    retrieval_clip,
    retrieval_full,
)
from tempalign.io import save_item
from tempalign.loss import LossConfig
from tempalign.synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus
from tempalign.train import ProjectionModel, TrainConfig, fit


def self_identical_corpus(n_videos=4, n_caps=3, dim=16):
    """Each paragraph is exactly its own video's clip sequence."""
    corpus = []
    for v in range(n_videos):
        caps = [basis(v * n_caps + i, dim) for i in range(n_caps)]
        corpus.append(make_pair(caps, caps, [(i, i + 1) for i in range(n_caps)], pid=f"v{v}"))
    return corpus


def normalized(*groups):
    """_normalized of lists of unit stacks, their lengths read from them."""
    return _normalized(*groups, lengths=[[len(u) for u in group] for group in groups])


def planned_pairs(rows, cols, calls):
    """The (row index, column index) pairs of each of _plan's calls, in stack
    order, read from its bands."""
    return [[(int(r), int(c)) for i, s, k, j, c0, w in bands for r in rows.index[i][s : s + k] for c in cols.index[j][c0 : c0 + w]]
            for _, bands in calls]


def split_tiles(calls):
    """The tiles (row block, column block) that two consecutive calls of
    _plan share."""
    tiles = [{(i, j) for i, _, _, j, _, _ in bands} for _, bands in calls]
    return set().union(*(a & b for a, b in zip(tiles, tiles[1:])))


def twin_mlp(dim):
    """A twin MLP model, distinct heads for captions and clips."""
    return ProjectionModel.mlp(dim, 8, dim, seed=3, twin=True)


def scaled(corpus, alpha):
    return [with_units(p, alpha * p.anchor.units, alpha * p.positive.units) for p in corpus]


def ragged_corpus(n_videos=23, dim=6, seed=5):
    """Paragraphs of 1-11 captions; each caption's clips are the caption plus
    noise, with background clips between and after the segments."""
    rng = np.random.default_rng(seed)
    corpus = []
    for v in range(n_videos):
        captions = rng.normal(size=(int(rng.integers(1, 12)), dim))
        clips, segments = [], []
        for caption in captions:
            clips.extend(rng.normal(size=(int(rng.integers(0, 2)), dim)))
            start = len(clips)
            clips.extend(caption + rng.normal(scale=1.5, size=(int(rng.integers(1, 3)), dim)))
            segments.append((start, len(clips)))
        clips.extend(rng.normal(size=(int(rng.integers(0, 2)), dim)))
        corpus.append(make_pair(captions, clips, segments, pid=f"g{v}"))
    return corpus


def tie_heavy_corpus():
    """A ragged corpus with embeddings rounded to integers, then a copy of it:
    every paragraph ties with its copy on alignment, and most captions tie on
    votes."""
    rounded = [with_units(p, np.round(p.anchor.units), np.round(p.positive.units))
               for p in ragged_corpus(n_videos=12, dim=3)]
    return rounded + [make_pair(p.anchor.units, p.positive.units, p.segments, pid=f"{p.id}-copy") for p in rounded]


def equal_votes_corpus():
    """Three videos under one paragraph (e0, e1, e2): caption i matches only
    the first clip of video i, so each query gives every video one vote and
    one unit of summed best-clip similarity."""
    caps = [basis(i, 9) for i in range(3)]
    return [make_pair(caps, [basis(v, 9), basis(3 + v, 9), basis(6 + v, 9)], [(0, 1), (1, 2), (2, 3)],
                      pid=f"e{v}") for v in range(3)]


def minmax(x):
    lo, hi = x.min(), x.max()
    return np.full_like(x, 0.5) if hi == lo else (x - lo) / (hi - lo)


def per_pair_ranks(corpus, measure, background):
    """1-based rank of each paragraph's own video, scoring one query/candidate
    pair at a time through similarity_matrix (see reference_scores)."""
    anchors = [p.anchor.units for p in corpus]
    clips = [p.positive.units if background == "keep" else covered_units(p) for p in corpus]
    n = len(corpus)
    pool = np.concatenate(clips)
    owner = np.concatenate([np.full(len(c), v) for v, c in enumerate(clips)])
    bounds = np.cumsum([0] + [len(c) for c in clips])
    all_aligned = reference_scores(anchors, clips, "otam" if measure.startswith("otam") else "dtw")
    ranks = []
    for q, aligned in enumerate(all_aligned):
        sims = similarity_matrix(anchors[q], pool)
        votes = np.bincount(owner[np.argmax(sims, axis=1)], minlength=n).astype(np.float64)
        sumsim = [sims[:, bounds[v] : bounds[v + 1]].max(axis=1).sum() for v in range(n)]
        if measure in ("dtw", "otam"):
            keys = [(-aligned[v], v) for v in range(n)]
        elif measure == "capavg":
            keys = [(-votes[v], -sumsim[v], v) for v in range(n)]
        else:
            combined = (minmax(aligned) + minmax(votes)) / 2.0
            keys = [(-combined[v], v) for v in range(n)]
        ranks.append(sorted(range(n), key=keys.__getitem__).index(q) + 1)
    return ranks


class NonFiniteProjection:
    """A model whose paragraph or video projection yields NaN."""

    def __init__(self, side):
        self.side = side

    def transform_anchor(self, units):
        return np.full_like(units, np.nan) if self.side == "anchor" else units

    def transform_clips(self, units):
        return np.full_like(units, np.nan) if self.side == "clips" else units


class TestRetrievalFull:
    @pytest.mark.parametrize("measure", ["dtw", "otam", "capavg", "dtw+capavg", "otam+capavg"])
    def test_self_retrieval_every_measure(self, measure):
        report = retrieval_full(self_identical_corpus(), measure=measure, ks=(1, 2))
        assert report.recalls[1] == pytest.approx(1.0)
        assert report.recalls[2] == pytest.approx(1.0)

    def test_two_videos_orthogonal_wrong_candidate(self):
        # each paragraph overlaps its own clips and is orthogonal to the
        # other video's every clip
        right = make_pair([basis(0, 8), basis(1, 8)],
                          [basis(0, 8) + 0.2 * basis(1, 8), basis(1, 8)],
                          [(0, 1), (1, 2)], pid="right")
        wrong = make_pair([basis(4, 8), basis(5, 8)],
                          [basis(4, 8), basis(5, 8) + 0.2 * basis(4, 8)],
                          [(0, 1), (1, 2)], pid="wrong")
        report = retrieval_full([right, wrong], measure="dtw", ks=(1,))
        assert report.recalls[1] == pytest.approx(1.0)

    def test_recall_nondecreasing_in_k(self, rng):
        corpus = [
            make_pair(rng.normal(size=(3, 8)), rng.normal(size=(5, 8)),
                      [(0, 2), (2, 3), (3, 5)], pid=f"r{v}")
            for v in range(6)
        ]
        report = retrieval_full(corpus, measure="dtw", ks=(1, 3, 6))
        values = [report.recalls[k] for k in (1, 3, 6)]
        assert values == sorted(values)

    def test_scale_invariance(self, rng):
        corpus = [
            make_pair(rng.normal(size=(3, 8)), rng.normal(size=(5, 8)),
                      [(0, 2), (2, 3), (3, 5)], pid=f"r{v}")
            for v in range(5)
        ]
        for measure in ("dtw", "capavg", "otam+capavg"):
            a = retrieval_full(corpus, measure=measure, ks=(1, 3))
            b = retrieval_full(scaled(corpus, 3.0), measure=measure, ks=(1, 3))
            assert a.recalls == b.recalls

    def test_k_exceeding_corpus_rejected(self):
        with pytest.raises(DataError):
            retrieval_full(self_identical_corpus(3), ks=(1, 5))

    def test_background_modes_differ_when_background_misleads(self, rng):
        # same task content, one candidate padded with background that mimics
        # the other video's captions; removal must not hurt self-retrieval
        corpus = self_identical_corpus(3)
        report = retrieval_full(corpus, measure="dtw", background="keep", ks=(1,))
        assert report.recalls[1] == pytest.approx(1.0)

    def test_unknown_measure(self):
        with pytest.raises(DataError):
            retrieval_full(self_identical_corpus(3), measure="cosine", ks=(1,))

    @pytest.mark.parametrize("background", ["keep", "remove"])
    @pytest.mark.parametrize("measure", RETRIEVAL_MEASURES)
    def test_matches_per_pair_reference(self, measure, background, monkeypatch, stack_calls):
        corpus = ragged_corpus()
        monkeypatch.setattr(align, "STACK_CELLS", 16384)
        report = retrieval_full(corpus, measure=measure, background=background, ks=(1, 3, 10))
        if measure != "capavg":  # the last of several alignment calls holds fewer pairs than fit
            *_, (pairs, n, m) = stack_calls
            assert len(stack_calls) > 1 and (pairs + 1) * n * m <= align.STACK_CELLS
        ranks = per_pair_ranks(corpus, measure, background)
        assert [entry["rank"] for entry in report.per_query] == ranks
        assert report.recalls == {k: float(np.mean(np.array(ranks) <= k)) for k in (1, 3, 10)}
        assert 1 < max(ranks)  # the corpus does not saturate

    @pytest.mark.parametrize("make_corpus", [tie_heavy_corpus, equal_votes_corpus])
    @pytest.mark.parametrize("background", ["keep", "remove"])
    @pytest.mark.parametrize("measure", RETRIEVAL_MEASURES)
    def test_ties_match_per_pair_reference(self, measure, background, make_corpus):
        corpus = make_corpus()
        report = retrieval_full(corpus, measure=measure, background=background, ks=(1, 2, 3))
        ranks = per_pair_ranks(corpus, measure, background)
        assert [entry["rank"] for entry in report.per_query] == ranks
        assert report.recalls == {k: float(np.mean(np.array(ranks) <= k)) for k in (1, 2, 3)}

    def test_full_tie_falls_back_to_corpus_order(self):
        report = retrieval_full(equal_votes_corpus(), measure="capavg", ks=(1,))
        assert [entry["rank"] for entry in report.per_query] == [1, 2, 3]

    @pytest.mark.parametrize("side", ["anchor", "clips"])
    @pytest.mark.parametrize("measure", ["dtw", "capavg"])
    def test_non_finite_projection_rejected(self, side, measure):
        with pytest.raises(DataError, match="non-finite"):
            retrieval_full(self_identical_corpus(3), NonFiniteProjection(side), measure=measure, ks=(1,))

    def test_scoring_holds_one_copy_of_the_units(self, monkeypatch):
        # Doubling the embedding dimension doubles the units and nothing else
        # the scoring holds (pairs, scores, one alignment call's stack), so
        # the traced peak grows by one copy of the units; a second copy of
        # the column units would add 1.5 MB more.  Scored in this process
        # alone: tracemalloc does not see the matrix that workers share.
        monkeypatch.setattr(evaluate, "WORKER_CELLS", sys.maxsize)
        _, test, _ = gen_corpus(SynthConfig(n_tasks=200, seed=0))
        wide = [with_units(p, np.hstack((p.anchor.units,) * 2), np.hstack((p.positive.units,) * 2)) for p in test]
        anchors = sum(p.anchor.units.nbytes for p in test)
        columns = sum(covered_units(p).nbytes for p in test)
        growth = traced_peak(retrieval_full, wide) - traced_peak(retrieval_full, test)
        assert growth < anchors + 1.5 * columns

    def test_scoring_memory_grows_by_one_score_matrix(self, monkeypatch):
        # Doubling the corpus doubles the units and quadruples the (n, n)
        # scores, which ranking's comparisons top up by 3 bytes a pair, so
        # the traced peak grows by the units and 1.375 times the scores.  An
        # index array of every pair, as large again as the scores, grew it
        # by the units and twice the scores here.  A four-times call budget
        # keeps the traced runs short; their calls fill it at both sizes.
        # Scored in this process alone, as above.
        monkeypatch.setattr(align, "STACK_CELLS", 4 * STACK_CELLS)
        monkeypatch.setattr(evaluate, "WORKER_CELLS", sys.maxsize)
        _, test, _ = gen_corpus(SynthConfig(n_tasks=400, seed=0))
        half = test[:200]
        units = sum(p.anchor.units.nbytes + covered_units(p).nbytes for p in test[200:])
        scores = 8 * (len(test) ** 2 - len(half) ** 2)
        growth = traced_peak(retrieval_full, test) - traced_peak(retrieval_full, half)
        assert growth < units + 1.5 * scores


def per_caption_ranks(corpus):
    """1-based rank of each caption's first ground-truth clip when its row of
    pooled-clip similarities is walked in stable descending order."""
    pool = np.concatenate([p.positive.units for p in corpus])
    offsets = np.cumsum([0] + [len(p.positive) for p in corpus])
    queries, truth = [], []
    for pair, offset in zip(corpus, offsets):
        for caption, (start, end) in enumerate(pair.segments):
            queries.append(pair.anchor.units[caption])
            truth.append(set(range(start + offset, end + offset)))
    sims = similarity_matrix(np.asarray(queries), pool)
    ranks = []
    for row, gt in zip(sims, truth):
        order = np.argsort(-row, kind="stable")
        ranks.append(next(r for r, j in enumerate(order) if int(j) in gt) + 1)
    return ranks


class TestRanks:
    @pytest.mark.parametrize("with_tiebreak", [False, True])
    def test_matches_stable_lexsort(self, rng, with_tiebreak):
        scores = rng.integers(0, 3, size=(40, 9)).astype(float)  # ties everywhere
        tiebreak = rng.integers(0, 2, size=scores.shape).astype(float) if with_tiebreak else None
        target = rng.integers(0, 9, size=40)
        expected = []
        for q in range(40):
            keys = (np.arange(9), -scores[q]) if tiebreak is None else (np.arange(9), -tiebreak[q], -scores[q])
            expected.append(int(np.flatnonzero(np.lexsort(keys) == target[q])[0]))
        assert _ranks(scores, target, tiebreak).tolist() == expected


@pytest.mark.parametrize("measure", ["dtw", "otam"])
def test_every_alignment_call_fits_the_cell_budget(measure, stack_calls):
    train, test, _ = gen_corpus(SynthConfig(n_tasks=40, seed=2))
    novel = novel_videos(FewshotSynthConfig(seed=2))
    callers = {
        "retrieval_full": lambda: retrieval_full(test, measure=measure, ks=(1,)),
        "corpus_pair_match": lambda: corpus_pair_match(test, measure=measure),
        "fewshot_eval": lambda: fewshot_eval(None, novel, episodes=5, measure=measure),
        "fit": lambda: fit(train, ProjectionModel.identity(64), TrainConfig(epochs=1, neg_count=64, loss=LossConfig(measure=measure))),
    }
    largest = {}
    for name, call in callers.items():
        stack_calls.clear()
        call()
        largest[name] = max(int(np.prod(shape)) for shape in stack_calls)
    assert max(largest.values()) <= STACK_CELLS, largest
    # each caller but pair match (40 pairs, one call) fills a call past half the budget
    assert min(cells for name, cells in largest.items() if name != "corpus_pair_match") > STACK_CELLS // 2, largest


@pytest.mark.parametrize("measure", ["dtw", "otam"])
def test_only_the_all_pairs_scorer_aligns_without_paths(measure, tmp_path, capsys, stack_calls):
    train, test, _ = gen_corpus(SynthConfig(n_tasks=6, seed=3))
    novel = novel_videos(FewshotSynthConfig(seed=3))
    save_item(test[0], tmp_path / "pair.json")
    callers = {
        "retrieval_full": lambda: retrieval_full(test, measure=measure, ks=(1,)),
        "fewshot_eval": lambda: fewshot_eval(None, novel, episodes=2, measure=measure),
        "corpus_pair_match": lambda: corpus_pair_match(test, measure=measure),
        "fit": lambda: fit(train, ProjectionModel.identity(64), TrainConfig(epochs=1, neg_count=4, loss=LossConfig(measure=measure))),
        "cmd_align": lambda: cli.main(["align", "--pair", str(tmp_path / "pair.json"), "--measure", measure]),
    }
    kept = {}
    for name, call in callers.items():
        stack_calls.clear()
        call()
        kept[name] = {c.paths for c in stack_calls}
    capsys.readouterr()
    # the all-pairs scorer reads only scores; every other caller reads paths
    assert kept == {"retrieval_full": {False}, "fewshot_eval": {False}, "corpus_pair_match": {True}, "fit": {True},
                    "cmd_align": {True}}


class TestScoreMatrix:
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_many_blocks_match_per_pair_reference(self, rng, monkeypatch, stack_calls, measure):
        rows = [rng.normal(size=(int(rng.integers(1, 5)), 3)) for _ in range(13)]
        cols = [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(17)]
        monkeypatch.setattr(evaluate, "BLOCK_BYTES", 2 * 2 * 3 * 8)  # two 2-unit stacks
        monkeypatch.setattr(align, "STACK_CELLS", 7 * 4 * 5)
        units = normalized(rows, cols)
        assert min(len(u.blocks) for u in units) >= 6
        calls = _plan(*units, False)
        scores = _score_matrix(*units, measure)
        assert [dims for dims, _ in calls] == stack_calls  # the plan is what is aligned
        assert split_tiles(calls)  # some alignment call ends inside a tile
        assert np.array_equal(scores, reference_scores(rows, cols, measure))

    @pytest.mark.parametrize("mirror", [False, True])
    def test_plan_aligns_every_pair_once_by_descending_shape(self, rng, monkeypatch, mirror):
        monkeypatch.setattr(evaluate, "BLOCK_BYTES", 2 * 5 * 2 * 8)
        monkeypatch.setattr(align, "STACK_CELLS", 6 * 5 * 5)
        rows = [rng.normal(size=(int(rng.integers(1, 6)), 2)) for _ in range(11)]
        cols = rows if mirror else [rng.normal(size=(int(rng.integers(1, 6)), 2)) for _ in range(9)]
        units = normalized(rows) * 2 if mirror else normalized(rows, cols)
        calls = _plan(*units, mirror)
        pairs = [pair for call in planned_pairs(*units, calls) for pair in call]
        # each pair once; under mirroring each unordered pair once, the earlier stack as rows
        assert sorted(pairs) == [(r, c) for r in range(len(rows)) for c in range(len(cols)) if not mirror or r <= c]
        shapes = [(len(rows[r]), len(cols[c])) for r, c in pairs]
        assert shapes == sorted(shapes, reverse=True)
        padded = [(n, m) for (_, n, m), _ in calls]
        assert padded == sorted(padded, reverse=True)
        start = 0
        for (count, n, m), _ in calls:  # padded to its first pair's shape, within both budgets
            mine = shapes[start : start + count]
            assert mine[0] == (n, m) and all(a <= n and b <= m for a, b in mine)
            assert count == 1 or count * n * m <= align.STACK_CELLS
            assert count * n * m <= (1 + evaluate.PAD_SHARE) * sum(a * b for a, b in mine)
            start += count
        assert start == len(pairs)
        assert split_tiles(calls)  # some alignment call ends inside a tile

    def test_retrieval_calls_pad_little(self, stack_calls):
        corpus = []
        for captions in (3, 5):  # ragged in both axes
            _, test, _ = gen_corpus(SynthConfig(n_tasks=60, segments_per_video=captions, seed=captions))
            corpus += [dataclasses.replace(p, id=f"{captions}-{p.id}") for p in test]
        retrieval_full(corpus, measure="dtw", ks=(1,))
        calls = [(int(np.prod(c)), int(np.prod(c.shapes, axis=1).sum()), c[1] * c[2]) for c in stack_calls]
        classes = len({len(p.anchor) for p in corpus}) * len({p.covered_indices.size for p in corpus})
        padded, real, _ = np.sum(calls, axis=0)
        assert real == sum(len(p.anchor) for p in corpus) * sum(p.covered_indices.size for p in corpus)
        # a row-major grid pads this corpus to 1.67x its cells
        assert padded <= 1.05 * real
        # a call ends short of the budget by less than one matrix, except
        # where the next pair would widen its padding or pass PAD_SHARE (at
        # most once per shape class)
        widest = max(cells for *_, cells in calls)
        assert len(calls) <= math.ceil(padded / (STACK_CELLS - widest)) + classes


def score_units(kind, measure):
    """Arguments of _score_matrix: a ragged corpus's retrieval units (``kind``
    the background mode), or ragged videos scored against themselves."""
    if kind == "self":
        rng = np.random.default_rng(7)
        (units,) = normalized([rng.normal(size=(int(rng.integers(1, 9)), 5)) for _ in range(40)])
        return units, units, measure
    return (*pair_units(ragged_corpus(), None, kind), measure)


@pytest.fixture
def forks(monkeypatch):
    """The all-pairs scorer forks two workers on small inputs (three CPUs,
    one padded cell a share, small calls); the pids forked, in order."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(align, "STACK_CELLS", 2048)
    monkeypatch.setattr(evaluate, "WORKER_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", recording)
    return pids


def serial_scores(monkeypatch, *args):
    """_score_matrix of ``args`` aligned in this process alone."""
    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "WORKER_CELLS", sys.maxsize)
        return _score_matrix(*args)


def failing_kernel(monkeypatch, fails):
    """Make align.align_stack raise DataError on the calls where
    ``fails(costs)`` holds; returns the stack shapes this process aligns."""
    kernel = align.align_stack
    shapes = []

    def failing(costs, *args, **kwargs):
        if fails(costs):
            raise DataError(f"failed on a {costs.shape} stack")
        shapes.append(costs.shape)
        return kernel(costs, *args, **kwargs)

    monkeypatch.setattr(align, "align_stack", failing)
    return shapes


class TestScoreMatrixWorkers:
    def test_shares_split_the_plan_by_padded_cells(self, monkeypatch, forks):
        calls = _plan(*pair_units(ragged_corpus(), None, "keep"), False)
        cells = [math.prod(dims) for dims, _ in calls]
        for worker_cells, count in ((1, 3), (sum(cells) // 2, 2), (sum(cells) // 2 + 1, 1)):
            monkeypatch.setattr(evaluate, "WORKER_CELLS", worker_cells)
            shares = evaluate._shares(calls)
            assert len(shares) == count and sum(shares, []) == calls
            for share in shares:  # each about 1 / count of the cells, give or take one call
                assert abs(sum(math.prod(dims) for dims, _ in share) - sum(cells) / count) <= max(cells)

    @pytest.mark.parametrize("kind, measure", [(b, m) for b in ("keep", "remove") for m in ("dtw", "otam")]
                             + [("self", "dtw"), ("self", "otam")])
    def test_scores_match_serial(self, monkeypatch, forks, kind, measure):
        args = score_units(kind, measure)
        serial = serial_scores(monkeypatch, *args)
        assert np.array_equal(_score_matrix(*args), serial)
        assert len(forks) == 2

    @pytest.mark.parametrize("failure", ["raises", "writes NaN, exits 1"])
    def test_failed_worker_share_is_aligned_here(self, monkeypatch, forks, failure):
        args = score_units("remove", "dtw")
        serial = serial_scores(monkeypatch, *args)
        parent = os.getpid()
        if failure == "raises":
            here = failing_kernel(monkeypatch, lambda costs: os.getpid() != parent)
        else:
            here = failing_kernel(monkeypatch, lambda costs: False)
            kernel, leave = align.align_stack, os._exit

            def nan_in_workers(costs, *args, **kwargs):
                done = kernel(costs, *args, **kwargs)
                if os.getpid() == parent:
                    return done
                return dataclasses.replace(done, distances=np.full(len(costs), np.nan))  # every score NaN

            monkeypatch.setattr(align, "align_stack", nan_in_workers)
            monkeypatch.setattr(os, "_exit", lambda status: leave(1))
        assert np.array_equal(_score_matrix(*args), serial)
        assert len(forks) == 2
        assert here == [dims for dims, _ in _plan(*args[:2], False)]  # every share, in order

    def test_workers_share_the_matrix_uncopied(self, monkeypatch, forks):
        # Stacks of one length make every call alike, so the traced peak is
        # one call's memory, plus the matrix when it is private: tracemalloc
        # does not see the matrix that workers share, and would see a copy.
        rng = np.random.default_rng(7)
        (units,) = normalized([rng.normal(size=(3, 5)) for _ in range(200)])
        args = (units, units, "otam")
        serial = serial_scores(monkeypatch, *args)
        assert np.array_equal(_score_matrix(*args), serial) and len(forks) == 2  # and mmap is imported
        with monkeypatch.context() as patch:
            patch.setattr(evaluate, "WORKER_CELLS", sys.maxsize)
            alone = traced_peak(_score_matrix, *args)
        assert traced_peak(_score_matrix, *args) <= alone - serial.nbytes / 2

    def test_error_in_a_worker_share_is_raised_as_serially(self, monkeypatch, forks):
        args = score_units("remove", "otam")
        own, *shares = evaluate._shares(_plan(*args[:2], False))
        last, _ = shares[-1][-1]
        assert last not in [dims for dims, _ in own]
        failing_kernel(monkeypatch, lambda costs: costs.shape == last)
        with pytest.raises(DataError) as serial:
            serial_scores(monkeypatch, *args)
        with pytest.raises(DataError, match=re.escape(str(serial.value))):
            _score_matrix(*args)
        assert len(forks) == 2

    def test_error_here_stops_every_worker(self, monkeypatch, forks):
        args = score_units("keep", "dtw")
        parent = os.getpid()
        kernel = align.align_stack

        def failing(costs, *args, **kwargs):
            if os.getpid() == parent:
                raise DataError("failed here")
            time.sleep(30)  # the workers are still busy when this process raises
            return kernel(costs, *args, **kwargs)

        monkeypatch.setattr(align, "align_stack", failing)
        start = time.monotonic()
        with pytest.raises(DataError, match="failed here"):
            _score_matrix(*args)
        assert time.monotonic() - start < 10
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_serial_while_another_thread_runs(self, monkeypatch, forks):
        args = score_units("remove", "dtw")
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            scores = _score_matrix(*args)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == [] and np.array_equal(scores, serial_scores(monkeypatch, *args))

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_serial_without_fork(self, monkeypatch, forks, fork):
        args = score_units("remove", "otam")
        serial = serial_scores(monkeypatch, *args)

        def failing():
            raise BlockingIOError(errno.EAGAIN, "no process")

        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", failing)
        assert np.array_equal(_score_matrix(*args), serial)


class TestRetrievalClip:
    @pytest.mark.parametrize("make_corpus", [ragged_corpus, tie_heavy_corpus, equal_votes_corpus])
    def test_matches_per_caption_reference(self, make_corpus):
        corpus = make_corpus()
        report = retrieval_clip(corpus, ks=(1, 3, 9))
        ranks = per_caption_ranks(corpus)
        assert [entry["rank"] for entry in report.per_query] == ranks
        assert report.recalls == {k: float(np.mean(np.array(ranks) <= k)) for k in (1, 3, 9)}

    def test_caption_identical_to_one_clip(self):
        corpus = self_identical_corpus(3)
        report = retrieval_clip(corpus, ks=(1,))
        assert report.recalls[1] == pytest.approx(1.0)

    def test_all_clips_identical_stable_tie_order(self):
        # every clip is e0: top-k under stable order is the first k global
        # clips, so only captions of the first video's clips can hit
        dim = 4
        corpus = [
            make_pair([basis(0, dim)], [basis(0, dim), basis(0, dim)], [(0, 2)], pid=f"t{v}")
            for v in range(3)
        ]
        report = retrieval_clip(corpus, ks=(1, 2, 6))
        assert report.recalls[1] == pytest.approx(1 / 3)  # only video 0's caption hits
        assert report.recalls[2] == pytest.approx(1 / 3)
        assert report.recalls[6] == pytest.approx(1.0)

    def test_chance_level_for_random_embeddings(self):
        rng = np.random.default_rng(3)
        n_videos, n_caps = 30, 5
        corpus = [
            make_pair(
                rng.normal(size=(n_caps, 12)),
                rng.normal(size=(8, 12)),
                [(i, i + 1) for i in range(n_caps)],
                pid=f"c{v}",
            )
            for v in range(n_videos)
        ]
        total_clips = sum(len(p.positive) for p in corpus)
        n_queries = sum(len(p.segments) for p in corpus)
        report = retrieval_clip(corpus, ks=(1, 10))
        p1 = 1.0 / total_clips  # singleton ground truth, exchangeable clips
        sigma = np.sqrt(p1 * (1 - p1) / n_queries)
        assert abs(report.recalls[1] - p1) <= 4 * sigma + 1e-9
        p10 = 10.0 / total_clips
        sigma10 = np.sqrt(p10 * (1 - p10) / n_queries)
        assert abs(report.recalls[10] - p10) <= 4 * sigma10

    def test_memory_grows_with_the_corpus_not_its_square(self):
        # Doubling the corpus doubles the units and the width of one
        # RANK_ROWS block's product, so the traced peak doubles; forming the
        # whole (captions x pooled clips) matrix grew it 3.5x here.
        _, test, _ = gen_corpus(SynthConfig(n_tasks=100, seed=0))
        assert traced_peak(retrieval_clip, test + test) < 2.5 * traced_peak(retrieval_clip, test)


class TestLocalization:
    def test_perfect_localization(self):
        pair = self_identical_corpus(1)[0]
        assert localization([pair]).recalls[1] == pytest.approx(1.0)

    def test_background_steals_a_step(self):
        # caption 1 is most similar to the background clip at index 2
        dim = 6
        caps = [basis(0, dim), basis(1, dim)]
        clips = [basis(0, dim), basis(3, dim), basis(1, dim)]
        pair = make_pair(caps, clips, [(0, 1), (1, 2)])
        assert localization([pair]).recalls[1] == pytest.approx(0.5)

    def test_two_step_crafted_half_recall(self):
        # step 0 -> clip in its own segment; step 1 -> most similar clip sits
        # in segment 0, so it counts 0.
        dim = 6
        caps = [basis(0, dim), basis(1, dim)]
        clips = [basis(0, dim), basis(1, dim), basis(2, dim)]
        pair = make_pair(caps, clips, [(0, 2), (2, 3)])
        assert localization([pair]).recalls[1] == pytest.approx(0.5)

    def test_matches_per_pair_argmax_reference(self):
        corpus = ragged_corpus()
        for model in (None, twin_mlp(6)):
            recall = []
            for pair in corpus:
                captions, clips = pair.anchor.units, pair.positive.units
                if model is not None:
                    captions, clips = model.transform_anchor(captions), model.transform_clips(clips)
                pick = np.argmax(similarity_matrix(captions, clips), axis=1)
                recall.append(np.mean([lo <= q < hi for q, (lo, hi) in zip(pick.tolist(), pair.segments)]))
            report = localization(corpus, model)
            assert report.recalls == {1: float(np.mean(recall))}
            assert report.aux == {"n_videos": float(len(corpus))}

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty corpus"):
            localization([])


class TestPairMatch:
    def test_identity_aligned(self):
        pair = self_identical_corpus(1)[0]
        assert corpus_pair_match([pair], measure="dtw") == pytest.approx(1.0)

    def test_single_segment_always_correct(self, rng):
        pair = make_pair(rng.normal(size=(1, 6)), rng.normal(size=(4, 6)), [(0, 4)])
        assert corpus_pair_match([pair], measure="dtw") == pytest.approx(1.0)

    def test_reversed_content_is_path_based_not_semantic(self):
        # Clips reversed against the segment map: the cost ties resolve
        # diagonal-first, and both diagonal entries lie inside their
        # caption's stated range, so the path-entry definition yields 1.0.
        # The metric reports path/range consistency, not semantic truth.
        caps = [basis(0, 4), basis(1, 4)]
        clips = [basis(1, 4), basis(0, 4)]
        pair = make_pair(caps, clips, [(0, 1), (1, 2)])
        assert corpus_pair_match([pair], measure="dtw") == pytest.approx(1.0)

    def test_floor_first_entry_always_correct(self, rng):
        for trial in range(10):
            pair = make_pair(
                rng.normal(size=(3, 6)), rng.normal(size=(6, 6)),
                [(0, 2), (2, 4), (4, 6)], pid=f"f{trial}",
            )
            assert corpus_pair_match([pair], measure="dtw") > 0.0

    def test_consistency_with_localization_on_singletons(self):
        corpus = self_identical_corpus(2, n_caps=4)
        for pair in corpus:
            assert localization([pair]).recalls[1] == pytest.approx(1.0)
            assert corpus_pair_match([pair], measure="dtw") == pytest.approx(1.0)

    def test_corpus_average(self):
        corpus = self_identical_corpus(3)
        assert corpus_pair_match(corpus, measure="otam") == pytest.approx(1.0)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_matches_per_step_reference(self, measure):
        # Reference: align each pair alone and check every path step's
        # original clip index against its caption's segment.
        corpus = ragged_corpus()
        for model in (None, twin_mlp(6)):
            fractions = []
            for pair in corpus:
                captions, clips = pair.anchor.units, covered_units(pair)
                if model is not None:
                    captions, clips = model.transform_anchor(captions), model.transform_clips(clips)
                res = align.align_stack((1.0 - similarity_matrix(captions, clips))[None], measure)
                spans = pair.segments
                clip_of = pair.covered_indices
                correct = sum(spans[i][0] <= clip_of[q] < spans[i][1] for i, q in res.path(0).tolist())
                fractions.append(correct / int(res.lengths[0]))
                assert corpus_pair_match([pair], model, measure) == fractions[-1]
            assert corpus_pair_match(corpus, model, measure) == float(np.mean(fractions))

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_alignment_calls_are_bounded(self, monkeypatch, measure, stack_calls):
        corpus = ragged_corpus()
        whole = corpus_pair_match(corpus, measure=measure)
        cells = max(len(p.anchor) for p in corpus) * max(p.covered_indices.size for p in corpus)
        monkeypatch.setattr(align, "STACK_CELLS", 3 * cells)
        stack_calls.clear()
        assert corpus_pair_match(corpus, measure=measure) == whole
        calls = [batch for batch, _, _ in stack_calls]
        assert sum(calls) == len(corpus) and max(calls) <= 3


def class_corpus(n_classes=5, per_class=7, frames=4, dim=16, noise=0.0, seed=0):
    """Identical-within-class, orthogonal-across-class frame sequences."""
    rng = np.random.default_rng(seed)
    videos = []
    for c in range(n_classes):
        for v in range(per_class):
            units = np.stack([basis(c, dim)] * frames) + noise * rng.normal(size=(frames, dim))
            vid = f"c{c}v{v}"
            videos.append(LabeledVideo(vid, f"class{c}", EmbeddingSequence(vid, units)))
    return videos


def noisy_class_corpus(ragged, n_classes=5, per_class=6, dim=8, seed=2):
    """Noisy copies of one random frame sequence per class, cut to 2-7 frames
    when ``ragged`` and otherwise all 5 frames long."""
    rng = np.random.default_rng(seed)
    videos = []
    for c in range(n_classes):
        pattern = rng.normal(size=(7, dim))
        for v in range(per_class):
            frames = int(rng.integers(2, 8)) if ragged else 5
            vid = f"c{c}v{v}"
            units = pattern[:frames] + 1.5 * rng.normal(size=(frames, dim))
            videos.append(LabeledVideo(vid, f"class{c}", EmbeddingSequence(vid, units)))
    return videos


def per_episode_reference(videos, measure, way, shot, queries_per_class, episodes, seed):
    """Accuracy and ci95 of few-shot episodes scored one episode at a time:
    per (query, support) pair through similarity_matrix (see
    reference_scores), or, for bag, as a dot product of the normalized mean
    frames."""
    labels = sorted({v.label for v in videos})
    groups = {lab: [v.frames.units for v in videos if v.label == lab] for lab in labels}
    accuracies = []
    for ep in range(episodes):
        rng = np.random.default_rng((seed, ep))
        supports, queries = [], []
        for ci in rng.choice(len(labels), size=way, replace=False):
            vids = groups[labels[ci]]
            perm = rng.permutation(len(vids))
            supports.extend(vids[j] for j in perm[:shot])
            queries.extend(vids[j] for j in perm[shot : shot + queries_per_class])
        if measure == "bag":
            q_means = [unit_normalize(q.mean(axis=0))[0] for q in queries]
            s_means = [unit_normalize(s.mean(axis=0))[0] for s in supports]
            scores = np.array([[q @ s for s in s_means] for q in q_means])
        else:
            scores = reference_scores(queries, supports, measure)
        pred = np.argmax(scores.reshape(len(queries), way, shot).mean(axis=2), axis=1)
        accuracies.append(np.mean(pred == np.repeat(np.arange(way), queries_per_class)))
    return float(np.mean(accuracies)), float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(episodes))


def novel_videos(cfg):
    videos, meta = gen_fewshot_corpus(cfg)
    return [v for v in videos if v.label not in meta["base_labels"]]


def traced_peak(fn, *args, **kwargs):
    """Peak traced allocation, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFewshot:
    def test_separable_classes_perfect(self):
        videos = class_corpus()
        report = fewshot_eval(None, videos, way=5, shot=1, queries_per_class=5, episodes=10, seed=0)
        assert report.aux["accuracy"] == pytest.approx(1.0)

    def test_random_labels_chance_level(self):
        rng = np.random.default_rng(1)
        videos = []
        for c in range(6):
            for v in range(8):
                vid = f"r{c}v{v}"
                videos.append(LabeledVideo(vid, f"class{c}", EmbeddingSequence(vid, rng.normal(size=(4, 16)))))
        report = fewshot_eval(None, videos, way=5, shot=1, queries_per_class=5, episodes=120, seed=0)
        assert abs(report.aux["accuracy"] - 0.2) < 0.05

    def test_exactly_reproducible(self):
        videos = class_corpus(noise=0.2)
        a = fewshot_eval(None, videos, way=3, shot=2, queries_per_class=4, episodes=40, seed=9)
        b = fewshot_eval(None, videos, way=3, shot=2, queries_per_class=4, episodes=40, seed=9)
        assert a.aux == b.aux

    def test_insufficient_videos_rejected(self):
        videos = class_corpus(per_class=3)
        with pytest.raises(DataError):
            fewshot_eval(None, videos, way=5, shot=1, queries_per_class=15, episodes=5)

    def test_too_few_classes_rejected(self):
        videos = class_corpus(n_classes=3)
        with pytest.raises(DataError):
            fewshot_eval(None, videos, way=5, shot=1, queries_per_class=5, episodes=5)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_ragged_scores_match_per_pair_reference(self, rng, measure, monkeypatch, stack_calls):
        rows = [rng.normal(size=(int(rng.integers(1, 9)), 6)) for _ in range(9)]
        cols = [rng.normal(size=(int(rng.integers(1, 9)), 6)) for _ in range(70)]
        monkeypatch.setattr(align, "STACK_CELLS", 16384)
        scores = _score_matrix(*normalized(rows, cols), measure)
        *_, (pairs, n, m) = stack_calls  # the last of several alignment calls holds fewer pairs than fit
        assert len(stack_calls) > 1 and (pairs + 1) * n * m <= align.STACK_CELLS
        assert np.array_equal(scores, reference_scores(rows, cols, measure))

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("measure", FEWSHOT_MEASURES)
    def test_matches_per_episode_reference(self, measure, ragged):
        videos = noisy_class_corpus(ragged)
        settings = dict(way=4, shot=2, queries_per_class=3, episodes=30, seed=4)
        report = fewshot_eval(None, videos, measure=measure, **settings)
        accuracy, ci95 = per_episode_reference(videos, measure, **settings)
        assert (report.aux["accuracy"], report.aux["ci95"]) == (accuracy, ci95)
        assert 0.3 < accuracy < 1.0  # neither chance nor saturated

    def test_aligns_every_pair_once(self, stack_calls):
        # the score matrix is formed before any episode is drawn, so one
        # episode aligns as many matrices as twenty; dtw aligns each
        # unordered pair once, otam each ordered pair
        videos = class_corpus(noise=0.2)
        n = len(videos)
        for measure, matrices in (("dtw", n * (n + 1) // 2), ("otam", n * n)):
            for episodes in (1, 20):
                stack_calls.clear()
                fewshot_eval(None, videos, way=5, shot=1, queries_per_class=5, episodes=episodes, measure=measure)
                aligned = [batch for batch, _, _ in stack_calls]
                assert sum(aligned) == matrices

    def test_dtw_self_scores_match_per_pair_reference(self, rng, monkeypatch, stack_calls):
        videos = [rng.normal(size=(int(rng.integers(1, 9)), 5)) for _ in range(31)]
        monkeypatch.setattr(evaluate, "BLOCK_BYTES", 3 * 4 * 5 * 8)  # three 4-unit stacks
        monkeypatch.setattr(align, "STACK_CELLS", 23 * 16)
        (units,) = normalized(videos)
        assert len(units.blocks) >= 10
        scores = _score_matrix(units, units, "dtw")
        calls = [batch for batch, _, _ in stack_calls]
        assert len(calls) >= 10 and sum(calls) == 31 * 32 // 2
        assert np.array_equal(scores, reference_scores(videos, videos, "dtw"))

    def test_dtw_self_scores_take_the_earlier_video_as_rows(self):
        # sequences of three orthogonal frames tie a cell's vertical and
        # horizontal predecessors, where the two orientations can differ
        rng = np.random.default_rng(0)
        videos = [np.eye(4)[rng.integers(0, 3, size=int(rng.integers(1, 7)))] for _ in range(30)]
        reference = reference_scores(videos, videos, "dtw")
        assert np.any(reference != reference.T)
        (units,) = normalized(videos)
        scores = _score_matrix(units, units, "dtw")
        assert np.array_equal(scores, scores.T)
        earlier_as_rows = np.triu(reference) + np.triu(reference, 1).T
        assert np.array_equal(scores, earlier_as_rows)

    @pytest.mark.parametrize("measure", FEWSHOT_MEASURES)
    def test_episode_blocks_change_nothing(self, measure, monkeypatch):
        videos = noisy_class_corpus(True)
        settings = dict(way=4, shot=2, queries_per_class=3, episodes=30, seed=4, measure=measure)
        whole = fewshot_eval(None, videos, **settings)
        calls = []
        scorer = evaluate._score_matrix

        def counting(rows, cols, measure):
            calls.append(measure)
            return scorer(rows, cols, measure)

        monkeypatch.setattr(evaluate, "EPISODE_BLOCK", 7)
        monkeypatch.setattr(evaluate, "_score_matrix", counting)
        assert fewshot_eval(None, videos, **settings).aux == whole.aux
        assert len(calls) == (0 if measure == "bag" else 1)  # once per call, not per block

    def test_memory_does_not_grow_with_episodes(self):
        # small episodes keep the traced run short; the parent's pair keys grew 5x here
        cfg = FewshotSynthConfig(n_classes=4, videos_per_class=4, steps_per_class=3, frames_per_step=1, dim=4, seed=3)
        novel = novel_videos(cfg)

        def peak(episodes):
            return traced_peak(fewshot_eval, None, novel, way=2, queries_per_class=3, episodes=episodes, measure="bag")

        assert peak(5000) <= 1.5 * peak(1000)

    def test_bag_memory_within_dtw(self):
        # bag scores about 10,000 pairs here; scoring them in one (pairs, dim)
        # product peaked at 11 MB against dtw's 4.7 MB
        novel = novel_videos(FewshotSynthConfig())

        def peak(measure):
            return traced_peak(fewshot_eval, None, novel, episodes=evaluate.EPISODE_BLOCK, measure=measure)

        assert peak("bag") <= peak("dtw")

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("measure", FEWSHOT_MEASURES)
    def test_non_finite_projection_rejected(self, measure, ragged):
        videos = noisy_class_corpus(ragged)
        with pytest.raises(DataError, match="similarity: non-finite"):
            fewshot_eval(NonFiniteProjection("clips"), videos, way=4, shot=1, queries_per_class=2, episodes=2,
                         measure=measure)

    def test_non_finite_projection_of_ragged_videos_rejected(self):
        videos = [LabeledVideo(v.id, v.label, EmbeddingSequence(v.id, v.frames.units[: 1 + i % 4]))
                  for i, v in enumerate(class_corpus())]
        with pytest.raises(DataError, match="similarity: non-finite"):
            fewshot_eval(NonFiniteProjection("clips"), videos, way=5, shot=1, queries_per_class=5, episodes=2)

    def test_bag_measure_ignores_order(self):
        videos = class_corpus()
        report = fewshot_eval(None, videos, way=5, shot=1, queries_per_class=5, episodes=10, measure="bag")
        assert report.aux["accuracy"] == pytest.approx(1.0)  # classes differ in content here


class TestEvalReport:
    def test_csv_rows_schema(self):
        report = EvalReport(task="retrieval-full", measure="dtw", recalls={1: 0.5, 5: 0.9}, aux={"n_queries": 10.0})
        rows = list(report.csv_rows())
        assert rows[0] == ("retrieval-full", "dtw", 1, 0.5)
        assert rows[1] == ("retrieval-full", "dtw", 5, 0.9)
        assert rows[2] == ("retrieval-full.n_queries", "dtw", 0, 10.0)

    def test_text_table_contains_values(self):
        report = EvalReport(task="t", measure="m", recalls={1: 0.25})
        assert "0.25" in report.text_table()
