import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, covered_units, covered_view, infonce_with_grad, make_pair, seq_infonce, split_perms, with_units
from tempalign.core import similarity_matrix
from tempalign.loss import LossConfig, column_spans, joint_loss, seq_grad_core
from tempalign.negatives import STRATEGIES, Negatives, PairPool, generate_negatives
from tempalign.train import cosine_backward


def infonce(pos, negs, tau=1.0):
    return infonce_with_grad(pos, negs, tau)[0]


def one_negative(strategy, perm, source_id):
    return Negatives((strategy,), (source_id,), np.asarray(perm), np.array([len(perm)]))


class TestUnitInfonce:
    def test_no_negatives_no_competition(self):
        assert infonce(3.7, [], tau=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_two_way(self):
        assert infonce(0.0, [0.0], tau=1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_direct_evaluation(self):
        # -log(e/(e + 2)) = log(1 + 2 * e^-1)
        expected = math.log(1.0 + 2.0 * math.exp(-1.0))
        assert infonce(1.0, [0.0, 0.0], tau=1.0) == pytest.approx(expected, abs=1e-12)

    def test_equal_scores_closed_form(self):
        for n in (1, 31):
            assert infonce(0.4, [0.4] * n, tau=0.7) == pytest.approx(math.log(n + 1), abs=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            infonce(1.0, [0.0], tau=0.0)

    def test_stability_at_large_scores(self):
        loss = infonce(1000.0, [999.0, 998.0], tau=1.0)
        assert np.isfinite(loss)
        assert loss == pytest.approx(math.log(1 + math.exp(-1.0) + math.exp(-2.0)), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5),
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.floats(-20, 20),
    )
    def test_shift_invariance(self, pos, negs, c):
        base = infonce(pos, negs, tau=1.0)
        shifted = infonce(pos + c, [x + c for x in negs], tau=1.0)
        assert shifted == pytest.approx(base, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-3, 3), st.lists(st.floats(-3, 3), min_size=1, max_size=5))
    def test_monotone_in_positive_score(self, pos, negs):
        assert infonce(pos + 0.5, negs) < infonce(pos, negs)

    def test_softmax_weights_sum_to_zero(self, rng):
        for _ in range(20):
            pos = rng.normal()
            negs = rng.normal(size=int(rng.integers(1, 6)))
            _, dpos, dnegs = infonce_with_grad(pos, negs, tau=float(rng.uniform(0.2, 3.0)))
            assert dpos + dnegs.sum() == pytest.approx(0.0, abs=1e-12)


def toy_pair(s11, s12, s21, s22):
    """2x2 pair realizing the given caption/clip cosine table exactly.

    Anchor rows are e1, e2; clip j places its target similarities on those
    axes and fills the remaining mass on a private axis, so sim(m_i, n_j)
    equals the requested value while all units stay unit-norm.
    """
    c1 = math.sqrt(1.0 - s11 * s11 - s21 * s21)
    c2 = math.sqrt(1.0 - s12 * s12 - s22 * s22)
    captions = [basis(0, 4), basis(1, 4)]
    clips = [
        [s11, s21, c1, 0.0],
        [s12, s22, 0.0, c2],
    ]
    return make_pair(captions, clips, [(0, 1), (1, 2)], pid="toy")


def swap_negative():
    return one_negative("seg-only", [1, 0], "toy")


RAW_CFG = LossConfig(tau=1.0, normalize_score=False, measure="dtw")


def path_entries(res, negs):
    """Per candidate, the set of (anchor row, source column) similarity
    entries on its path; a shuffle negative's perm maps its path columns to
    positions of its source."""
    out = []
    for k in range(len(negs) + 1):
        rows, cols = res.paths.path(k).T
        if k:
            cols = split_perms(negs)[k - 1][cols]
        out.append(set(zip(rows.tolist(), cols.tolist())))
    return out


class TestSeqInfonce:
    def test_equal_score_degenerate(self, rng):
        # 32 negatives with identical scores to the positive -> ln 33.
        k = 4
        captions = [basis(i, 2 * k) for i in range(k)]
        clips = [basis(0, 2 * k) for _ in range(k)]  # all clips identical
        pair = make_pair(captions, clips, [(i, i + 1) for i in range(k)])
        negs = generate_negatives(pair, None, "all-unit", 32, rng)
        loss = seq_infonce(pair, negs, LossConfig(tau=1.0)).loss
        assert loss == pytest.approx(math.log(33.0), abs=1e-9)

    def test_saturation_at_large_margin(self):
        loss = infonce(10.0, [0.0] * 4, tau=1.0)
        assert loss < 1e-3

    def test_appendix_toy_closed_form(self):
        # sims m1n1 = m2n2 = 1, m1n2 = m2n1 = 0, raw score, one swapped
        # negative: loss = ln(1 + e^-2).
        pair = toy_pair(1.0, 0.0, 0.0, 1.0)
        details = seq_infonce(pair, swap_negative(), RAW_CFG)
        assert details.loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
        assert details.scores[0] == pytest.approx(2.0)
        assert details.scores[1] == pytest.approx(0.0)

    def test_no_negatives_skipped(self):
        pair = toy_pair(0.5, 0.1, -0.2, 0.4)
        details = seq_infonce(pair, Negatives((), (), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)), LossConfig())
        assert details.loss == 0.0
        assert len(details.candidates) == 1

    def test_other_source_is_read_from_the_corpus(self):
        pair = toy_pair(1.0, 0.0, 0.0, 1.0)
        other = make_pair([basis(0, 4), basis(1, 4)], [basis(1, 4), basis(0, 4)], [(0, 1), (1, 2)], pid="other")
        neg = one_negative("unpaired", np.arange(2), "other")
        with pytest.raises(ValueError, match="unknown pair 'other'"):
            seq_infonce(pair, neg, RAW_CFG)
        details = seq_infonce(pair, neg, RAW_CFG, corpus=[pair, other])
        assert details.candidates == ["toy", "other"]
        assert details.loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)


# Three 9-clip pairs whose background clips (0, 3, 6 / 2, 8 / 0, 1) sit
# before, between and after their segments.
BACKGROUND_SEGMENTS = (
    [(1, 3), (4, 6), (7, 9)],
    [(0, 2), (3, 5), (5, 8)],
    [(2, 4), (4, 7), (7, 9)],
)


class TestCoveredPositions:
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_background_pair_scores_as_its_covered_view(self, strategy, measure, rng):
        corpus = [
            make_pair(rng.normal(size=(3, 6)), rng.normal(size=(9, 6)), segments, pid=f"bg{i}")
            for i, segments in enumerate(BACKGROUND_SEGMENTS)
        ]
        pair = corpus[0]
        negs = generate_negatives(pair, PairPool.of(corpus), strategy, 6, rng)
        assert len(negs) == 6
        n_covered = {p.id: p.covered_indices.size for p in corpus}
        for k, (tag, src) in enumerate(zip(negs.strategies, negs.sources)):
            n = len(pair.anchor) if tag == "visual-anchor" else n_covered[src]
            assert sorted(split_perms(negs)[k].tolist()) == list(range(n))
        cfg = LossConfig(tau=0.7, measure=measure)
        res = seq_infonce(pair, negs, cfg, corpus=corpus)
        view = seq_infonce(covered_view(pair), negs, cfg, corpus=[covered_view(p) for p in corpus])
        assert res.loss == view.loss
        np.testing.assert_array_equal(res.scores, view.scores)
        assert list(res.grad_by_source) == list(view.grad_by_source)
        for src, grad in res.grad_by_source.items():
            assert grad.shape == (3, n_covered[src])
            np.testing.assert_array_equal(grad, view.grad_by_source[src])


class TestSeqGradOracle:
    # The toy positive's path and the swapped negative's path touch disjoint
    # similarity entries, so each entry's gradient is one candidate's alone.
    def test_symmetric_case_values(self):
        pair = toy_pair(1.0, 0.0, 0.0, 1.0)
        res = seq_infonce(pair, swap_negative(), RAW_CFG)
        positive, negative = path_entries(res, swap_negative())
        assert not positive & negative
        grad = res.grad_by_source["toy"]
        expected = 1.0 / (math.e**2 + 1.0)
        assert grad[0, 0] == pytest.approx(-expected, abs=1e-9)
        assert grad[0, 1] == pytest.approx(expected, abs=1e-9)
        assert grad[0, 0] == pytest.approx(-0.1192029, abs=1e-7)

    def test_closed_forms_on_random_settings(self, rng):
        # d(loss)/d(m1.n1) = -e^{m1.n2} / (e^{m1.n1} e^{m2.n2 - m2.n1} + e^{m1.n2})
        # d(loss)/d(m1.n2) =  e^{m1.n2 + m2.n1} / (e^{m1.n1 + m2.n2} + e^{m1.n2 + m2.n1})
        for _ in range(100):
            s11, s12, s21, s22 = rng.uniform(-0.7, 0.7, size=4)
            pair = toy_pair(s11, s12, s21, s22)
            res = seq_infonce(pair, swap_negative(), RAW_CFG)
            positive, negative = path_entries(res, swap_negative())
            assert not positive & negative
            g11 = -math.exp(s12) / (math.exp(s11) * math.exp(s22 - s21) + math.exp(s12))
            g12 = math.exp(s12 + s21) / (math.exp(s11 + s22) + math.exp(s12 + s21))
            assert res.grad_by_source["toy"][0, 0] == pytest.approx(g11, abs=1e-9)
            assert res.grad_by_source["toy"][0, 1] == pytest.approx(g12, abs=1e-9)
            # the loss itself matches the two-candidate closed form
            expected_loss = math.log(1.0 + math.exp((s12 + s21) - (s11 + s22)))
            assert res.loss == pytest.approx(expected_loss, abs=1e-9)

    def test_grad_by_source_aggregates_entries(self, rng):
        s = rng.uniform(-0.6, 0.6, size=4)
        pair = toy_pair(*s)
        res = seq_infonce(pair, swap_negative(), RAW_CFG)
        dense = res.grad_by_source["toy"]
        # Raw scores at tau = 1: d(loss)/d(score_k) = softmax_k - [k == 0],
        # and every entry on candidate k's path carries that value.
        weights = np.exp(res.scores - res.scores.max())
        dscore = weights / weights.sum() - np.eye(len(res.candidates))[0]
        total = np.zeros_like(dense)
        for entries, g in zip(path_entries(res, swap_negative()), dscore):
            for i, j in entries:
                total[i, j] += g
        assert np.abs(total).sum() > 0
        np.testing.assert_allclose(dense, total, rtol=0, atol=1e-12)


def random_pair(rng, n_captions=3, clips_per=2, dim=6, pid="fd"):
    captions = rng.normal(size=(n_captions, dim))
    clips = rng.normal(size=(n_captions * clips_per, dim))
    segs = [(i * clips_per, (i + 1) * clips_per) for i in range(n_captions)]
    return make_pair(captions, clips, segs, pid=pid)


def candidate_paths(pair, negs, cfg):
    res = seq_infonce(pair, negs, cfg)
    return [res.paths.path(k).tolist() for k in range(len(res.candidates))]


class TestSeqGradFiniteDifference:
    def test_matches_central_differences(self, rng):
        cfg = LossConfig(tau=0.8, normalize_score=True, measure="dtw")
        h = 1e-6
        checked = 0
        for trial in range(12):
            pair = random_pair(rng, pid=f"fd{trial}")
            negs = generate_negatives(pair, None, "seg-unit", 4, rng)
            base = seq_infonce(pair, negs, cfg)
            g_anchor, g_clips = cosine_backward(
                pair.anchor.units, covered_units(pair), base.grad_by_source[pair.id]
            )
            base_paths = candidate_paths(pair, negs, cfg)
            for _ in range(4):
                side = int(rng.integers(2))
                r = int(rng.integers(pair.anchor.units.shape[0] if side == 0 else pair.positive.units.shape[0]))
                c = int(rng.integers(pair.anchor.dim))

                def perturbed_loss(eps):
                    a = pair.anchor.units.copy()
                    p = pair.positive.units.copy()
                    (a if side == 0 else p)[r, c] += eps
                    mod = with_units(pair, a, p)
                    return seq_infonce(mod, negs, cfg).loss, candidate_paths(mod, negs, cfg)

                up, paths_up = perturbed_loss(h)
                down, paths_down = perturbed_loss(-h)
                if paths_up != base_paths or paths_down != base_paths:
                    continue  # subgradient point: optimal path moved
                numeric = (up - down) / (2 * h)
                analytic = (g_anchor if side == 0 else g_clips)[r, c]
                denom = max(abs(numeric), abs(analytic))
                if denom < 1e-8:
                    continue
                assert abs(numeric - analytic) / denom < 1e-4
                checked += 1
        assert checked >= 20


class TestBatchMatrix:
    def test_grad_stays_in_each_items_rows_and_read_columns(self, rng):
        # A joint batch over the whole corpus: every item's unpaired draws
        # read the others' sources, so items share columns of the one matrix.
        corpus = [random_pair(rng, n_captions=2 + i % 2, clips_per=2 + i, pid=f"p{i}") for i in range(4)]
        pool = PairPool.of(corpus)
        items = corpus[:3]
        negs = [generate_negatives(item, pool, "joint", 5, rng) for item in items]
        reads = [{item.id, *neg.sources} for item, neg in zip(items, negs)]
        sources = list(dict.fromkeys(src for read in reads for src in sorted(read)))
        by_id = {pair.id: pair for pair in corpus}
        spans = column_spans(sources, [len(by_id[src].positive) for src in sources])
        rows = list(column_spans(range(len(items)), [len(item.anchor) for item in items]).values())
        sims = similarity_matrix(
            np.concatenate([item.anchor.units for item in items]),
            np.concatenate([by_id[src].positive.units for src in sources]),
        )
        cfg = LossConfig(tau=0.6)
        res = seq_grad_core(sims, rows, spans, [item.id for item in items], negs, cfg)

        assert any(len([read for read in reads if src in read]) > 1 for src in sources)
        read = np.zeros(sims.shape, dtype=bool)
        for item, neg, (lo, hi), sources_read in zip(items, negs, rows, reads):
            alone = seq_infonce(item, neg, cfg, corpus=corpus)
            for src in sources_read:
                read[lo:hi, slice(*spans[src])] = True
                np.testing.assert_allclose(res.grad[lo:hi, slice(*spans[src])], alone.grad_by_source[src], rtol=0, atol=1e-12)
            assert np.any(res.grad[lo:hi] != 0.0)
        assert np.any(~read) and np.all(res.grad[~read] == 0.0)


class TestJointLoss:
    def test_pure_sequence_objective(self):
        cfg = LossConfig(w_unit=0.0, w_seq=1.0)
        assert joint_loss([5.0], [2.0], cfg) == pytest.approx(2.0)

    def test_default_weights_arithmetic(self):
        assert joint_loss([1.0], [2.0], LossConfig()) == pytest.approx(1.7)

    def test_unit_only_reproduces_baseline(self):
        cfg = LossConfig(w_unit=1.0, w_seq=0.0)
        assert joint_loss([0.25, 0.75], [9.0], cfg) == pytest.approx(0.5)

    def test_requires_some_term(self):
        with pytest.raises(ValueError):
            joint_loss([], [], LossConfig())


class TestLossConfigValidation:
    def test_tau_positive(self):
        with pytest.raises(ValueError):
            LossConfig(tau=-1.0)

    def test_weights(self):
        with pytest.raises(ValueError):
            LossConfig(w_unit=0.0, w_seq=0.0)

    def test_measure(self):
        with pytest.raises(ValueError):
            LossConfig(measure="soft-dtw")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["tau", "w_unit", "w_seq"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            LossConfig(**{name: value})
