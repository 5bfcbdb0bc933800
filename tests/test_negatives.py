import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import basis, make_pair, seq, split_perms
from tempalign.core import DataError, LabeledVideo
from tempalign.negatives import STRATEGIES, PairPool, generate_negatives, multi_frame_indices, video_only_negatives
from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus


def two_segment_pair(pid="p0"):
    # segment A = clips [0, 1], segment B = clip [2]
    return make_pair(
        [basis(0, 6), basis(1, 6)],
        [basis(2, 6), basis(3, 6), basis(4, 6)],
        [(0, 2), (2, 3)],
        pid=pid,
    )


def equal_segment_pair(k=3, pid="p0"):
    captions = [basis(i, 2 * k) for i in range(k)]
    clips = [basis(k + i, 2 * k) for i in range(k)]
    return make_pair(captions, clips, [(i, i + 1) for i in range(k)], pid=pid)


class TestPermuteSegments:
    def test_two_segments_unique_swap(self, rng):
        pair = two_segment_pair()
        out = generate_negatives(pair, None, "seg-only", 1, rng)
        assert out.strategies == ("seg-only",)
        np.testing.assert_array_equal(split_perms(out)[0], [2, 0, 1])
        assert out.sources == (pair.id,)

    def test_shuffle_within_enumerates_intra_orders(self, rng):
        pair = two_segment_pair()
        out = generate_negatives(pair, None, "seg-unit", 80, rng)
        assert set(out.strategies) == {"seg-unit"}
        assert {tuple(p) for p in split_perms(out)} == {(2, 0, 1), (2, 1, 0)}

    def test_identity_segment_order_never_drawn(self, rng):
        pair = equal_segment_pair(3)
        for perm in split_perms(generate_negatives(pair, None, "seg-only", 1000, rng)):
            assert not np.array_equal(perm, np.arange(3))

    def test_seg_only_preserves_intra_block_order(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 6,
            [(0, 3), (3, 6)],
        )
        for perm in split_perms(generate_negatives(pair, None, "seg-only", 20, rng)):
            perm = list(perm)
            # each original block appears as a contiguous, ordered run
            a = perm.index(0)
            assert perm[a : a + 3] == [0, 1, 2]
            b = perm.index(3)
            assert perm[b : b + 3] == [3, 4, 5]

    def test_single_segment_degenerate(self, rng):
        # no second block to reorder: the draw falls back to all-unit
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 3)])
        assert set(generate_negatives(pair, None, "seg-only", 4, rng).strategies) == {"all-unit"}


class TestPermuteWithinSegments:
    def test_single_segment_inplace_shuffle(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 3)])
        out = generate_negatives(pair, None, "within-seg", 1, rng)
        assert sorted(split_perms(out)[0]) == [0, 1, 2]
        assert not np.array_equal(split_perms(out)[0], np.arange(3))

    def test_block_boundaries_unmoved(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 4,
            [(0, 2), (2, 4)],
        )
        for perm in split_perms(generate_negatives(pair, None, "within-seg", 50, rng)):
            assert set(perm[:2]) == {0, 1}
            assert set(perm[2:]) == {2, 3}

    def test_all_singletons_degenerate(self, rng):
        assert len(generate_negatives(equal_segment_pair(3), None, "within-seg", 4, rng)) == 0


class TestPermuteAllUnits:
    def test_two_clips_always_swap(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4), basis(2, 4)], [(0, 2)])
        for perm in split_perms(generate_negatives(pair, None, "all-unit", 10, rng)):
            np.testing.assert_array_equal(perm, [1, 0])

    def test_identity_excluded(self, rng):
        pair = make_pair([basis(0, 12)], [basis(i, 12) for i in range(1, 6)], [(0, 5)])
        for perm in split_perms(generate_negatives(pair, None, "all-unit", 1000, rng)):
            assert not np.array_equal(perm, np.arange(5))

    def test_multiset_preserved(self, rng):
        pair = make_pair([basis(0, 12)], [basis(i, 12) for i in range(1, 6)], [(0, 5)])
        out = generate_negatives(pair, None, "all-unit", 1, rng)
        assert sorted(split_perms(out)[0]) == list(range(5))

    def test_single_clip_degenerate(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)], [(0, 1)])
        assert len(generate_negatives(pair, None, "all-unit", 4, rng)) == 0


class TestSampleUnpaired:
    def test_two_pair_corpus_always_other(self, rng):
        corpus = [two_segment_pair("p0"), two_segment_pair("p1")]
        out = generate_negatives(corpus[0], PairPool.of(corpus), "unpaired", 10, rng)
        assert out.sources == ("p1",) * 10
        for perm in split_perms(out):
            np.testing.assert_array_equal(perm, np.arange(corpus[1].covered_indices.size))

    def test_source_never_anchor(self, rng):
        corpus = [two_segment_pair(f"p{i}") for i in range(5)]
        assert "p2" not in generate_negatives(corpus[2], PairPool.of(corpus), "unpaired", 100, rng).sources

    def test_corpus_of_one_rejected(self, rng):
        with pytest.raises(DataError):
            generate_negatives(two_segment_pair("p0"), PairPool.of([two_segment_pair("p0")]), "unpaired", 1, rng)


class TestGenerateNegatives:
    def test_seg_unit_count_and_validity(self, rng):
        pair = equal_segment_pair(3)
        out = generate_negatives(pair, None, "seg-unit", 32, rng)
        assert len(out) == 32
        assert out.strategies == ("seg-unit",) * 32
        for perm in split_perms(out):
            assert sorted(perm) == list(range(3))
            assert not np.array_equal(perm, np.arange(3))

    def test_two_segment_seg_only_unique_swap_copies(self, rng):
        out = generate_negatives(two_segment_pair(), None, "seg-only", 4, rng)
        assert len(out) == 4
        for perm in split_perms(out):
            np.testing.assert_array_equal(perm, [2, 0, 1])

    def test_fallback_chain_exhausted(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)], [(0, 1)])
        assert len(generate_negatives(pair, None, "seg-unit", 8, rng)) == 0

    def test_fallback_to_all_unit(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4), basis(2, 4)], [(0, 2)])
        out = generate_negatives(pair, None, "seg-unit", 3, rng)
        assert out.strategies == ("all-unit",) * 3

    def test_joint_split(self, rng):
        corpus = [equal_segment_pair(3, f"p{i}") for i in range(3)]
        out = generate_negatives(corpus[0], PairPool.of(corpus), "joint", 5, rng)
        assert out.strategies == ("seg-unit",) * 3 + ("unpaired",) * 2
        assert set(out.sources[3:]) <= {"p1", "p2"}

    def test_visual_anchor_permutes_captions(self, rng):
        pair = equal_segment_pair(3)
        out = generate_negatives(pair, None, "visual-anchor", 6, rng)
        assert out.strategies == ("visual-anchor",) * 6
        for perm in split_perms(out):
            assert sorted(perm) == [0, 1, 2]
            assert not np.array_equal(perm, np.arange(3))

    def test_unknown_strategy(self, rng):
        # one spelling per strategy: the underscore forms are unknown too
        for name in ("segment-soup", "seg_unit", "visual_anchor"):
            with pytest.raises(ValueError, match=r"expected one of \('seg-only', 'seg-unit', 'within-seg'"):
                generate_negatives(two_segment_pair(), None, name, 2, rng)

    def test_reproducible_with_seed(self):
        pair = equal_segment_pair(4)
        a = generate_negatives(pair, None, "seg-unit", 16, np.random.default_rng(7))
        b = generate_negatives(pair, None, "seg-unit", 16, np.random.default_rng(7))
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.perms, b.perms)

    def test_within_seg_stays_inside_ranges(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 5,
            [(0, 2), (2, 5)],
        )
        out = generate_negatives(pair, None, "within-seg", 10, rng)
        for perm in split_perms(out):
            for pos, orig in enumerate(perm):
                if pos < 2:
                    assert orig in (0, 1)
                else:
                    assert orig in (2, 3, 4)


class TestVideoOnlyNegatives:
    def test_sources_and_shuffles(self, rng):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=3, dim=8, seed=1))
        out = video_only_negatives(videos, 0, 12, rng)
        assert len(out) == 12
        n = len(videos[1].frames)
        assert videos[0].id not in out.sources
        for perm in split_perms(out):
            assert sorted(perm) == list(range(n))
            assert not np.array_equal(perm, np.arange(n))

    def test_rejects_tiny_corpus(self, rng):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=3, dim=8, seed=1))
        with pytest.raises(DataError):
            video_only_negatives(videos[:1], 0, 4, rng)


# A per-draw loop of the unpaired and video-only drawing rules, one negative
# per call: the batched draws must equal it value for value and leave the
# generator in the same state.


def ref_non_identity(n, rng):
    perm = rng.permutation(n)
    while np.array_equal(perm, np.arange(n)):
        perm = rng.permutation(n)
    return perm


def ref_negatives(pair, corpus, strategy, count, rng):
    assert strategy == "unpaired"
    others = [p for p in corpus if p.id != pair.id]
    picks = [others[int(rng.integers(len(others)))] for _ in range(count)]
    return [("unpaired", np.arange(p.covered_indices.size), p.id) for p in picks]


def assert_same_draws(out, ref):
    assert out.strategies == tuple(s for s, _, _ in ref)
    assert out.sources == tuple(src for _, _, src in ref)
    for got, (_, perm, _) in zip(split_perms(out), ref):
        np.testing.assert_array_equal(got, perm)


def varied_corpus(rng):
    """Pairs with background clips, singleton and single segments, one
    single-clip pair and one with a single caption."""
    segment_sets = (
        [(1, 3), (4, 6), (7, 9)],
        [(0, 1), (1, 2), (2, 3), (3, 7)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 4)],
        [(0, 1)],
        [(0, 2), (2, 5), (5, 6), (6, 9), (9, 10)],
    )
    return [
        make_pair(rng.normal(size=(len(segs), 6)), rng.normal(size=(segs[-1][1] + 1, 6)), segs, pid=f"v{i}")
        for i, segs in enumerate(segment_sets)
    ]


class TestDrawsMatchPerDrawLoop:
    @pytest.mark.parametrize("strategy", ["unpaired"])
    def test_300_draws_per_strategy(self, strategy, rng):
        corpus = varied_corpus(rng)
        for seed, pair in enumerate(corpus):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            out = generate_negatives(pair, PairPool.of(corpus), strategy, 50, ours)
            assert_same_draws(out, ref_negatives(pair, corpus, strategy, 50, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("copied", [False, True])
    def test_unpaired_skips_every_copy_of_the_id(self, copied, rng):
        # the anchor's id is skipped whether the anchor is the pool's own
        # pair or another pair carrying that id; an id outside the pool
        # skips nothing
        corpus = varied_corpus(rng)
        pool = PairPool.of(corpus)
        anchors = [two_segment_pair(p.id) for p in corpus] if copied else corpus
        for seed, pair in enumerate([*anchors, two_segment_pair("outside")]):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            out = generate_negatives(pair, pool, "unpaired", 50, ours)
            assert_same_draws(out, ref_negatives(pair, corpus, "unpaired", 50, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_pool_refuses_repeated_ids(self, rng):
        corpus = varied_corpus(rng)
        with pytest.raises(DataError, match="id 'v3' is taken by an earlier item"):
            PairPool.of([*corpus, corpus[3]])

    def test_joint_draws_seg_unit_then_unpaired(self, rng):
        corpus = varied_corpus(rng)
        pool = PairPool.of(corpus)
        for seed, pair in enumerate(corpus):
            out = generate_negatives(pair, pool, "joint", 9, np.random.default_rng(seed))
            theirs = np.random.default_rng(seed)
            a, b = generate_negatives(pair, pool, "seg-unit", 5, theirs), generate_negatives(pair, pool, "unpaired", 4, theirs)
            assert (out.strategies, out.sources) == (a.strategies + b.strategies, a.sources + b.sources)
            assert np.array_equal(out.perms, np.concatenate((a.perms, b.perms)))
            assert np.array_equal(out.lengths, np.concatenate((a.lengths, b.lengths)))

    def test_video_only_draws(self):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=5, dim=8, seed=3))
        ragged = [v if k % 3 else LabeledVideo(v.id, v.label, seq(v.frames.units[: 2 + k], v.id)) for k, v in enumerate(videos)]
        for anchor in range(len(ragged)):
            ours, theirs = np.random.default_rng(anchor), np.random.default_rng(anchor)
            out = video_only_negatives(ragged, anchor, 30, ours)
            candidates = [k for k in range(len(ragged)) if k != anchor]
            ref = []
            for _ in range(30):
                other = ragged[candidates[int(theirs.integers(len(candidates)))]]
                ref.append(("all-unit", ref_non_identity(len(other.frames), theirs), other.id))
            assert_same_draws(out, ref)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_precomputed_multi_frame_indices_draw_the_same(self):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=4, dim=8, seed=1))
        videos[2] = LabeledVideo("single", "x", seq(videos[2].frames.units[:1], "single"))
        multi_frame = multi_frame_indices(videos)
        assert multi_frame.tolist() == [0, 1, 3, 4, 5, 6, 7]
        for anchor in range(len(videos)):
            ours, theirs = np.random.default_rng(anchor), np.random.default_rng(anchor)
            out, ref = video_only_negatives(videos, anchor, 20, ours, multi_frame), video_only_negatives(videos, anchor, 20, theirs)
            assert out.sources == ref.sources and "single" not in out.sources
            assert np.array_equal(out.perms, ref.perms) and np.array_equal(out.lengths, ref.lengths)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_single_frame_videos_never_drawn(self, rng):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=3, dim=8, seed=1))
        single = LabeledVideo("single", "x", seq(videos[0].frames.units[:1], "single"))
        out = video_only_negatives([*videos, single], 0, 200, rng)
        assert len(out) == 200 and "single" not in out.sources
        assert len(video_only_negatives([videos[0], single], 0, 4, rng)) == 0


# The shuffle strategies draw all of a call's negatives at once, so no
# per-draw loop restates their stream; they are pinned by what they may
# return, by how often they return it and by the generator calls they make.

SHUFFLES = ("seg-only", "seg-unit", "within-seg", "all-unit", "visual-anchor")


def allowed(pair, strategy, perm):
    """Whether ``strategy`` may draw ``perm`` for ``pair``: a permutation other
    than the identity that keeps the blocks the strategy keeps, and for
    seg-unit also moves a block."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))) or perm == sorted(perm):
        return False
    blocks = [list(range(lo, hi)) for lo, hi in pair.covered_spans()]
    if strategy == "within-seg":
        return all(sorted(perm[b[0] : b[-1] + 1]) == b for b in blocks)
    if strategy not in ("seg-only", "seg-unit"):
        return True
    pos, order = 0, []
    while pos < len(perm):
        # each block is one contiguous run: in order (seg-only) or any order
        order.append(next(k for k, b in enumerate(blocks) if perm[pos] in b))
        block = blocks[order[-1]]
        run = perm[pos : pos + len(block)]
        if run != block if strategy == "seg-only" else sorted(run) != block:
            return False
        pos += len(block)
    return order != sorted(order)


def chi2_sf(stat, df):
    """Upper tail of the chi-square distribution, by the Wilson-Hilferty
    normal approximation; at the exact 1e-4 critical value of 1 to 118
    degrees of freedom it gives 1.0e-4 to 1.6e-4, so it errs towards passing."""
    z = ((stat / df) ** (1 / 3) - 1 + 2 / (9 * df)) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def chi2_pvalue(observed, expected):
    """Pearson's test of counts against expected counts; categories the
    expectation rules out must be empty."""
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    assert not observed[expected == 0].any(), "a draw outside the support"
    o, e = observed[expected > 0], expected[expected > 0]
    if o.size == 1:  # one possible value: nothing left to test
        return 1.0
    return chi2_sf(float(((o - e) ** 2 / e).sum()), o.size - 1)


class TestShuffleSupport:
    @pytest.mark.parametrize("strategy", SHUFFLES)
    def test_every_draw_is_allowed(self, strategy, rng):
        corpus = varied_corpus(rng)
        for seed, pair in enumerate(corpus):
            out = generate_negatives(pair, PairPool.of(corpus), strategy, 2000, np.random.default_rng(seed))
            if pair.id in ("v0", "v1", "v5"):  # no strategy is degenerate on these
                assert out.strategies == (strategy,) * 2000
            if not len(out):
                continue
            assert len(out) == 2000 and out.sources == (pair.id,) * 2000
            for perm in {tuple(p) for p in split_perms(out)}:
                assert allowed(pair, out.strategies[0], perm), (pair.id, perm)


# 20,000 seeded draws per pair and strategy; each statistic is tested at
# level 1e-4, so the 92 statistics below fail a uniform drawer with
# probability under 1%.
N_DRAWS, LEVEL = 20_000, 1e-4


class TestShuffleDistribution:
    @pytest.mark.parametrize("strategy", SHUFFLES)
    def test_position_frequencies(self, strategy, rng):
        # the pairs of at most 7 covered clips, whose allowed permutations
        # can be listed: each slot's values against those permutations' share
        corpus = varied_corpus(rng)[:4]
        for seed, pair in enumerate(corpus):
            out = generate_negatives(pair, PairPool.of(corpus), strategy, N_DRAWS, np.random.default_rng(100 + seed))
            if not len(out):
                continue
            draws = out.perms.reshape(N_DRAWS, -1)
            n = draws.shape[1]
            support = np.array([p for p in itertools.permutations(range(n)) if allowed(pair, out.strategies[0], p)])
            for slot in range(n):
                observed = np.bincount(draws[:, slot], minlength=n)
                expected = np.bincount(support[:, slot], minlength=n) * N_DRAWS / len(support)
                assert chi2_pvalue(observed, expected) > LEVEL, (pair.id, strategy, slot)

    @pytest.mark.parametrize("strategy", ["seg-only", "seg-unit"])
    def test_block_orders_uniform_over_non_identity(self, strategy, rng):
        corpus = varied_corpus(rng)
        for seed, pair in enumerate(corpus):
            spans = pair.covered_spans()
            if len(spans) < 2:
                continue
            out = generate_negatives(pair, PairPool.of(corpus), strategy, N_DRAWS, np.random.default_rng(200 + seed))
            blocks = np.repeat(np.arange(len(spans)), [hi - lo for lo, hi in spans])[out.perms.reshape(N_DRAWS, -1)]
            starts = np.ones_like(blocks, dtype=bool)
            starts[:, 1:] = blocks[:, 1:] != blocks[:, :-1]
            orders = blocks[starts].reshape(N_DRAWS, len(spans))  # each block one run
            categories = list(itertools.permutations(range(len(spans))))
            observed = [0] * len(categories)
            for order, k in Counter(map(tuple, orders.tolist())).items():
                observed[categories.index(order)] = k
            expected = [0] + [N_DRAWS / (len(categories) - 1)] * (len(categories) - 1)
            assert chi2_pvalue(observed, expected) > LEVEL, pair.id


class CountingGenerator:
    """A numpy Generator that counts the method calls made on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generator_calls_do_not_depend_on_count(strategy, rng):
    # 12 segments of 3 clips: a draw is the identity with probability at most
    # 6**-12 under every strategy, so no call here needs a redraw round
    corpus = [
        make_pair(rng.normal(size=(12, 6)), rng.normal(size=(36, 6)), [(3 * i, 3 * i + 3) for i in range(12)], pid=f"w{k}")
        for k in range(2)
    ]
    calls = set()
    for count in (1, 10, 1000, 10_000):
        counting = CountingGenerator(count)
        assert len(generate_negatives(corpus[0], PairPool.of(corpus), strategy, count, counting)) == count
        calls.add(counting.calls)
    assert len(calls) == 1 and calls.pop() <= 3
