import numpy as np
import pytest

from conftest import basis, make_pair
from tempalign.core import DataError, DegeneratePairError
from tempalign.negatives import (
    NegativePermutation,
    generate_negatives,
    permute_all_units,
    permute_anchor_segments,
    permute_segments,
    permute_within_segments,
    sample_unpaired,
    video_only_negatives,
)
from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus


def two_segment_pair(pid="p0"):
    # segment A = clips [0, 1], segment B = clip [2]
    return make_pair(
        [basis(0, 6), basis(1, 6)],
        [basis(2, 6), basis(3, 6), basis(4, 6)],
        [(0, 0, 2), (1, 2, 3)],
        pid=pid,
    )


def equal_segment_pair(k=3, pid="p0"):
    captions = [basis(i, 2 * k) for i in range(k)]
    clips = [basis(k + i, 2 * k) for i in range(k)]
    return make_pair(captions, clips, [(i, i, i + 1) for i in range(k)], pid=pid)


class TestPermuteSegments:
    def test_two_segments_unique_swap(self, rng):
        pair = two_segment_pair()
        out = permute_segments(pair, shuffle_within=False, rng=rng)
        assert out.strategy == "seg_only"
        np.testing.assert_array_equal(out.perm, [2, 0, 1])
        assert out.source_id == pair.id

    def test_shuffle_within_enumerates_intra_orders(self, rng):
        pair = two_segment_pair()
        seen = set()
        for _ in range(80):
            out = permute_segments(pair, shuffle_within=True, rng=rng)
            assert out.strategy == "seg_unit"
            seen.add(tuple(out.perm))
        assert seen == {(2, 0, 1), (2, 1, 0)}

    def test_identity_segment_order_never_drawn(self, rng):
        pair = equal_segment_pair(3)
        for _ in range(1000):
            out = permute_segments(pair, shuffle_within=False, rng=rng)
            assert not np.array_equal(out.perm, np.arange(3))

    def test_seg_only_preserves_intra_block_order(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 6,
            [(0, 0, 3), (1, 3, 6)],
        )
        for _ in range(20):
            out = permute_segments(pair, shuffle_within=False, rng=rng)
            perm = list(out.perm)
            # each original block appears as a contiguous, ordered run
            a = perm.index(0)
            assert perm[a : a + 3] == [0, 1, 2]
            b = perm.index(3)
            assert perm[b : b + 3] == [3, 4, 5]

    def test_single_segment_degenerate(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 0, 3)])
        with pytest.raises(DegeneratePairError):
            permute_segments(pair, False, rng)


class TestPermuteWithinSegments:
    def test_single_segment_inplace_shuffle(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 0, 3)])
        out = permute_within_segments(pair, rng)
        assert sorted(out.perm) == [0, 1, 2]
        assert not np.array_equal(out.perm, np.arange(3))

    def test_block_boundaries_unmoved(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 4,
            [(0, 0, 2), (1, 2, 4)],
        )
        for _ in range(50):
            out = permute_within_segments(pair, rng)
            assert set(out.perm[:2]) == {0, 1}
            assert set(out.perm[2:]) == {2, 3}

    def test_all_singletons_degenerate(self, rng):
        with pytest.raises(DegeneratePairError):
            permute_within_segments(equal_segment_pair(3), rng)


class TestPermuteAllUnits:
    def test_two_clips_always_swap(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4), basis(2, 4)], [(0, 0, 2)])
        for _ in range(10):
            out = permute_all_units(pair, rng)
            np.testing.assert_array_equal(out.perm, [1, 0])

    def test_identity_excluded(self, rng):
        pair = make_pair([basis(0, 12)], [basis(i, 12) for i in range(1, 6)], [(0, 0, 5)])
        for _ in range(1000):
            out = permute_all_units(pair, rng)
            assert not np.array_equal(out.perm, np.arange(5))

    def test_multiset_preserved(self, rng):
        pair = make_pair([basis(0, 12)], [basis(i, 12) for i in range(1, 6)], [(0, 0, 5)])
        out = permute_all_units(pair, rng)
        assert sorted(out.perm) == list(range(5))

    def test_single_clip_degenerate(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)], [(0, 0, 1)])
        with pytest.raises(DegeneratePairError):
            permute_all_units(pair, rng)


class TestSampleUnpaired:
    def test_two_pair_corpus_always_other(self, rng):
        corpus = [two_segment_pair("p0"), two_segment_pair("p1")]
        for _ in range(10):
            out = sample_unpaired(corpus, "p0", rng)
            assert out.source_id == "p1"
            np.testing.assert_array_equal(out.perm, np.arange(corpus[1].covered_indices.size))

    def test_source_never_anchor(self, rng):
        corpus = [two_segment_pair(f"p{i}") for i in range(5)]
        for _ in range(100):
            assert sample_unpaired(corpus, "p2", rng).source_id != "p2"

    def test_corpus_of_one_rejected(self, rng):
        with pytest.raises(DataError):
            sample_unpaired([two_segment_pair("p0")], "p0", rng)


class TestGenerateNegatives:
    def test_seg_unit_count_and_validity(self, rng):
        pair = equal_segment_pair(3)
        out = generate_negatives(pair, None, "seg-unit", 32, rng)
        assert len(out) == 32
        for neg in out:
            assert neg.strategy == "seg_unit"
            assert sorted(neg.perm) == list(range(3))
            assert not np.array_equal(neg.perm, np.arange(3))

    def test_two_segment_seg_only_unique_swap_copies(self, rng):
        out = generate_negatives(two_segment_pair(), None, "seg-only", 4, rng)
        assert len(out) == 4
        for neg in out:
            np.testing.assert_array_equal(neg.perm, [2, 0, 1])

    def test_fallback_chain_exhausted(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4)], [(0, 0, 1)])
        assert generate_negatives(pair, None, "seg-unit", 8, rng) == []

    def test_fallback_to_all_unit(self, rng):
        pair = make_pair([basis(0, 4)], [basis(1, 4), basis(2, 4)], [(0, 0, 2)])
        out = generate_negatives(pair, None, "seg-unit", 3, rng)
        assert [n.strategy for n in out] == ["all_unit"] * 3

    def test_joint_split(self, rng):
        corpus = [equal_segment_pair(3, f"p{i}") for i in range(3)]
        out = generate_negatives(corpus[0], corpus, "joint", 5, rng)
        assert [n.strategy for n in out] == ["seg_unit"] * 3 + ["unpaired"] * 2
        assert {n.source_id for n in out if n.strategy == "unpaired"} <= {"p1", "p2"}

    def test_visual_anchor_permutes_captions(self, rng):
        pair = equal_segment_pair(3)
        out = generate_negatives(pair, None, "visual-anchor", 6, rng)
        for neg in out:
            assert neg.strategy == "visual_anchor"
            assert sorted(neg.perm) == [0, 1, 2]
            assert not np.array_equal(neg.perm, np.arange(3))

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValueError):
            generate_negatives(two_segment_pair(), None, "segment-soup", 2, rng)

    def test_reproducible_with_seed(self):
        pair = equal_segment_pair(4)
        a = generate_negatives(pair, None, "seg-unit", 16, np.random.default_rng(7))
        b = generate_negatives(pair, None, "seg-unit", 16, np.random.default_rng(7))
        assert len(a) == len(b)
        for na, nb in zip(a, b):
            np.testing.assert_array_equal(na.perm, nb.perm)

    def test_within_seg_stays_inside_ranges(self, rng):
        pair = make_pair(
            [basis(0, 8), basis(1, 8)],
            [basis(2, 8)] * 5,
            [(0, 0, 2), (1, 2, 5)],
        )
        out = generate_negatives(pair, None, "within-seg", 10, rng)
        for neg in out:
            for pos, orig in enumerate(neg.perm):
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
        for neg in out:
            assert neg.source_id != videos[0].id
            assert sorted(neg.perm) == list(range(n))
            assert not np.array_equal(neg.perm, np.arange(n))

    def test_rejects_tiny_corpus(self, rng):
        videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=3, dim=8, seed=1))
        with pytest.raises(DataError):
            video_only_negatives(videos[:1], 0, 4, rng)


def test_permutation_repeating_index_rejected():
    with pytest.raises(DataError):
        NegativePermutation(strategy="all_unit", perm=np.array([0, 0, 1]), source_id="x")
