import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, cost_matrix, covered_units, covered_view, make_pair, seq
from tempalign.core import DataError, LabeledVideo, SegmentedPair, similarity_matrix
from tempalign.evaluate import corpus_pair_match, localization
from tempalign.io import load_item, save_item
from tempalign.negatives import STRATEGIES, PairPool, generate_negatives


def sim_entry(u, v) -> float:
    """The one entry of similarity_matrix over two single-row stacks."""
    return float(similarity_matrix(np.atleast_2d(u), np.atleast_2d(v))[0, 0])


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        e1 = basis(0, 3)
        assert sim_entry(e1, e1) == pytest.approx(1.0)

    def test_orthogonal_basis_vectors(self):
        assert sim_entry(basis(0, 3), basis(1, 3)) == pytest.approx(0.0)

    def test_hand_computed_45_degrees(self):
        # dot = 1, norms sqrt(2) and 1 -> 1/sqrt(2)
        expected = 1.0 / math.sqrt(2.0)
        assert sim_entry([1.0, 1.0], [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert sim_entry([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_vector_convention(self):
        assert sim_entry([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert sim_entry([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            sim_entry([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_nan_input(self):
        with pytest.raises(DataError):
            sim_entry([np.nan, 0.0], [1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.floats(0.01, 100.0),
    )
    def test_symmetry_and_scale_invariance(self, u, v, alpha):
        u, v = np.array(u), np.array(v)
        s_uv = sim_entry(u, v)
        assert s_uv == pytest.approx(sim_entry(v, u), abs=1e-12)
        assert sim_entry(alpha * u, v) == pytest.approx(s_uv, abs=1e-9)
        assert -1.0 <= s_uv <= 1.0


class TestCostMatrix:
    def test_identity_basis_pair(self):
        a = seq([basis(0, 2), basis(1, 2)])
        np.testing.assert_allclose(cost_matrix(a, a), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_broadcast_single_row(self):
        a = seq([basis(0, 2)])
        b = seq([basis(0, 2)] * 3)
        np.testing.assert_allclose(cost_matrix(a, b), [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_hand_computed_entry(self):
        a = seq([[1.0, 1.0]])
        b = seq([[1.0, 0.0]])
        np.testing.assert_allclose(cost_matrix(a, b), [[1.0 - 1.0 / math.sqrt(2.0)]], atol=1e-12)
        assert cost_matrix(a, b)[0, 0] == pytest.approx(0.29289322, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            cost_matrix(seq([[1.0, 0.0]]), seq([[1.0, 0.0, 0.0]]))

    def test_zero_diagonal_for_nonzero_units(self, rng):
        units = rng.normal(size=(6, 4))
        a = seq(units)
        np.testing.assert_allclose(np.diag(cost_matrix(a, a)), 0.0, atol=1e-12)

    def test_entries_in_range(self, rng):
        a = seq(rng.normal(size=(5, 3)))
        b = seq(rng.normal(size=(7, 3)))
        d = cost_matrix(a, b)
        assert np.all(d >= 0.0) and np.all(d <= 2.0)


def _overlapping_pair():
    dim = 8
    captions = [basis(i, dim) for i in range(3)]
    clips = [basis(3 + (j % 5), dim) for j in range(8)]
    return make_pair(captions, clips, [(0, 4), (2, 6), (6, 8)])


def _pair_with_background():
    """Three captions over nine clips; clips 0, 3 and 8 are background."""
    dim = 12
    return make_pair([basis(i, dim) for i in range(3)], [basis(3 + j, dim) for j in range(9)],
                     [(1, 3), (4, 7), (7, 8)])


class TestCanonicalizePair:
    """The canonical form every pair has: one disjoint segment per caption."""

    def test_single_covering_segment(self):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 3)])
        assert not pair.background_mask.any()
        assert [tuple(e) for e in pair.segments] == [(0, 3)]

    def test_coverage_accounting(self):
        pair = _pair_with_background()
        seg_total = sum(e - s for s, e in pair.segments)
        assert seg_total + int(pair.background_mask.sum()) == len(pair.positive)
        np.testing.assert_array_equal(np.flatnonzero(pair.background_mask), [0, 3, 8])

    def test_empty_pair_rejected(self):
        with pytest.raises(DataError, match="empty pair"):
            make_pair([basis(0, 2)], [basis(1, 2)], [])

    def test_covered_view_remaps_segments(self):
        pair = _pair_with_background()
        view = covered_view(pair)
        assert not view.background_mask.any()
        np.testing.assert_array_equal(view.positive.units, covered_units(pair))
        np.testing.assert_array_equal(view.positive.units, pair.positive.units[[1, 2, 4, 5, 6, 7]])
        assert [tuple(e) for e in view.segments] == [(0, 2), (2, 5), (5, 6)]
        # a background-free pair is its own view
        assert covered_view(view) is view
        free = make_pair([basis(0, 2), basis(1, 2)], [basis(0, 2)] * 3, [(0, 1), (1, 3)])
        assert covered_view(free) is free

    @pytest.mark.parametrize("n, segments", [
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (5, [(0, 2), (2, 4), (4, 5)]),
        (6, [(0, 2), (2, 4), (4, 6)]),
    ])
    def test_two_view_pairs_even_frames_with_all_frames(self, n, segments):
        frames = seq(np.arange(2.0 * n).reshape(n, 2) + 1.0, "v")
        pair = LabeledVideo("v", "walk", frames).two_view()
        assert pair.id == "v" and pair.positive is frames
        np.testing.assert_array_equal(pair.anchor.units, frames.units[0::2])
        assert [tuple(e) for e in pair.segments] == segments
        assert not pair.background_mask.any()


class TestValidation:
    def test_sequence_owns_a_read_only_copy(self):
        units = np.eye(3)
        s = seq(units)
        units[0, 0] = 5.0
        assert not np.shares_memory(s.units, units) and not s.units.flags.writeable
        assert s.units[0, 0] == 1.0

    def test_background_mask_consistency(self):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 2)])
        np.testing.assert_array_equal(pair.background_mask, [False, False, True])

    def test_background_mask_is_computed_not_passed(self):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 2)])
        with pytest.raises(TypeError):
            SegmentedPair(pair.id, pair.anchor, pair.positive, pair.segments, background_mask=pair.background_mask)

    def test_overlapping_segments_rejected(self):
        with pytest.raises(DataError, match="segment 1 starts at clip 2, inside or before segment 0"):
            _overlapping_pair()

    @pytest.mark.parametrize("segments", [[(0, 2), (2, 4)], [(0, 4)]])
    def test_caption_without_segment_rejected(self, segments):
        with pytest.raises(DataError, match=f"3 captions but {len(segments)} segments"):
            make_pair([basis(i, 4) for i in range(3)], [basis(3, 4)] * 4, segments)

    @pytest.mark.parametrize("segments", [[(1, 0, 2), (0, 2, 4)], [(0, 0, 2), (2, 2, 4)], [(-1, 0, 2), (1, 2, 4)]])
    def test_caption_index_other_than_position_rejected(self, tmp_path, segments):
        # a caption index exists only in records, so a record round trip checks it
        path = tmp_path / "p.json"
        save_item(make_pair([basis(0, 4), basis(1, 4)], [basis(2, 4)] * 4, [(0, 2), (2, 4)]), path)
        _write_segments(path, segments)
        with pytest.raises(DataError, match="has caption_index"):
            load_item(path, "pair")

    def test_empty_segment_rejected(self):
        with pytest.raises(DataError, match=r"range \[2, 2\) invalid"):
            make_pair([basis(0, 4), basis(1, 4)], [basis(2, 4)] * 4, [(0, 2), (2, 2)])

    def test_unsorted_segments_rejected(self):
        with pytest.raises(DataError):
            make_pair([basis(0, 4), basis(1, 4)], [basis(2, 4)] * 4, [(2, 4), (0, 2)])

    def test_segment_out_of_range_rejected(self):
        with pytest.raises(DataError):
            make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 5)])

    def test_nonfinite_units_rejected(self):
        with pytest.raises(DataError):
            seq([[np.inf, 0.0]])


def _write_segments(path, triples) -> None:
    """Replace the segments of the JSON pair record at ``path``."""
    record = json.loads(path.read_text())
    record["segments"] = [dict(zip(("caption_index", "start", "end"), t)) for t in triples]
    path.write_text(json.dumps(record))


def _is_canonical(n_captions: int, n_clips: int, segments) -> bool:
    """The pair invariant, restated: one nonempty, in-range (start, end)
    clip range per caption, each starting at or after the previous end."""
    ends = [0] + [e for _, e in segments]
    return len(segments) == n_captions and all(ends[i] <= s < e <= n_clips for i, (s, e) in enumerate(segments))


@st.composite
def segment_layouts(draw, columns=2):
    """(captions, clips, segments): a canonical layout (gaps of background
    between segments of 1-3 clips) of (start, end) ranges, or with
    ``columns=3`` of a record's (caption_index, start, end) triples, then
    random edits that may break it."""
    n_captions = draw(st.integers(1, 4))
    segments, cursor = [], 0
    for i in range(n_captions):
        start = cursor + draw(st.integers(0, 1))
        cursor = start + draw(st.integers(1, 3))
        segments.append([i, start, cursor][3 - columns :])
    n_clips = cursor + draw(st.integers(0, 1))
    edits = st.tuples(st.integers(0, 4), st.integers(0, columns - 1), st.integers(-2, 2))
    for row, col, delta in draw(st.lists(edits, max_size=2)):
        if row < len(segments):
            segments[row][col] += delta
    if draw(st.integers(0, 3)) == 0:
        segments.pop(draw(st.integers(0, len(segments) - 1)))
    return n_captions, n_clips, [tuple(s) for s in segments]


class TestPairInvariant:
    @settings(max_examples=150, deadline=None)
    @given(segment_layouts(), st.integers(0, 2**32 - 1))
    def test_constructor_admits_exactly_what_downstream_handles(self, layout, seed):
        n_captions, n_clips, segments = layout
        rng = np.random.default_rng(seed)
        try:
            pair = make_pair(rng.normal(size=(n_captions, 4)), rng.normal(size=(n_clips, 4)), segments)
        except DataError:
            assert not _is_canonical(n_captions, n_clips, segments)
            return
        assert _is_canonical(n_captions, n_clips, segments)
        view = covered_view(pair)
        assert len(view.positive) == int(np.count_nonzero(~pair.background_mask))
        other = make_pair(rng.normal(size=(1, 4)), rng.normal(size=(2, 4)), [(0, 2)], pid="other")
        for strategy in STRATEGIES:
            generate_negatives(pair, PairPool.of([pair, other]), strategy, 3, np.random.default_rng(seed))
        assert 0.0 <= corpus_pair_match([pair]) <= 1.0
        assert 0.0 <= localization([pair]).recalls[1] <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(segment_layouts(columns=3))
    def test_record_loads_exactly_the_canonical_layouts(self, tmp_path_factory, layout):
        n_captions, n_clips, triples = layout
        path = tmp_path_factory.mktemp("record") / "p.json"
        ranges = [(i, i + 1) for i in range(n_captions - 1)] + [(n_captions - 1, n_clips)]
        save_item(make_pair(np.eye(n_captions, 4), np.ones((n_clips, 4)), ranges), path)
        _write_segments(path, triples)
        canonical = [c for c, _, _ in triples] == list(range(len(triples))) and _is_canonical(
            n_captions, n_clips, [(s, e) for _, s, e in triples]
        )
        try:
            pair = load_item(path, "pair")
        except DataError:
            assert not canonical
            return
        assert canonical and pair.segments == tuple((s, e) for _, s, e in triples)
