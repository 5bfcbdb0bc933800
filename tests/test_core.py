import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, make_pair, seq
from tempalign.core import (
    DataError,
    canonicalize_pair,
    cost_matrix,
    similarity_matrix,
)


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
    return make_pair(captions, clips, [(0, 0, 4), (1, 2, 6), (2, 6, 8)])


class TestCanonicalizePair:
    def test_greedy_overlap_resolution(self):
        out = canonicalize_pair(_overlapping_pair())
        assert [tuple(e) for e in out.segments] == [(0, 0, 4), (1, 6, 8)]
        # caption 1 of the raw pair was dropped; survivors are raw captions 0 and 2
        assert len(out.anchor) == 2
        np.testing.assert_array_equal(out.anchor.units[1], basis(2, 8))

    def test_disjoint_input_unchanged(self):
        pair = make_pair([basis(0, 4), basis(1, 4)], [basis(2, 4)] * 4, [(0, 0, 2), (1, 2, 4)])
        out = canonicalize_pair(pair)
        assert [tuple(e) for e in out.segments] == [tuple(e) for e in pair.segments]
        np.testing.assert_array_equal(out.anchor.units, pair.anchor.units)

    def test_single_covering_segment(self):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 0, 3)])
        out = canonicalize_pair(pair)
        assert not out.background_mask.any()
        assert [tuple(e) for e in out.segments] == [(0, 0, 3)]

    def test_idempotent(self):
        once = canonicalize_pair(_overlapping_pair())
        twice = canonicalize_pair(once)
        assert [tuple(e) for e in twice.segments] == [tuple(e) for e in once.segments]
        np.testing.assert_array_equal(twice.anchor.units, once.anchor.units)
        np.testing.assert_array_equal(twice.background_mask, once.background_mask)

    def test_coverage_accounting(self):
        out = canonicalize_pair(_overlapping_pair())
        seg_total = sum(e - s for _, s, e in out.segments)
        assert seg_total + int(out.background_mask.sum()) == len(out.positive)

    def test_empty_pair_rejected(self):
        with pytest.raises(DataError, match="empty pair"):
            make_pair([basis(0, 2)], [basis(1, 2)], [])

    def test_covered_view_remaps_segments(self):
        pair = canonicalize_pair(_overlapping_pair())
        view = pair.covered_view()
        assert not view.background_mask.any()
        np.testing.assert_array_equal(view.positive.units, pair.covered_units())
        assert [tuple(e) for e in view.segments] == [(0, 0, 4), (1, 4, 6)]


class TestValidation:
    def test_background_mask_consistency(self):
        pair = make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 0, 2)])
        np.testing.assert_array_equal(pair.background_mask, [False, False, True])

    def test_unsorted_segments_rejected(self):
        with pytest.raises(DataError):
            make_pair([basis(0, 4), basis(1, 4)], [basis(2, 4)] * 4, [(0, 2, 4), (1, 0, 2)])

    def test_segment_out_of_range_rejected(self):
        with pytest.raises(DataError):
            make_pair([basis(0, 4)], [basis(1, 4)] * 3, [(0, 0, 5)])

    def test_nonfinite_units_rejected(self):
        with pytest.raises(DataError):
            seq([[np.inf, 0.0]])
