import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, brute_force_align, check_path, cost_matrix, pad_costs, seq
from tempalign import align
from tempalign.align import align_cosines, align_stack
from tempalign.core import DataError, similarity_matrix


def cells(res, b):
    """Item b's path as a list of (row, column) tuples."""
    path = res.path(b)
    assert path.shape == (res.lengths[b], 2) and path.dtype.kind == "i"
    return [tuple(cell) for cell in path.tolist()]


def align_one(cost, measure="dtw"):
    """(distance, path) of one matrix aligned alone."""
    res = align_stack(np.asarray(cost, dtype=float)[None], measure)
    return float(res.distances[0]), cells(res, 0)


def sequence_score(a, b, measure="dtw", normalize=True):
    """(score, path) of two sequences aligned on cosine cost."""
    res = align_stack(cost_matrix(a, b)[None], measure)
    return float(res.scores(normalize)[0]), cells(res, 0)


class TestDtw:
    def test_perfect_diagonal(self):
        distance, path = align_one([[0.0, 1.0], [1.0, 0.0]])
        assert distance == pytest.approx(0.0)
        assert path == [(0, 0), (1, 1)]

    def test_single_row_covers_all_columns(self):
        distance, path = align_one([[1.0, 1.0, 1.0]])
        assert distance == pytest.approx(3.0)
        assert path == [(0, 0), (0, 1), (0, 2)]

    def test_three_by_three_against_oracle(self):
        d = [[0.2, 0.9, 0.8], [0.7, 0.1, 0.9], [0.8, 0.7, 0.3]]
        oracle = brute_force_align(d, "dtw")
        distance, path = align_one(d)
        assert oracle.distance == pytest.approx(0.6, abs=1e-12)
        assert distance == pytest.approx(oracle.distance, abs=1e-12)
        assert path == [(0, 0), (1, 1), (2, 2)]

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            align_one(np.empty((0, 0)))

    def test_cumulative_recursion_value(self, rng):
        d = rng.random((4, 5))
        # The cumulative cost of cell (i, j) is the distance of the prefix
        # matrix ending there; spot-check the recursion at one interior cell.
        i, j = 2, 3
        prefixes = [d[: i + 1, : j + 1], d[:i, :j], d[:i, : j + 1], d[: i + 1, :j], d]
        stack, shapes = pad_costs(prefixes)
        res = align_stack(stack, "dtw", shapes)
        cell, diag, up, left, full = res.distances
        assert cell == pytest.approx(d[i, j] + min(diag, up, left))
        assert full == pytest.approx(sum(d[p] for p in cells(res, 4)))

    def test_rejects_malformed_input(self):
        for bad in ([[[0.0, np.nan]]], [[[np.inf]]]):
            with pytest.raises(DataError):
                stack, shapes = pad_costs(bad)
                align_stack(stack, "dtw", shapes)
        for bad in (np.zeros((0, 2, 2)), np.zeros((2, 2)), [[[0.0, np.nan]]]):
            with pytest.raises(DataError):
                align_stack(bad)
        with pytest.raises(DataError):
            align_stack(np.zeros((2, 3, 3)), "dtw", [[3, 3], [4, 3]])
        with pytest.raises(ValueError):
            align_stack(np.zeros((1, 1, 1)), "soft-dtw")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_last_cell(self, value, rng):
        stack, shapes = pad_costs([rng.random((4, 6)), rng.random((3, 5)), rng.random((2, 3))])
        stack[-1, 1, 2] = value  # the last cell of the last, ragged matrix
        with pytest.raises(DataError, match="non-finite"):
            align_stack(stack, "dtw", shapes)

    def test_rejects_non_integer_shapes(self):
        for bad in ([[1.5, 2], [2, 2]], [[1.0, 2.0], [2.0, 2.0]], [[True, True], [True, True]], [["2", "2"], ["2", "2"]],
                    [[2, 2]], [[2, 2, 2], [2, 2, 2]]):
            with pytest.raises(DataError, match="item shapes"):
                align_stack(np.zeros((2, 2, 2)), "dtw", bad)

    def test_chunked_rejects_an_empty_stack(self):
        with pytest.raises(DataError, match="nonempty"):
            align_cosines(np.zeros((0, 2, 3)), "dtw", np.zeros((0, 2), dtype=np.int64))


class TestOtam:
    def test_free_start_end_skips_padding(self):
        distance, path = align_one([[1.0, 0.0, 1.0]], "otam")
        assert distance == pytest.approx(0.0)
        assert path == [(0, 1)]

    def test_embedded_diagonal(self):
        d = [[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]]
        oracle = brute_force_align(d, "otam")
        distance, path = align_one(d, "otam")
        assert oracle.distance == pytest.approx(0.0)
        assert distance == pytest.approx(0.0)
        assert path == [(0, 1), (1, 2)] == oracle.path

    def test_square_zero_diagonal_matches_dtw(self, rng):
        d = rng.uniform(0.2, 1.0, size=(4, 4))
        np.fill_diagonal(d, 0.0)
        (dist_d, path_d), (dist_o, path_o) = align_one(d, "dtw"), align_one(d, "otam")
        assert dist_o == pytest.approx(dist_d)
        assert path_o == path_d

    def test_column_zero_accumulates(self):
        distance, path = align_one([[0.5], [0.25]], "otam")
        assert distance == pytest.approx(0.75)
        assert path == [(0, 0), (1, 0)]


class TestBruteForceOracle:
    def test_single_cell(self):
        assert brute_force_align([[0.0]], "dtw").distance == pytest.approx(0.0)
        assert brute_force_align([[0.0]], "otam").distance == pytest.approx(0.0)

    def test_size_bound(self):
        with pytest.raises(DataError):
            brute_force_align(np.zeros((6, 6)), "dtw")

    def test_lexicographic_tie_break(self):
        # All three 2x2 paths cost 2; smallest path is the upper elbow.
        res = brute_force_align([[1.0, 0.0], [0.0, 1.0]], "dtw")
        assert res.distance == pytest.approx(2.0)
        assert res.path == [(0, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_dp_matches_oracle_on_random_matrices(self, measure, rng):
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            d = rng.random((n, m))
            distance, path = align_one(d, measure)
            oracle = brute_force_align(d, measure)
            assert distance == pytest.approx(oracle.distance, abs=1e-9)
            check_path(path, (n, m), measure)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_dp_matches_oracle_with_signed_costs(self, measure, rng):
        for _ in range(30):
            d = rng.normal(size=(3, 5))
            assert align_one(d, measure)[0] == pytest.approx(brute_force_align(d, measure).distance, abs=1e-9)

    def test_otam_never_worse_than_dtw_on_squares(self, rng):
        for _ in range(50):
            d = rng.random((4, 4))
            assert align_one(d, "otam")[0] <= align_one(d, "dtw")[0] + 1e-12


class TestAlignmentScore:
    def test_self_alignment_raw(self):
        a = seq([basis(0, 2), basis(1, 2)])
        score, path = sequence_score(a, a, "dtw", normalize=False)
        assert score == pytest.approx(2.0)
        assert path == [(0, 0), (1, 1)]

    def test_self_alignment_normalized_any_length(self, rng):
        for n in (1, 3, 7):
            a = seq(rng.normal(size=(n, 5)))
            score, _ = sequence_score(a, a, "dtw", normalize=True)
            assert score == pytest.approx(1.0)

    def test_swapped_candidate_oracle_score(self):
        # Oracle enumeration: all paths tie at cost 2; lexicographically
        # smallest is the upper elbow with similarities 0, 1, 0 -> raw 1.0.
        a = seq([basis(0, 2), basis(1, 2)])
        b = seq([basis(1, 2), basis(0, 2)])
        oracle = brute_force_align(cost_matrix(a, b), "dtw")
        assert len(oracle.path) == 3
        assert oracle.score == pytest.approx(1.0)
        # The DP resolves the same tie diagonal-first (documented behavior).
        dp_score, dp_path = sequence_score(a, b, "dtw", normalize=False)
        assert dp_path == [(0, 0), (1, 1)]
        assert dp_score == pytest.approx(0.0)

    def test_identity_permutation_leaves_score_unchanged(self, rng):
        a = seq(rng.normal(size=(3, 4)))
        b_units = rng.normal(size=(5, 4))
        b = seq(b_units)
        b_same = seq(b_units[np.arange(5)])
        s1, _ = sequence_score(a, b, "dtw")
        s2, _ = sequence_score(a, b_same, "dtw")
        assert s1 == pytest.approx(s2)

    def test_otam_score(self):
        a = seq([basis(0, 3)])
        b = seq([basis(2, 3), basis(0, 3), basis(1, 3)])
        score, path = sequence_score(a, b, "otam", normalize=True)
        assert score == pytest.approx(1.0)
        assert path == [(0, 1)]


class TestStackKernels:
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_matches_single_matrix_solver(self, measure, rng):
        stack = rng.random((40, 4, 6))
        res = align_stack(stack, measure)
        for b in range(stack.shape[0]):
            distance, path = align_one(stack[b], measure)
            assert res.distances[b] == distance
            assert res.lengths[b] == len(path)
            assert cells(res, b) == path

    def test_stack_scores_match_sequence_scores(self, rng):
        a_units = rng.normal(size=(8, 3, 5))
        b_units = rng.normal(size=(8, 4, 5))
        sims = np.stack([similarity_matrix(a_units[i], b_units[i]) for i in range(8)])
        scores = align_stack(1.0 - sims, "dtw").scores(normalize=True)
        for i in range(8):
            expect, _ = sequence_score(seq(a_units[i]), seq(b_units[i]), "dtw", normalize=True)
            assert scores[i] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_ragged_batch_matches_oracle_and_lone_alignment(self, measure, rng):
        shapes = [(1, 1), (6, 7), (1, 5), (4, 1), (2, 3), (5, 6), (3, 3), (6, 2), (1, 7), (4, 6)]
        mats = []
        for n, m in shapes:
            mats.append(rng.random((n, m)))
            mats.append(rng.integers(0, 3, size=(n, m)).astype(float))  # integer costs: many exact ties
        stack, shapes = pad_costs(mats)
        res = align_stack(stack, measure, shapes)
        assert len(res.distances) == len(mats)
        for b, d in enumerate(mats):
            path = cells(res, b)
            check_path(path, d.shape, measure)
            assert res.lengths[b] == len(path)
            assert res.distances[b] == pytest.approx(sum(d[p] for p in path), abs=1e-12)
            if d.size <= 30:
                assert res.distances[b] == pytest.approx(brute_force_align(d, measure).distance, abs=1e-12)
            assert (float(res.distances[b]), path) == align_one(d, measure)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_chunked_matches_one_call(self, measure, rng, monkeypatch):
        # cosines in {-1, 0, 1}, the ones of size 1 nudged just outside
        # [-1, 1], as rounding can leave them: clipped, their costs tie exactly
        mats = [rng.integers(-1, 2, size=(int(rng.integers(1, 6)), int(rng.integers(1, 7)))).astype(float)
                for _ in range(11)]
        sims, shapes = pad_costs([np.where(np.abs(s) == 1, s * (1 + 4e-16), s) for s in mats])
        assert sims.max() > 1.0 and sims.min() < -1.0
        costs = 1.0 - np.clip(sims, -1.0, 1.0)
        whole = align_stack(costs, measure, shapes)
        monkeypatch.setattr(align, "STACK_CELLS", 4 * sims[0].size)
        chunked = align_cosines(sims, measure, shapes)
        assert np.array_equal(sims, costs)  # the cosines became the costs, in place
        assert len(chunked.trails) == 3  # calls of 4, 4 and 3 matrices
        assert np.array_equal(chunked.distances, whole.distances)
        assert np.array_equal(chunked.lengths, whole.lengths)
        assert all(cells(chunked, b) == cells(whole, b) for b in range(len(mats)))


def per_cell_alignment(cost, measure):
    """(distance, path) of one matrix by the recursion restated cell by cell:
    C(i, j) = D(i, j) + min of the diagonal, vertical and horizontal
    predecessors, preferred in that order on exact ties; otam starts anywhere
    in row 0 and ends at the first minimum of the last row."""
    n, m = len(cost), len(cost[0])
    cum = [[0.0] * m for _ in range(n)]
    back = [[None] * m for _ in range(n)]
    for j in range(m):
        cum[0][j] = cost[0][j] + (cum[0][j - 1] if measure == "dtw" and j else 0.0)
        back[0][j] = (0, j - 1) if measure == "dtw" and j else None
    for i in range(1, n):
        for j in range(m):
            best, back[i][j] = cum[i - 1][j], (i - 1, j)
            if j and not cum[i - 1][j] < cum[i - 1][j - 1]:
                best, back[i][j] = cum[i - 1][j - 1], (i - 1, j - 1)
            if j and cum[i][j - 1] < best:
                best, back[i][j] = cum[i][j - 1], (i, j - 1)
            cum[i][j] = cost[i][j] + best
    end = m - 1 if measure == "dtw" else min(range(m), key=lambda j: (cum[n - 1][j], j))
    path, cell = [], (n - 1, end)
    while cell is not None:
        path.append(cell)
        cell = back[cell[0]][cell[1]]
    return cum[n - 1][end], path[::-1]


@st.composite
def cost_batches(draw):
    """1-5 matrices of 1-6 rows and 1-7 columns (1 x 1, single rows and
    single columns included), from a small value set so that ties abound."""
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, -0.5]) | st.floats(-2.0, 2.0)
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
        mats.append(np.array(draw(st.lists(values, min_size=n * m, max_size=n * m))).reshape(n, m))
    return mats


class TestWorkingSet:
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_holds_back_pointers_and_a_few_diagonals(self, measure, rng):
        # beyond its input: the n * m * batch bytes of back-pointers and
        # O((n + m) * batch) for the diagonals and each item's last row
        batch, n, m = 20, 60, 50
        costs = rng.random((batch, n, m))
        tracemalloc.start()
        try:
            align_stack(costs, measure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * m * batch + 64 * (n + m) * batch

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_score_only_call_holds_no_back_pointers(self, measure, rng):
        batch, n, m = 20, 60, 50
        costs = rng.random((batch, n, m))
        peaks = {}
        for paths in (True, False):
            tracemalloc.start()
            try:
                align_stack(costs, measure, paths=paths)
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the n * m * batch bytes of back-pointers, give or take a few diagonals
        assert abs(peaks[True] - peaks[False] - n * m * batch) <= 8 * (n + m) * batch
        assert peaks[False] <= 64 * (n + m) * batch


class TestAgainstPerCellRecursion:
    @settings(max_examples=200, deadline=None)
    @given(cost_batches(), st.sampled_from(["dtw", "otam"]))
    def test_ragged_stack_matches_restated_recursion(self, mats, measure):
        stack, shapes = pad_costs(mats)
        res = align_stack(stack, measure, shapes)
        for b, d in enumerate(mats):
            distance, path = per_cell_alignment(d.tolist(), measure)
            assert res.distances[b] == distance
            assert cells(res, b) == path
            assert res.lengths[b] == len(res.path(b)) == len(path)

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_cells_are_each_path_from_its_end(self, measure, rng):
        mats = [rng.integers(0, 3, size=shape).astype(float) for shape in ((1, 4), (3, 5), (4, 1), (1, 1), (2, 6), (5, 3))]
        stack, shapes = pad_costs(mats)
        res = align_stack(stack, measure, shapes)
        expected = np.concatenate([res.path(b)[::-1] for b in range(len(mats))])
        assert np.array_equal(res.cells(), expected)

    @settings(max_examples=100, deadline=None)
    @given(cost_batches(), st.sampled_from(["dtw", "otam"]))
    def test_score_only_call_matches_path_call(self, mats, measure):
        stack, shapes = pad_costs(mats)
        kept, scored = align_stack(stack, measure, shapes), align_stack(stack, measure, shapes, paths=False)
        assert np.array_equal(scored.distances, kept.distances)
        assert np.array_equal(scored.lengths, kept.lengths)
        assert np.array_equal(scored.scores(), kept.scores())
        assert scored.trails == ()

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_score_only_call_matches_on_integer_costs(self, measure, rng):
        # costs in {0, 1, 2} tie at most cells; at 130 x 140 path sizes no
        # longer fit in one byte
        mats = [rng.integers(0, 3, size=shape).astype(float) for shape in ((130, 140), (1, 7), (6, 1), (40, 60), (2, 2))]
        stack, shapes = pad_costs(mats)
        kept, scored = align_stack(stack, measure, shapes), align_stack(stack, measure, shapes, paths=False)
        assert np.array_equal(scored.distances, kept.distances)
        assert np.array_equal(scored.lengths, kept.lengths)
        for b, d in enumerate(mats):
            distance, path = per_cell_alignment(d.tolist(), measure)
            assert kept.distances[b] == distance
            assert cells(kept, b) == path

    def test_score_only_call_refuses_to_read_paths(self, rng, monkeypatch):
        stack, shapes = pad_costs([rng.random((3, 5)), rng.random((1, 1)), rng.random((4, 2))])
        monkeypatch.setattr(align, "STACK_CELLS", stack[0].size)
        for res in (align_stack(stack, "dtw", shapes, paths=False), align_cosines(stack, "otam", shapes, paths=False)):
            assert len(res.lengths) == 3
            for read in (lambda: res.walk, lambda: res.path(0), res.cells):
                with pytest.raises(ValueError, match="no paths"):
                    read()

    def test_scores_leave_the_walk_unbuilt(self, rng):
        stack, shapes = pad_costs([rng.random((3, 5)), rng.random((1, 1)), rng.random((4, 2))])
        res = align_stack(stack, "otam", shapes)
        res.scores()
        assert "walk" not in vars(res)
        walk = res.walk
        assert "walk" in vars(res) and res.walk is walk and not walk.flags.writeable
