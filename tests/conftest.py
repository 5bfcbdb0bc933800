from dataclasses import dataclass

import numpy as np
import pytest

from tempalign.align import MEASURES
from tempalign.core import DataError, EmbeddingSequence, SegmentMap, SegmentedPair


def basis(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def seq(vectors, sid="s") -> EmbeddingSequence:
    return EmbeddingSequence(sid, np.asarray(vectors, dtype=float))


def make_pair(captions, clips, segments, pid="p0") -> SegmentedPair:
    return SegmentedPair(
        id=pid,
        anchor=seq(captions, f"{pid}-captions"),
        positive=seq(clips, f"{pid}-clips"),
        segments=SegmentMap(tuple(segments)),
    )


def check_path(path, shape, measure: str) -> None:
    """Structural warping-path invariants for either measure."""
    n, m = shape
    assert len(path) >= 1
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in ((1, 1), (1, 0), (0, 1))
    rows = {i for i, _ in path}
    cols = {j for _, j in path}
    assert rows == set(range(n)), "every anchor row must be matched"
    if measure == "dtw":
        assert path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
        assert cols == set(range(m)), "every column must be matched under dtw"
    else:
        assert path[0][0] == 0 and path[-1][0] == n - 1
        j0, j1 = path[0][1], path[-1][1]
        assert j0 <= j1
        assert cols == set(range(j0, j1 + 1))


# Preference on exact ties: diagonal, then vertical (previous row, same
# column), then horizontal (same row, previous column).
_STEPS = ((1, 1), (1, 0), (0, 1))

_BRUTE_FORCE_MAX_CELLS = 30


@dataclass
class OracleResult:
    """Cheapest path, its summed cost and summed similarity ``len(path) - distance``."""

    path: list[tuple[int, int]]
    distance: float
    score: float


def brute_force_align(cost, measure: str = "dtw") -> OracleResult:
    """Exhaustive minimum over all admissible warping paths (test oracle).

    Enumerates every monotone path satisfying the measure's boundary rule and
    returns the cheapest one, breaking exact-cost ties by the
    lexicographically smallest path.  Limited to cost matrices of at most
    30 cells.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise DataError(f"alignment: cost matrix must be 2-d and nonempty, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DataError("alignment: cost matrix contains non-finite values")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    n, m = cost.shape
    if n * m > _BRUTE_FORCE_MAX_CELLS:
        raise DataError(f"brute_force_align: {n}x{m} exceeds the {_BRUTE_FORCE_MAX_CELLS}-cell bound")

    best_cost = np.inf
    best_path: tuple[tuple[int, int], ...] | None = None

    def consider(path: tuple[tuple[int, int], ...], total: float) -> None:
        nonlocal best_cost, best_path
        if total < best_cost or (total == best_cost and (best_path is None or path < best_path)):
            best_cost = total
            best_path = path

    def extend(i: int, j: int, path: tuple[tuple[int, int], ...], total: float) -> None:
        if i == n - 1:
            if measure == "otam" or j == m - 1:
                consider(path, total)
        for di, dj in _STEPS:
            # A path occupies exactly one cell of row 0 under otam.
            if measure == "otam" and i == 0 and (di, dj) == (0, 1):
                continue
            ni, nj = i + di, j + dj
            if ni >= n or nj >= m:
                continue
            extend(ni, nj, path + ((ni, nj),), total + cost[ni, nj])

    starts = [(0, 0)] if measure == "dtw" else [(0, j) for j in range(m)]
    for si, sj in starts:
        extend(si, sj, ((si, sj),), float(cost[si, sj]))

    path = list(best_path)
    return OracleResult(path=path, distance=float(best_cost), score=len(path) - float(best_cost))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
