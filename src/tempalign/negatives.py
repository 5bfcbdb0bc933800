"""Temporal-shuffle negative generation from a positive clip sequence.

Negatives are index permutations in one index space: positions among a
source's segment-covered clips, 0 ... n_covered - 1.  Background clips never
enter a training sequence, so these positions are the columns the sequence
loss aligns.  The shuffle strategies permute the pair's own covered
positions, unpaired sampling takes another pair's covered positions in
order, and the visual-anchor strategy permutes the anchor captions instead.
``fit`` trains on the pairs as loaded, background clips included; on a
background-free pair (a labeled video's two-view pair included) covered
positions are the clip indices themselves.  Identity permutations of the
positive are never returned: a negative that equals the positive would
contradict the contrastive objective, so draws are rejected and retried.  A
shuffle strategy draws all of a call's negatives at once, as one
``(count, n)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, LabeledVideo, SegmentedPair

STRATEGIES = (
    "seg-only",
    "seg-unit",
    "within-seg",
    "all-unit",
    "unpaired",
    "joint",
    "visual-anchor",
)


def check_strategy(name: str) -> None:
    """Raise ValueError unless ``name`` is one of :data:`STRATEGIES`."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")


@dataclass(frozen=True)
class Negatives:
    """An item's drawn negatives, in draw order.

    Negative k lists positions of source ``sources[k]`` in their new order:
    positions among the pair's covered clips for the shuffle strategies, the
    other pair's covered positions in order (``arange(n_covered)``) for
    unpaired, a video's frame indices for :func:`video_only_negatives`,
    anchor caption indices for visual-anchor.  ``perms`` concatenates these
    permutations and ``lengths`` holds their sizes; an empty draw means the
    item is skipped.
    """

    strategies: tuple[str, ...]
    sources: tuple[str, ...]
    perms: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def permutes_anchor(self) -> bool:
        """Visual-anchor draws reorder anchor rows, never mixed with others."""
        return self.strategies[:1] == ("visual-anchor",)


def _non_identity_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform permutation of range(n), redrawn until it is not the identity (n >= 2)."""
    identity = list(range(n))
    perm = rng.permutation(n)
    while perm.tolist() == identity:
        perm = rng.permutation(n)
    return perm


def _orders(keys, count: int) -> np.ndarray:
    """Row-wise argsort of the (count, n) float array ``keys(count)``; the m
    rows that come out as the identity are redrawn from ``keys(m)``, in rounds."""
    out = keys(count).argsort(axis=1)
    redo = np.arange(count)
    while (redo := redo[(out[redo] == np.arange(out.shape[1])).all(axis=1)]).size:
        out[redo] = keys(redo.size).argsort(axis=1)
    return out


def _shuffle_draws(pair: SegmentedPair, strategy: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of one shuffle strategy as a (count, n) position array;
    empty, without touching ``rng``, when the pair is too degenerate for it:
    fewer than 2 segments (seg-only, seg-unit), no segment of 2 clips
    (within-seg), fewer than 2 covered clips (all-unit) or captions.

    A call's draws are row-wise argsorts of float keys, so it makes the same
    few generator calls whatever ``count`` is, plus one per redraw round of
    identity rows.  Block orders sort uniform keys; seg-only then sorts
    "block rank + position / n" keys, which keep each block's internal
    order, seg-unit "block rank + uniform" and within-seg "block index +
    uniform".
    """
    sizes = np.array([end - start for start, end in pair.segments])
    block_of = np.repeat(np.arange(sizes.size), sizes)
    n = len(pair.anchor) if strategy == "visual-anchor" else block_of.size
    # the number of things the strategy reorders, which must reach 2
    movable = {"all-unit": n, "visual-anchor": n, "within-seg": sizes.max()}.get(strategy, sizes.size)
    if movable < 2:
        return np.empty((0, 0), dtype=np.int64)
    if strategy in ("all-unit", "visual-anchor"):
        return _orders(lambda m: rng.random((m, n)), count)
    if strategy == "within-seg":
        return _orders(lambda m: block_of + rng.random((m, n)), count)
    order = _orders(lambda m: rng.random((m, sizes.size)), count)
    rank = np.empty(order.shape)  # rank[k, b]: where draw k puts block b
    rank[np.arange(count)[:, None], order] = np.arange(sizes.size)
    offsets = np.arange(n) / n if strategy == "seg-only" else rng.random((count, n))
    return (rank[:, block_of] + offsets).argsort(axis=1)


@dataclass(frozen=True)
class PairPool:
    """What unpaired sampling and a training batch read of a pair corpus,
    gathered once: each pair's id, covered clip count and covered clip rows
    (``covered_indices``, or None when the pair has no background clip), in
    corpus order, and each id's corpus position."""

    ids: tuple[str, ...]
    sizes: np.ndarray
    covered: tuple[np.ndarray | None, ...]
    positions: dict[str, int]

    @staticmethod
    def of(corpus: list[SegmentedPair]) -> "PairPool":
        """Refuses a corpus in which two pairs share an id."""
        positions: dict[str, int] = {}
        for k, p in enumerate(corpus):
            if positions.setdefault(p.id, k) != k:
                raise DataError(f"id {p.id!r} is taken by an earlier item")
        sizes = np.array([len(p.positive) - np.count_nonzero(p.background_mask) for p in corpus], dtype=np.int64)
        covered = tuple(p.covered_indices if p.background_mask.any() else None for p in corpus)
        return PairPool(tuple(positions), sizes, covered, positions)


def _unpaired(pair: SegmentedPair, pool: PairPool, count: int, rng: np.random.Generator) -> Negatives:
    """Another pair uniformly per draw; its covered positions in order.

    Draw k picks the k-th pair of the corpus without ``pair``'s id, found
    by skipping that id's position, so a call costs O(count)."""
    own = pool.positions.get(pair.id, len(pool.ids))  # past the end: no draw skips it
    n_others = len(pool.ids) - (own < len(pool.ids))
    if count and not n_others:
        raise DataError(f"unpaired sampling needs a corpus with at least 2 distinct pairs (got {len(pool.ids)})")
    picks = rng.integers(n_others, size=count)
    picks += picks >= own
    lengths = pool.sizes[picks]
    perms = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return Negatives(("unpaired",) * count, tuple(pool.ids[i] for i in picks.tolist()), perms, lengths)


def generate_negatives(pair: SegmentedPair, pool: PairPool, strategy: str, count: int, rng: np.random.Generator) -> Negatives:
    """Draw ``count`` negatives under a named strategy.

    joint splits the count between seg-unit and unpaired (odd draw to
    seg-unit).  Pairs too degenerate for seg-only/seg-unit fall back to
    all-unit; if that is degenerate too (or within-seg / visual-anchor /
    all-unit hit their own degeneracy) the pair is skipped with an empty
    draw.  Duplicate permutations across draws are allowed: small pairs
    cannot supply ``count`` distinct orders.  Only unpaired sampling reads
    ``pool``, the corpus's :class:`PairPool`.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    check_strategy(strategy)
    if strategy == "unpaired":
        return _unpaired(pair, pool, count, rng)
    if strategy == "joint":
        # seg-unit half first, unpaired half second
        n_shuffle = count // 2 + count % 2
        a, b = generate_negatives(pair, pool, "seg-unit", n_shuffle, rng), _unpaired(pair, pool, count - n_shuffle, rng)
        return Negatives(a.strategies + b.strategies, a.sources + b.sources,
                         np.concatenate((a.perms, b.perms)), np.concatenate((a.lengths, b.lengths)))
    block = _shuffle_draws(pair, strategy, count, rng)
    if not block.size and strategy in ("seg-only", "seg-unit"):
        strategy = "all-unit"
        block = _shuffle_draws(pair, strategy, count, rng)
    count, n = block.shape
    return Negatives((strategy,) * count, (pair.id,) * count, block.ravel(), np.full(count, n, dtype=np.int64))


def video_only_negatives(
    videos: list[LabeledVideo], anchor_index: int, count: int, rng: np.random.Generator, multi_frame: np.ndarray | None = None
) -> Negatives:
    """Self-supervised negatives: frame shuffles of other videos.

    Training does not call it: it stays only as a perfbench hook target.
    Each draw picks a different video uniformly and applies a non-identity
    permutation to its frames (unpaired sampling composed with an all-unit
    shuffle).  Single-frame videos have no such permutation and are never
    picked; with no other video left the draw is empty.  ``multi_frame``, the
    ascending indices of the videos with at least two frames, spares a
    caller that draws for many anchors from recomputing them per call.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(videos) < 2:
        raise DataError("video-only negatives need at least 2 videos")
    if multi_frame is None:
        multi_frame = multi_frame_indices(videos)
    candidates = multi_frame[multi_frame != anchor_index]
    if not len(candidates):
        return Negatives((), (), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    sources, perms = [], []
    for _ in range(count):
        other = videos[candidates[int(rng.integers(len(candidates)))]]
        sources.append(other.id)
        perms.append(_non_identity_permutation(len(other.frames), rng))
    lengths = np.array([p.size for p in perms], dtype=np.int64)
    return Negatives(("all-unit",) * count, tuple(sources), np.concatenate(perms), lengths)


def multi_frame_indices(videos: list[LabeledVideo]) -> np.ndarray:
    """Ascending indices of the videos :func:`video_only_negatives` can shuffle."""
    return np.flatnonzero([len(v.frames) >= 2 for v in videos])
