"""Temporal-shuffle negative generation from a positive clip sequence.

Negatives are expressed as index permutations over the segment-covered clips
of a pair (background clips never enter a training sequence), or over the
anchor captions for the visual-anchor strategy, or as another pair's clips in
original order for unpaired sampling.  Identity permutations of the positive
are never returned: a negative that equals the positive would contradict the
contrastive objective, so draws are rejected and retried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, DegeneratePairError, LabeledVideo, SegmentedPair

STRATEGIES = (
    "seg_only",
    "seg_unit",
    "within_seg",
    "all_unit",
    "unpaired",
    "joint",
    "visual_anchor",
)

#: CLI-facing spellings, in the same order as STRATEGIES.
STRATEGY_NAMES = tuple(s.replace("_", "-") for s in STRATEGIES)


def canonical_strategy(name: str) -> str:
    s = name.replace("-", "_")
    if s not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGY_NAMES}")
    return s


@dataclass(frozen=True)
class NegativePermutation:
    """A drawn negative: strategy tag, index permutation, and its source.

    ``perm`` lists original unit indices of the source sequence in their new
    order: covered clip indices for the shuffle strategies, the other pair's
    covered clips (unchanged order) for unpaired, anchor caption indices for
    visual-anchor.  ``source_id`` names the pair the permutation applies to.
    """

    strategy: str
    perm: np.ndarray
    source_id: str

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64).copy()
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if len(np.unique(perm)) != perm.size:
            raise DataError("permutation repeats an index")


def _non_identity_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform permutation of range(n), redrawn until it is not the identity (n >= 2)."""
    perm = rng.permutation(n)
    while np.array_equal(perm, np.arange(n)):
        perm = rng.permutation(n)
    return perm


def _segment_blocks(pair: SegmentedPair) -> list[np.ndarray]:
    return [np.arange(s, e, dtype=np.int64) for _, s, e in pair.segments]


def permute_segments(pair: SegmentedPair, shuffle_within: bool, rng: np.random.Generator) -> NegativePermutation:
    """Reorder segment blocks (never the identity order); optionally also
    shuffle clip order inside each block.  Tagged seg_only / seg_unit."""
    pair.require_canonical()
    blocks = _segment_blocks(pair)
    k = len(blocks)
    if k < 2:
        raise DegeneratePairError(f"pair {pair.id!r}: degenerate pair ({k} segment)")
    pieces = []
    for b in _non_identity_permutation(k, rng):
        block = blocks[b]
        if shuffle_within and block.size > 1:
            block = block[rng.permutation(block.size)]
        pieces.append(block)
    return NegativePermutation(
        strategy="seg_unit" if shuffle_within else "seg_only",
        perm=np.concatenate(pieces),
        source_id=pair.id,
    )


def permute_within_segments(pair: SegmentedPair, rng: np.random.Generator) -> NegativePermutation:
    """Shuffle clips inside each segment; block positions stay fixed and at
    least one block's internal order changes."""
    pair.require_canonical()
    blocks = _segment_blocks(pair)
    if all(b.size < 2 for b in blocks):
        raise DegeneratePairError(f"pair {pair.id!r}: degenerate pair (all segments singletons)")
    while True:
        pieces = [b[rng.permutation(b.size)] if b.size > 1 else b for b in blocks]
        if any(not np.array_equal(p, b) for p, b in zip(pieces, blocks)):
            break
    return NegativePermutation(strategy="within_seg", perm=np.concatenate(pieces), source_id=pair.id)


def permute_all_units(pair: SegmentedPair, rng: np.random.Generator) -> NegativePermutation:
    """Uniform non-identity permutation of all segment-covered clips."""
    pair.require_canonical()
    covered = pair.covered_indices
    if covered.size < 2:
        raise DegeneratePairError(f"pair {pair.id!r}: degenerate pair ({covered.size} covered clip)")
    perm = covered[_non_identity_permutation(covered.size, rng)]
    return NegativePermutation(strategy="all_unit", perm=perm, source_id=pair.id)


def permute_anchor_segments(pair: SegmentedPair, rng: np.random.Generator) -> NegativePermutation:
    """Non-identity reorder of the anchor captions (visual-anchor strategy)."""
    pair.require_canonical()
    n = len(pair.anchor)
    if n < 2:
        raise DegeneratePairError(f"pair {pair.id!r}: degenerate pair ({n} caption)")
    return NegativePermutation(strategy="visual_anchor", perm=_non_identity_permutation(n, rng), source_id=pair.id)


def sample_unpaired(corpus: list[SegmentedPair], anchor_id: str, rng: np.random.Generator) -> NegativePermutation:
    """Pick another pair uniformly; its covered clips in original order."""
    others = [p for p in corpus if p.id != anchor_id]
    if not others:
        raise DataError(f"unpaired sampling needs a corpus with at least 2 distinct pairs (got {len(corpus)})")
    other = others[int(rng.integers(len(others)))]
    return NegativePermutation(strategy="unpaired", perm=other.covered_indices, source_id=other.id)


def generate_negatives(
    pair: SegmentedPair,
    corpus: list[SegmentedPair] | None,
    strategy: str,
    count: int,
    rng: np.random.Generator,
) -> list[NegativePermutation]:
    """Draw ``count`` negatives under a named strategy.

    joint splits the count between seg_unit and unpaired (odd draw to
    seg_unit).  Pairs too degenerate for seg_only/seg_unit fall back to
    all_unit; if that is degenerate too (or within_seg / visual_anchor /
    all_unit hit their own degeneracy) the pair is skipped with an empty
    list.  Duplicate permutations across draws are allowed: small pairs
    cannot supply ``count`` distinct orders.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    strategy = canonical_strategy(strategy)

    def draw(one) -> list[NegativePermutation]:
        try:
            return [one() for _ in range(count)]
        except DegeneratePairError:
            return []

    if strategy in ("seg_only", "seg_unit"):
        out = draw(lambda: permute_segments(pair, strategy == "seg_unit", rng))
        return out if out else draw(lambda: permute_all_units(pair, rng))
    if strategy == "within_seg":
        return draw(lambda: permute_within_segments(pair, rng))
    if strategy == "all_unit":
        return draw(lambda: permute_all_units(pair, rng))
    if strategy == "visual_anchor":
        return draw(lambda: permute_anchor_segments(pair, rng))
    if strategy == "unpaired":
        if corpus is None:
            raise ValueError("unpaired strategy requires a corpus")
        return [sample_unpaired(corpus, pair.id, rng) for _ in range(count)]
    # joint: seg_unit half first, unpaired half second.
    if corpus is None:
        raise ValueError("joint strategy requires a corpus")
    n_shuffle = count // 2 + count % 2
    shuffled = generate_negatives(pair, corpus, "seg_unit", n_shuffle, rng)
    unpaired = [sample_unpaired(corpus, pair.id, rng) for _ in range(count - n_shuffle)]
    return shuffled + unpaired


def video_only_negatives(
    videos: list[LabeledVideo],
    anchor_index: int,
    count: int,
    rng: np.random.Generator,
) -> list[NegativePermutation]:
    """Self-supervised negatives: frame shuffles of other videos.

    Each draw picks a different video uniformly and applies a non-identity
    permutation to its frames (unpaired sampling composed with an all-unit
    shuffle).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(videos) < 2:
        raise DataError("video-only negatives need at least 2 videos")
    out = []
    candidates = [k for k in range(len(videos)) if k != anchor_index]
    for _ in range(count):
        other = videos[candidates[int(rng.integers(len(candidates)))]]
        n = len(other.frames)
        if n < 2:
            raise DegeneratePairError(f"video {other.id!r}: single frame cannot be shuffled")
        out.append(NegativePermutation(strategy="all_unit", perm=_non_identity_permutation(n, rng), source_id=other.id))
    return out
