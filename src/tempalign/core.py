"""Domain types and similarity kernels for embedding-sequence pairs.

A paragraph, a video, or a frame sequence is an ordered list of d-dimensional
unit embeddings.  A caption/clip pair additionally carries a segment map that
links each caption to a consecutive, end-exclusive clip range.  Everything
here is immutable and pure; downstream modules assume pairs have been run
through :func:`canonicalize_pair` (disjoint segments, no dangling captions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Malformed domain data: bad shapes, non-finite values, invalid segments."""


class DegeneratePairError(DataError):
    """A pair lacks the structure an operation needs (e.g. too few segments)."""


def _validate_units(units, *, what: str) -> np.ndarray:
    arr = np.asarray(units, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{what}: units must be a (length, dim) array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"{what}: need at least one unit of dimension >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what}: units contain non-finite values")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingSequence:
    """Ordered unit embeddings, shape (length, dim), finite, read-only."""

    id: str
    units: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "units", _validate_units(self.units, what=f"sequence {self.id!r}"))

    def __len__(self) -> int:
        return self.units.shape[0]

    @property
    def dim(self) -> int:
        return self.units.shape[1]


@dataclass(frozen=True)
class SegmentMap:
    """Ordered (caption_index, start, end) triples, end exclusive."""

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((int(c), int(s), int(e)) for c, s, e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def validate(self, n_anchor: int, n_clips: int, *, require_disjoint: bool = False) -> None:
        prev_start = -1
        prev_caption = -1
        prev_end = 0
        for caption, start, end in self.entries:
            if not (0 <= caption < n_anchor):
                raise DataError(f"segment caption_index {caption} outside anchor of length {n_anchor}")
            if not (0 <= start < end <= n_clips):
                raise DataError(f"segment range [{start}, {end}) invalid for {n_clips} clips")
            if start < prev_start:
                raise DataError("segments not sorted by start")
            if caption <= prev_caption:
                raise DataError("segment caption_index not strictly increasing")
            if require_disjoint and start < prev_end:
                raise DataError(f"segments overlap at clip {start}")
            prev_start, prev_caption, prev_end = start, caption, max(prev_end, end)

    def ranges(self) -> list[tuple[int, int]]:
        return [(s, e) for _, s, e in self.entries]


def _background_mask(segments: SegmentMap, n_clips: int) -> np.ndarray:
    mask = np.ones(n_clips, dtype=bool)
    for _, start, end in segments:
        mask[start:end] = False
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class SegmentedPair:
    """Anchor caption sequence + positive clip sequence + segment map.

    ``background_mask[j]`` is True iff clip j is covered by no segment.
    Segments may overlap until :func:`canonicalize_pair` has been applied.
    """

    id: str
    anchor: EmbeddingSequence
    positive: EmbeddingSequence
    segments: SegmentMap
    background_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.anchor.dim != self.positive.dim:
            raise DataError(f"pair {self.id!r}: anchor dim {self.anchor.dim} != positive dim {self.positive.dim}")
        if len(self.segments) == 0:
            raise DataError(f"pair {self.id!r}: empty pair")
        self.segments.validate(len(self.anchor), len(self.positive))
        mask = _background_mask(self.segments, len(self.positive))
        if self.background_mask is not None and not np.array_equal(np.asarray(self.background_mask, dtype=bool), mask):
            raise DataError(f"pair {self.id!r}: background_mask inconsistent with segments")
        object.__setattr__(self, "background_mask", mask)

    @property
    def covered_indices(self) -> np.ndarray:
        """Original clip indices covered by some segment, in temporal order."""
        return np.flatnonzero(~self.background_mask)

    def covered_units(self) -> np.ndarray:
        return self.positive.units[self.covered_indices]

    def require_canonical(self) -> None:
        self.segments.validate(len(self.anchor), len(self.positive), require_disjoint=True)
        if len(self.segments) != len(self.anchor):
            raise DataError(f"pair {self.id!r}: {len(self.anchor)} captions but {len(self.segments)} segments; canonicalize first")

    def with_units(self, anchor_units: np.ndarray, positive_units: np.ndarray) -> "SegmentedPair":
        """Same structure with replaced embeddings (e.g. after projection)."""
        return SegmentedPair(
            id=self.id,
            anchor=EmbeddingSequence(self.anchor.id, anchor_units),
            positive=EmbeddingSequence(self.positive.id, positive_units),
            segments=self.segments,
        )

    def covered_view(self) -> "SegmentedPair":
        """Background-free copy: clips restricted to segment-covered ones,
        segment ranges remapped to the compacted positions."""
        self.require_canonical()
        entries = []
        cursor = 0
        for caption, start, end in self.segments:
            entries.append((caption, cursor, cursor + (end - start)))
            cursor += end - start
        return SegmentedPair(
            id=self.id,
            anchor=self.anchor,
            positive=EmbeddingSequence(self.positive.id, self.covered_units()),
            segments=SegmentMap(tuple(entries)),
        )


@dataclass(frozen=True)
class LabeledVideo:
    """A frame sequence with a class label, for the video-only regime."""

    id: str
    label: str
    frames: EmbeddingSequence


def unit_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize; zero rows stay zero (their similarities read as 0)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe[..., None], norms


def cosine_similarity(u, v) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs yield 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise DataError(f"cosine_similarity: dimension mismatch {u.shape} vs {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise DataError("cosine_similarity: non-finite input")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def similarity_matrix(a_units: np.ndarray, b_units: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of two unit stacks, clipped to [-1, 1]."""
    a = np.asarray(a_units, dtype=np.float64)
    b = np.asarray(b_units, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DataError(f"similarity_matrix: dimension mismatch {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("similarity_matrix: non-finite input")
    a_hat, _ = unit_normalize(a)
    b_hat, _ = unit_normalize(b)
    return np.clip(a_hat @ b_hat.T, -1.0, 1.0)


def cost_matrix(a: EmbeddingSequence, b: EmbeddingSequence) -> np.ndarray:
    """Pairwise matching costs, cost(i, j) = 1 - cosine(a_i, b_j), in [0, 2]."""
    if a.dim != b.dim:
        raise DataError(f"cost_matrix: dimension mismatch {a.dim} vs {b.dim}")
    return 1.0 - similarity_matrix(a.units, b.units)


def canonicalize_pair(raw: SegmentedPair) -> SegmentedPair:
    """Resolve overlapping segments into the disjoint form the pipeline assumes.

    Segments are scanned in temporal order; any segment whose range intersects
    an already-kept range is dropped, together with its caption.  Captions not
    referenced by any surviving segment are dropped as well, and caption
    indices are renumbered.  Idempotent on already-canonical pairs.
    """
    kept: list[tuple[int, int, int]] = []
    last_end = 0
    for caption, start, end in raw.segments:
        if start >= last_end:
            kept.append((caption, start, end))
            last_end = end
    if not kept:
        raise DataError(f"pair {raw.id!r}: empty pair")
    kept_captions = [c for c, _, _ in kept]
    new_anchor = EmbeddingSequence(raw.anchor.id, raw.anchor.units[kept_captions])
    new_segments = SegmentMap(tuple((i, s, e) for i, (_, s, e) in enumerate(kept)))
    return SegmentedPair(id=raw.id, anchor=new_anchor, positive=raw.positive, segments=new_segments)
