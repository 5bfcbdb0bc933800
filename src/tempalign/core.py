"""Domain types and unit normalization for embedding-sequence pairs.

A paragraph, a video, or a frame sequence is an ordered list of d-dimensional
unit embeddings.  A caption/clip pair additionally carries a segment map that
links each caption to a consecutive, end-exclusive clip range.  A pair is
canonical by construction: its constructor refuses any other layout than one
segment per caption, in caption order, disjoint and in temporal order, so
downstream modules rely on that layout without checking it again.  Everything
here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Malformed domain data: bad shapes, non-finite values, invalid segments."""


class NumericalError(RuntimeError):
    """A computation overflowed or produced a non-finite value."""


def _validate_units(units, *, what: str) -> np.ndarray:
    arr = np.array(units, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{what}: units must be a (length, dim) array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"{what}: need at least one unit of dimension >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what}: units contain non-finite values")
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
    """(caption_index, start, end) triples, end exclusive; a pair accepts
    them only in its canonical layout (see :meth:`validate`)."""

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((int(c), int(s), int(e)) for c, s, e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def validate(self, n_anchor: int, n_clips: int, where: str) -> None:
        """Raise DataError, its message prefixed by ``where``, unless segment i
        belongs to caption i for each of the ``n_anchor`` captions, and the
        segments are nonempty, disjoint, in temporal order and within
        ``n_clips`` clips."""
        if len(self.entries) != n_anchor:
            raise DataError(f"{where}: {n_anchor} captions but {len(self.entries)} segments")
        prev_end = 0
        for i, (caption, start, end) in enumerate(self.entries):
            if caption != i:
                raise DataError(f"{where}: segment {i} has caption_index {caption}, not {i}")
            if not (0 <= start < end <= n_clips):
                raise DataError(f"{where}: segment range [{start}, {end}) invalid for {n_clips} clips")
            if start < prev_end:
                raise DataError(f"{where}: segment {i} starts at clip {start}, inside or before segment {i - 1}")
            prev_end = end

    def ranges(self) -> list[tuple[int, int]]:
        return [(s, e) for _, s, e in self.entries]


@dataclass(frozen=True)
class SegmentedPair:
    """Anchor caption sequence + positive clip sequence + segment map.

    Canonical by construction: segment i is caption i's clip range, and the
    ranges are disjoint and in temporal order (see :meth:`SegmentMap.validate`).
    Clips outside every range are background; ``background_mask[j]`` is True
    iff clip j is one.
    """

    id: str
    anchor: EmbeddingSequence
    positive: EmbeddingSequence
    segments: SegmentMap
    background_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.anchor.dim != self.positive.dim:
            raise DataError(f"pair {self.id!r}: anchor dim {self.anchor.dim} != positive dim {self.positive.dim}")
        if len(self.segments) == 0:
            raise DataError(f"pair {self.id!r}: empty pair")
        self.segments.validate(len(self.anchor), len(self.positive), f"pair {self.id!r}")
        mask = np.ones(len(self.positive), dtype=bool)
        for start, end in self.segments.ranges():
            mask[start:end] = False
        mask.setflags(write=False)
        object.__setattr__(self, "background_mask", mask)

    @property
    def covered_indices(self) -> np.ndarray:
        """Original clip indices covered by some segment, in temporal order."""
        return np.flatnonzero(~self.background_mask)

    def covered_units(self) -> np.ndarray:
        return self.positive.units[self.covered_indices]

    def covered_spans(self) -> list[tuple[int, int]]:
        """Start and end of each segment among the covered clips, i.e. its
        range in :meth:`covered_view`."""
        spans, cursor = [], 0
        for _, start, end in self.segments:
            spans.append((cursor, cursor + end - start))
            cursor += end - start
        return spans

    def covered_view(self) -> "SegmentedPair":
        """Background-free view: clips restricted to segment-covered ones,
        segment ranges remapped to the compacted positions.  A pair without
        background clips is its own view (a copy would be equal)."""
        if not self.background_mask.any():
            return self
        entries = [(i, lo, hi) for i, (lo, hi) in enumerate(self.covered_spans())]
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

    def two_view(self) -> SegmentedPair:
        """The video as a canonical, background-free pair of two temporal
        views: the anchor is frames ``0::2``, the positive is ``frames``
        itself (shared, not copied), and segment i, anchor frame i's span,
        is frames [2i, min(2i + 2, n))."""
        n = len(self.frames)
        return SegmentedPair(
            id=self.id,
            anchor=EmbeddingSequence(f"{self.id}-even", self.frames.units[0::2]),
            positive=self.frames,
            segments=SegmentMap(tuple((i, 2 * i, min(2 * i + 2, n)) for i in range((n + 1) // 2))),
        )


def unit_normalize(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize, into ``out`` when given (it may be ``x``); zero rows
    stay zero (their similarities read as 0)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.divide(x, safe[..., None], out=out), norms


def similarity_matrix(a_units: np.ndarray, b_units: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of two unit stacks, clipped to [-1, 1].
    Only the benchmark's core.sim hooks and the tests reach it."""
    a = np.asarray(a_units, dtype=np.float64)
    b = np.asarray(b_units, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DataError(f"similarity_matrix: dimension mismatch {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("similarity_matrix: non-finite input")
    a_hat, _ = unit_normalize(a)
    b_hat, _ = unit_normalize(b)
    sims = a_hat @ b_hat.T
    return np.clip(sims, -1.0, 1.0, out=sims)
