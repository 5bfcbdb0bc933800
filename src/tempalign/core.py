"""Domain types and unit normalization for embedding-sequence pairs.

A paragraph, a video, or a frame sequence is an ordered list of d-dimensional
unit embeddings.  A caption/clip pair additionally carries one consecutive,
end-exclusive clip range per caption, in caption order, so a range's position
is its caption.  A pair is canonical by construction: its constructor refuses
ranges that are empty, outside the clips, or not disjoint and in temporal
order, so downstream modules rely on that layout without checking it again.
Everything here is immutable and pure.
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
class SegmentedPair:
    """Anchor caption sequence + positive clip sequence + one clip range per
    caption.

    ``segments[i]`` is caption i's ``(start, end)`` clip range, end exclusive.
    Canonical by construction: the constructor raises DataError, its message
    prefixed by the pair id, unless there is one range per caption and the
    ranges are nonempty, within the clips, and each starts at or after the
    previous end.  Clips outside every range are background;
    ``background_mask[j]`` is True iff clip j is one.
    """

    id: str
    anchor: EmbeddingSequence
    positive: EmbeddingSequence
    segments: tuple[tuple[int, int], ...]
    background_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        where = f"pair {self.id!r}"
        if self.anchor.dim != self.positive.dim:
            raise DataError(f"{where}: anchor dim {self.anchor.dim} != positive dim {self.positive.dim}")
        segments = tuple((int(start), int(end)) for start, end in self.segments)
        if not segments:
            raise DataError(f"{where}: empty pair")
        if len(segments) != len(self.anchor):
            raise DataError(f"{where}: {len(self.anchor)} captions but {len(segments)} segments")
        n_clips = len(self.positive)
        mask = np.ones(n_clips, dtype=bool)
        prev_end = 0
        for i, (start, end) in enumerate(segments):
            if not (0 <= start < end <= n_clips):
                raise DataError(f"{where}: segment range [{start}, {end}) invalid for {n_clips} clips")
            if start < prev_end:
                raise DataError(f"{where}: segment {i} starts at clip {start}, inside or before segment {i - 1}")
            mask[start:end] = False
            prev_end = end
        mask.setflags(write=False)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "background_mask", mask)

    @property
    def covered_indices(self) -> np.ndarray:
        """Original clip indices covered by some segment, in temporal order."""
        return np.flatnonzero(~self.background_mask)

    def covered_spans(self) -> list[tuple[int, int]]:
        """Start and end of each segment among the covered clips, i.e. its
        range among the columns a training batch gives the pair."""
        spans, cursor = [], 0
        for start, end in self.segments:
            spans.append((cursor, cursor + end - start))
            cursor += end - start
        return spans


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
            segments=tuple((2 * i, min(2 * i + 2, n)) for i in range((n + 1) // 2)),
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
