"""Seeded synthetic corpora for training and desk-scale evaluation.

Each task owns a set of orthonormal step prototypes.  Captions are noisy
prototypes; a segment's clips are noisy, drift-shifted prototypes, except
that with probability ``confuser_prob`` a clip is drawn near a *different*
prototype of the same task, which is what defeats unit-level matching while
leaving the temporal order intact.  With ``proto_subspace_dim`` set, all
tasks share one low-dimensional prototype subspace: tasks then overlap in
feature space (voting across videos becomes ambiguous) and most of the
isotropic noise lives outside the subspace, where a trained projection can
suppress it.  ``None`` draws each task's prototypes in the full space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import DataError, EmbeddingSequence, LabeledVideo, SegmentedPair


def _require(name: str, value, numbers: bool = False) -> None:
    """DataError naming field ``name`` unless ``value`` (each entry of a tuple or list) is an integer,
    or with ``numbers`` a finite int or float; numpy's types count, a bool does not."""
    kinds = (int, np.integer, float, np.floating) if numbers else (int, np.integer)
    items = value if isinstance(value, (tuple, list)) else [value]
    if not all(isinstance(v, kinds) and not isinstance(v, bool) and -np.inf < v < np.inf for v in items):
        raise DataError(f"{name} must hold {'finite numbers' if numbers else 'integers'}, got {value!r}")


def _range(name: str, value, least: int) -> tuple[int, int]:
    """Field ``name`` as a tuple; DataError unless it is two integers ``lo, hi`` with ``least <= lo <= hi``."""
    value = tuple(value) if isinstance(value, (tuple, list)) else value
    _require(name, value)
    if not isinstance(value, tuple) or len(value) != 2 or not least <= value[0] <= value[1]:
        raise DataError(f"{name} range invalid: {value}")
    return value


@dataclass
class SynthConfig:
    """``n_tasks`` tasks of ``videos_per_task`` videos (counts are integers >= 1).  A video
    has ``segments_per_video`` captions over as many segments of ``clips_per_segment`` clips
    and ``background_per_video`` background clips in the gaps around the segments; a range
    is ``[lo, hi]`` with both ends drawn, 1 <= lo <= hi for clips, 0 <= lo <= hi for background.
    ``dim``, the embedding width, is an integer >= ``segments_per_video`` (and above
    ``proto_subspace_dim`` if there is background); ``seed`` is an integer >= 0.  Finite
    numbers: the per-component noise stds ``caption_noise`` and ``clip_noise`` (>= 0),
    ``confuser_prob`` (in [0, 1)), and ``progress_drift``, which puts clip ``pos`` of ``L``
    ``progress_drift * (pos + 1) / (L + 1)`` along the progress direction (either sign).
    ``proto_subspace_dim`` is None or an integer from ``segments_per_video`` to ``dim``."""

    n_tasks: int = 50
    videos_per_task: int = 5
    segments_per_video: int = 5
    clips_per_segment: tuple[int, int] = (2, 4)
    dim: int = 64
    caption_noise: float = 0.09
    clip_noise: float = 0.07
    confuser_prob: float = 0.3
    background_per_video: tuple[int, int] = (0, 2)
    progress_drift: float = 0.1
    seed: int = 0
    proto_subspace_dim: int | None = 8

    def __post_init__(self):
        floats = ("caption_noise", "clip_noise", "confuser_prob", "progress_drift")
        optional = () if self.proto_subspace_dim is None else ("proto_subspace_dim",)
        for name in ("n_tasks", "videos_per_task", "segments_per_video", "dim", "seed", *optional, *floats):
            _require(name, getattr(self, name), numbers=name in floats)
        self.clips_per_segment = _range("clips_per_segment", self.clips_per_segment, 1)
        self.background_per_video = _range("background_per_video", self.background_per_video, 0)
        if min(self.n_tasks, self.videos_per_task, self.segments_per_video) < 1:
            raise DataError("counts must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not (0 <= self.confuser_prob < 1):
            raise DataError(f"confuser_prob must be in [0, 1), got {self.confuser_prob}")
        if self.caption_noise < 0 or self.clip_noise < 0:
            raise DataError("noise levels must be >= 0")
        if self.dim < self.segments_per_video:
            raise DataError(f"dim {self.dim} < segments_per_video {self.segments_per_video}: prototype orthogonalization infeasible")
        if self.proto_subspace_dim is not None:
            if self.proto_subspace_dim < self.segments_per_video:
                raise DataError("proto_subspace_dim must be >= segments_per_video")
            if self.proto_subspace_dim > self.dim:
                raise DataError("proto_subspace_dim must be <= dim")


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def gen_corpus(cfg: SynthConfig):
    """Deterministic corpus -> (train pairs, test pairs, truth metadata).

    The split is per task: the last ``ceil(videos_per_task / 5)`` of each
    task's videos are held out for testing, except that a task of one video
    keeps it for training.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.segments_per_video
    m = cfg.proto_subspace_dim
    basis = _orthonormal(rng, cfg.dim, cfg.dim)
    used = 0 if m is None else m
    bg_pool = basis[:, used : used + 4].T  # up to 4 background directions beside the prototypes
    if cfg.background_per_video[1] > 0 and len(bg_pool) == 0:
        raise DataError("dim too small to host a background pool beside the prototypes")
    # one global progress direction: every clip is shifted along it by how far
    # through its segment it sits, which captions never are
    drift_dir = rng.normal(size=cfg.dim)
    drift_dir /= np.linalg.norm(drift_dir)
    splits: dict[str, list[SegmentedPair]] = {"train": [], "test": []}
    metadata = {"config": asdict(cfg), "pairs": {}}
    for t in range(cfg.n_tasks):
        if m is not None:
            protos = (basis[:, :m] @ _orthonormal(rng, m, k)).T  # (k, d), orthonormal, inside the subspace
        else:
            protos = _orthonormal(rng, cfg.dim, k).T
        for v in range(cfg.videos_per_task):
            pair_id = f"task{t:03d}-vid{v:02d}"
            captions = protos + cfg.caption_noise * rng.normal(size=(k, cfg.dim))
            segments = []  # each segment's clip rows and the positions of its confusers among them
            for i in range(k):
                length = int(rng.integers(cfg.clips_per_segment[0], cfg.clips_per_segment[1] + 1))
                clips, confused = [], []
                for pos in range(length):
                    base = protos[i]
                    if k > 1 and rng.random() < cfg.confuser_prob:
                        j = int(rng.integers(k - 1))
                        base = protos[j if j < i else j + 1]
                        confused.append(pos)
                    drift = cfg.progress_drift * ((pos + 1) / (length + 1)) * drift_dir
                    clips.append(base + drift + cfg.clip_noise * rng.normal(size=cfg.dim))
                segments.append((clips, confused))
            gaps = [[] for _ in range(k + 1)]  # the background rows before each segment, then after the last
            for _ in range(int(rng.integers(cfg.background_per_video[0], cfg.background_per_video[1] + 1))):
                gap = int(rng.integers(k + 1))
                gaps[gap].append(bg_pool[int(rng.integers(len(bg_pool)))] + cfg.clip_noise * rng.normal(size=cfg.dim))
            rows, ranges, confusers = gaps[0], [], []
            for (clips, confused), gap in zip(segments, gaps[1:]):
                ranges.append((len(rows), len(rows) + len(clips)))
                confusers += [len(rows) + pos for pos in confused]
                rows += clips + gap

            split = "train" if v < max(1, (cfg.videos_per_task * 4) // 5) else "test"
            splits[split].append(SegmentedPair(pair_id, EmbeddingSequence(f"{pair_id}-captions", captions),
                                               EmbeddingSequence(f"{pair_id}-clips", np.stack(rows)), tuple(ranges)))
            metadata["pairs"][pair_id] = {"task": t, "video": v, "split": split,
                                          "segments": [[i, *span] for i, span in enumerate(ranges)], "confusers": confusers}
    return splits["train"], splits["test"], metadata


@dataclass
class FewshotSynthConfig:
    """Classes are temporal orders over one shared prototype set, so the frame
    multiset carries no class signal.  ``n_classes`` classes of ``videos_per_class``
    videos, each ``steps_per_class`` steps of ``frames_per_step`` frames (counts are
    integers >= 1); ``dim`` is an integer >= ``steps_per_class + 1``, ``seed`` one >= 0.
    ``frame_noise`` (per-component std) and ``proto_overlap`` (the weight of a common
    direction blended into every prototype) are finite numbers >= 0.  ``patterns`` holds
    each class's order, a permutation of the steps, used as given (repeats too); None
    draws distinct orders."""

    n_classes: int = 10
    videos_per_class: int = 20
    steps_per_class: int = 5
    frames_per_step: int = 3
    dim: int = 64
    frame_noise: float = 0.06
    proto_overlap: float = 1.0
    seed: int = 0
    patterns: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        floats = ("frame_noise", "proto_overlap")
        for name in ("n_classes", "videos_per_class", "steps_per_class", "frames_per_step", "dim", "seed", *floats):
            _require(name, getattr(self, name), numbers=name in floats)
        if min(self.n_classes, self.videos_per_class, self.steps_per_class, self.frames_per_step) < 1:
            raise DataError("counts must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.frame_noise < 0 or self.proto_overlap < 0:
            raise DataError("noise and overlap must be >= 0")
        if self.dim < self.steps_per_class + 1:
            raise DataError(f"dim {self.dim} < steps_per_class + 1: prototype orthogonalization infeasible")
        if self.patterns is not None:
            self.patterns = tuple(tuple(p) for p in self.patterns)
            if len(self.patterns) != self.n_classes:
                raise DataError("patterns must supply one order per class")
            for pat in self.patterns:
                _require("patterns", pat)
                if sorted(pat) != list(range(self.steps_per_class)):
                    raise DataError(f"pattern {pat} is not a permutation of the steps")


def gen_fewshot_corpus(cfg: FewshotSynthConfig):
    """Deterministic order-only classes -> (videos, metadata).

    Metadata tags the first half of the classes as base (for pre-training)
    and the rest as novel (for episodic evaluation).
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.steps_per_class
    basis = _orthonormal(rng, cfg.dim, k + 1)
    protos = basis[:, :k].T + cfg.proto_overlap * basis[:, k][None, :]
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    patterns = cfg.patterns
    if patterns is None:
        if math.factorial(k) < cfg.n_classes:
            raise DataError(f"cannot draw {cfg.n_classes} distinct orders over {k} steps")
        patterns = {}  # the distinct orders drawn, in draw order
        while len(patterns) < cfg.n_classes:
            patterns[tuple(int(x) for x in rng.permutation(k))] = None

    labels = [f"class{c:02d}" for c in range(cfg.n_classes)]
    videos: list[LabeledVideo] = []
    for c, (label, pat) in enumerate(zip(labels, patterns)):
        for v in range(cfg.videos_per_class):
            frames = protos[np.repeat(pat, cfg.frames_per_step)]
            frames += cfg.frame_noise * rng.normal(size=frames.shape)
            vid_id = f"cls{c:02d}-vid{v:03d}"
            videos.append(LabeledVideo(id=vid_id, label=label, frames=EmbeddingSequence(vid_id, frames)))

    n_base = cfg.n_classes // 2 if cfg.n_classes > 1 else 1
    metadata = {
        "config": {**asdict(cfg), "patterns": [list(p) for p in patterns]},
        "base_labels": labels[:n_base],
        "novel_labels": labels[n_base:],
    }
    return videos, metadata
