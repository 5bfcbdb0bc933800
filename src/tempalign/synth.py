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

from dataclasses import asdict, dataclass

import numpy as np

from .core import DataError, EmbeddingSequence, LabeledVideo, SegmentedPair


def _require_integers(name: str, value) -> None:
    """DataError naming field ``name`` unless ``value`` (each entry of a tuple or list) is an int or numpy integer, not a bool."""
    items = value if isinstance(value, (tuple, list)) else [value]
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in items):
        raise DataError(f"{name} must hold integers, got {value!r}")


@dataclass
class SynthConfig:
    n_tasks: int = 50
    videos_per_task: int = 5
    segments_per_video: int = 5
    clips_per_segment: tuple[int, int] = (2, 4)
    dim: int = 64
    caption_noise: float = 0.09  # per-component std over the noise directions
    clip_noise: float = 0.07
    confuser_prob: float = 0.3
    background_per_video: tuple[int, int] = (0, 2)
    progress_drift: float = 0.1
    seed: int = 0
    proto_subspace_dim: int | None = 8

    def __post_init__(self):
        optional = () if self.proto_subspace_dim is None else ("proto_subspace_dim",)
        for name in ("n_tasks", "videos_per_task", "segments_per_video", "clips_per_segment", "dim", "background_per_video",
                     "seed", *optional):
            _require_integers(name, getattr(self, name))
        if min(self.n_tasks, self.videos_per_task, self.segments_per_video) < 1:
            raise DataError("counts must be >= 1")
        if not (0 <= self.confuser_prob < 1):
            raise DataError(f"confuser_prob must be in [0, 1), got {self.confuser_prob}")
        if self.caption_noise < 0 or self.clip_noise < 0:
            raise DataError("noise levels must be >= 0")
        lo, hi = self.clips_per_segment
        if not (1 <= lo <= hi):
            raise DataError(f"clips_per_segment range invalid: {self.clips_per_segment}")
        blo, bhi = self.background_per_video
        if not (0 <= blo <= bhi):
            raise DataError(f"background_per_video range invalid: {self.background_per_video}")
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

    The split is per task: the last fifth of each task's videos (at least
    one) is held out for testing.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.segments_per_video
    d = cfg.dim
    m = cfg.proto_subspace_dim

    basis = _orthonormal(rng, d, d)
    used = 0 if m is None else m
    sub = basis[:, :used]
    n_bg = min(4, d - used)
    if cfg.background_per_video[1] > 0 and n_bg == 0:
        raise DataError("dim too small to host a background pool beside the prototypes")
    bg_pool = basis[:, used : used + n_bg].T if n_bg else np.empty((0, d))

    def noise(scale: float) -> np.ndarray:
        return scale * rng.normal(size=d)

    n_train = max(1, (cfg.videos_per_task * 4) // 5)  # leaves a test video from 2 videos on

    # one global progress direction: every clip is shifted along it by how far
    # through its segment it sits, which captions never are
    drift_dir = rng.normal(size=d)
    drift_dir /= np.linalg.norm(drift_dir)

    train: list[SegmentedPair] = []
    test: list[SegmentedPair] = []
    meta_pairs: dict[str, dict] = {}

    for t in range(cfg.n_tasks):
        if m is not None:
            protos = (sub @ _orthonormal(rng, m, k)).T  # (k, d), orthonormal, inside the subspace
        else:
            protos = _orthonormal(rng, d, k).T

        for v in range(cfg.videos_per_task):
            pair_id = f"task{t:03d}-vid{v:02d}"
            captions = protos + np.stack([noise(cfg.caption_noise) for _ in range(k)])

            seg_clips: list[np.ndarray] = []
            confuser_flags: list[np.ndarray] = []
            for i in range(k):
                length = int(rng.integers(cfg.clips_per_segment[0], cfg.clips_per_segment[1] + 1))
                clips = np.empty((length, d))
                flags = np.zeros(length, dtype=bool)
                for pos in range(length):
                    if k > 1 and rng.random() < cfg.confuser_prob:
                        j = int(rng.integers(k - 1))
                        j = j if j < i else j + 1
                        base = protos[j]
                        flags[pos] = True
                    else:
                        base = protos[i]
                    drift = cfg.progress_drift * ((pos + 1) / (length + 1)) * drift_dir
                    clips[pos] = base + drift + noise(cfg.clip_noise)
                seg_clips.append(clips)
                confuser_flags.append(flags)

            n_bg_clips = int(rng.integers(cfg.background_per_video[0], cfg.background_per_video[1] + 1))
            gaps: list[list[np.ndarray]] = [[] for _ in range(k + 1)]
            for _ in range(n_bg_clips):
                gap = int(rng.integers(k + 1))
                proto = bg_pool[int(rng.integers(len(bg_pool)))]
                gaps[gap].append(proto + noise(cfg.clip_noise))

            blocks: list[np.ndarray] = []
            ranges: list[tuple[int, int]] = []
            confusers: list[int] = []
            cursor = 0
            for i in range(k):
                for bg in gaps[i]:
                    blocks.append(bg[None, :])
                    cursor += 1
                start = cursor
                blocks.append(seg_clips[i])
                cursor += len(seg_clips[i])
                ranges.append((start, cursor))
                confusers.extend(start + np.flatnonzero(confuser_flags[i]))
            for bg in gaps[k]:
                blocks.append(bg[None, :])
                cursor += 1

            pair = SegmentedPair(
                id=pair_id,
                anchor=EmbeddingSequence(f"{pair_id}-captions", captions),
                positive=EmbeddingSequence(f"{pair_id}-clips", np.concatenate(blocks, axis=0)),
                segments=tuple(ranges),
            )
            split = "train" if v < n_train else "test"
            (train if split == "train" else test).append(pair)
            meta_pairs[pair_id] = {
                "task": t,
                "video": v,
                "split": split,
                "segments": [[i, start, end] for i, (start, end) in enumerate(ranges)],
                "confusers": [int(c) for c in confusers],
            }

    metadata = {"config": asdict(cfg), "pairs": meta_pairs}
    return train, test, metadata


@dataclass
class FewshotSynthConfig:
    """Classes are temporal orders over one shared prototype set, so the frame
    multiset carries no class signal; ``proto_overlap`` blends a common
    direction into every prototype to raise their pairwise similarity."""

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
        for name in ("n_classes", "videos_per_class", "steps_per_class", "frames_per_step", "dim", "seed"):
            _require_integers(name, getattr(self, name))
        if min(self.n_classes, self.videos_per_class, self.steps_per_class, self.frames_per_step) < 1:
            raise DataError("counts must be >= 1")
        if self.frame_noise < 0 or self.proto_overlap < 0:
            raise DataError("noise and overlap must be >= 0")
        if self.dim < self.steps_per_class + 1:
            raise DataError(f"dim {self.dim} < steps_per_class + 1: prototype orthogonalization infeasible")
        if self.patterns is not None:
            if len(self.patterns) != self.n_classes:
                raise DataError("patterns must supply one order per class")
            for pat in self.patterns:
                _require_integers("patterns", pat)
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
    common = basis[:, k]
    protos = basis[:, :k].T + cfg.proto_overlap * common[None, :]
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    if cfg.patterns is not None:
        patterns = [tuple(p) for p in cfg.patterns]
    else:
        patterns = {}  # the distinct orders drawn, in draw order
        for _ in range(100_000):
            if len(patterns) == cfg.n_classes:
                break
            patterns[tuple(int(x) for x in rng.permutation(k))] = None
        if len(patterns) < cfg.n_classes:
            raise DataError(f"cannot draw {cfg.n_classes} distinct orders over {k} steps")

    videos: list[LabeledVideo] = []
    for c, pat in enumerate(patterns):
        label = f"class{c:02d}"
        for v in range(cfg.videos_per_class):
            frames = np.empty((k * cfg.frames_per_step, cfg.dim))
            row = 0
            for step in pat:
                for _ in range(cfg.frames_per_step):
                    frames[row] = protos[step] + cfg.frame_noise * rng.normal(size=cfg.dim)
                    row += 1
            vid_id = f"cls{c:02d}-vid{v:03d}"
            videos.append(LabeledVideo(id=vid_id, label=label, frames=EmbeddingSequence(vid_id, frames)))

    n_base = cfg.n_classes // 2 if cfg.n_classes > 1 else 1
    labels = [f"class{c:02d}" for c in range(cfg.n_classes)]
    metadata = {
        "config": {**asdict(cfg), "patterns": [list(p) for p in patterns]},
        "base_labels": labels[:n_base],
        "novel_labels": labels[n_base:],
    }
    return videos, metadata
