"""Trainable per-unit projection head, optimized with Adam on the joint loss.

The projection is applied independently to every unit embedding before
alignment.  Video-text pairs and video-only instances share one per-item
step (``_item_grads``): the mode only picks the negative drawer, the anchor
units and the unit term.  Gradients flow from the InfoNCE losses through the
fixed warping paths, the cosine normalization Jacobian, and the affine head;
everything is plain numpy and deterministic given the config seed.
Checkpoints are float32 containers written and read through ``io``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import DataError, NumericalError, SegmentedPair, similarity_matrix, unit_normalize
from .io import read_float32_container, write_float32_container
from .loss import (
    LossConfig,
    joint_loss,
    seq_grad_core,
    unit_term_video_only,
    unit_term_video_text,
)
from .negatives import canonical_strategy, generate_negatives, video_only_negatives

_ACTIVATIONS = ("identity", "relu")


@dataclass
class AffineHead:
    """y = act(x @ w_in + b_in) @ w_out + b_out, or a single affine layer."""

    w_out: np.ndarray
    b_out: np.ndarray
    w_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        for name in ("w_out", "b_out", "w_in", "b_in"):
            arr = getattr(self, name)
            if arr is not None:
                setattr(self, name, np.asarray(arr, dtype=np.float64))

    @property
    def in_dim(self) -> int:
        return (self.w_in if self.w_in is not None else self.w_out).shape[0]

    @property
    def out_dim(self) -> int:
        return self.w_out.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward(x)
        return y

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if self.w_in is None:
            return x @ self.w_out + self.b_out, (x, None)
        pre = x @ self.w_in + self.b_in
        hidden = np.maximum(pre, 0.0) if self.activation == "relu" else pre
        return hidden @ self.w_out + self.b_out, (x, (pre, hidden))

    def backward(self, cache, d_out: np.ndarray, grads: dict[str, np.ndarray], prefix: str) -> None:
        """Accumulate parameter gradients for one forward pass."""
        x, hidden_cache = cache
        if self.w_in is None:
            grads[prefix + "w_out"] += x.T @ d_out
            grads[prefix + "b_out"] += d_out.sum(axis=0)
            return
        pre, hidden = hidden_cache
        grads[prefix + "w_out"] += hidden.T @ d_out
        grads[prefix + "b_out"] += d_out.sum(axis=0)
        d_hidden = d_out @ self.w_out.T
        if self.activation == "relu":
            d_hidden = d_hidden * (pre > 0.0)
        grads[prefix + "w_in"] += x.T @ d_hidden
        grads[prefix + "b_in"] += d_hidden.sum(axis=0)

    def param_items(self, prefix: str):
        yield prefix + "w_out", self.w_out
        yield prefix + "b_out", self.b_out
        if self.w_in is not None:
            yield prefix + "w_in", self.w_in
            yield prefix + "b_in", self.b_in


@dataclass
class ProjectionModel:
    """Per-unit projection; separate clip head only in twin mode."""

    anchor_head: AffineHead
    clip_head: AffineHead | None = None  # None = shared with anchor_head

    @classmethod
    def identity(cls, dim: int) -> "ProjectionModel":
        return cls(AffineHead(w_out=np.eye(dim), b_out=np.zeros(dim)))

    @classmethod
    def linear(cls, d_in: int, d_out: int, seed: int = 0, twin: bool = False) -> "ProjectionModel":
        def head():
            if d_in == d_out:
                w = np.eye(d_in)
            else:
                w = np.random.default_rng(seed).normal(scale=1.0 / np.sqrt(d_in), size=(d_in, d_out))
            return AffineHead(w_out=w, b_out=np.zeros(d_out))

        return cls(head(), head() if twin else None)

    @classmethod
    def mlp(cls, d_in: int, d_hidden: int, d_out: int, seed: int = 0, activation: str = "relu", twin: bool = False) -> "ProjectionModel":
        rng = np.random.default_rng(seed)

        def head():
            return AffineHead(
                w_in=rng.normal(scale=1.0 / np.sqrt(d_in), size=(d_in, d_hidden)),
                b_in=np.zeros(d_hidden),
                w_out=rng.normal(scale=1.0 / np.sqrt(d_hidden), size=(d_hidden, d_out)),
                b_out=np.zeros(d_out),
                activation=activation,
            )

        return cls(head(), head() if twin else None)

    @property
    def twin(self) -> bool:
        return self.clip_head is not None

    @property
    def in_dim(self) -> int:
        return self.anchor_head.in_dim

    def _clip(self) -> AffineHead:
        return self.clip_head if self.clip_head is not None else self.anchor_head

    def transform_anchor(self, units: np.ndarray) -> np.ndarray:
        return self.anchor_head.apply(units)

    def transform_clips(self, units: np.ndarray) -> np.ndarray:
        return self._clip().apply(units)

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self.anchor_head.param_items("anchor."))
        if self.clip_head is not None:
            out.update(self.clip_head.param_items("clip."))
        return out

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.params().items()}

    def copy(self) -> "ProjectionModel":
        return copy.deepcopy(self)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.98),
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DataError(f"adam_step: gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


@dataclass
class TrainConfig:
    lr: float = 0.001
    adam_betas: tuple[float, float] = (0.9, 0.98)
    epochs: int = 10
    batch_pairs: int = 8
    neg_strategy: str = "seg-unit"
    neg_count: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_pairs < 1 or self.neg_count < 1:
            raise ValueError("batch_pairs and neg_count must be >= 1")
        canonical_strategy(self.neg_strategy)


@dataclass
class TrainReport:
    loss_curve: list[float]
    final_model: ProjectionModel
    skipped_pairs: int


def cosine_backward(u: np.ndarray, v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop d(loss)/d(sim matrix) through cos(u_i, v_j) to the raw rows.

    Includes the normalization Jacobian; rows with zero norm receive zero
    gradient (their similarity is pinned to 0 by convention).
    """
    u_hat, nu = unit_normalize(u)
    v_hat, nv = unit_normalize(v)
    sims = u_hat @ v_hat.T
    nu_safe = np.where(nu > 0.0, nu, 1.0)
    nv_safe = np.where(nv > 0.0, nv, 1.0)
    du = (g @ v_hat - (g * sims).sum(axis=1, keepdims=True) * u_hat) / nu_safe[:, None]
    dv = (g.T @ u_hat - (g * sims).sum(axis=0)[:, None] * v_hat) / nv_safe[:, None]
    du[nu == 0.0] = 0.0
    dv[nv == 0.0] = 0.0
    return du, dv


def _item_grads(anchor_units, self_id, negs, units_of, unit_term, model, cfg, grads):
    """Joint loss terms and parameter-gradient contribution of one item.

    The anchor is projected once and every source the positive or a negative
    draws from once (own source first, then in order of first use).  The
    sequence gradient of each source and, on the own source, the unit
    gradient from ``unit_term(sims) -> (loss, d_sims)`` are routed through
    the cosine Jacobian and both heads into ``grads``.  Returns (unit_loss,
    seq_loss, path signature), the signature being the bytes of every
    candidate's path cells.
    """
    y_a, fwd_a = model.anchor_head.forward(anchor_units)
    clip_head = model._clip()
    projected = {}  # source id -> (projected units, forward cache)
    for src in [self_id, *(neg.source_id for neg in negs)]:
        if src not in projected:
            projected[src] = clip_head.forward(units_of[src])
    seq = seq_grad_core(y_a, {src: y for src, (y, _) in projected.items()}, self_id, negs, cfg.loss)
    unit_loss, unit_grad = unit_term(similarity_matrix(y_a, projected[self_id][0]))

    d_ya = np.zeros_like(y_a)
    d_clips = []
    for src, (y_src, _) in projected.items():
        g = cfg.loss.w_seq * seq.grad_by_source[src]
        if src == self_id:
            g = g + cfg.loss.w_unit * unit_grad
        du, dv = cosine_backward(y_a, y_src, g)
        d_ya += du
        d_clips.append(dv)
    model.anchor_head.backward(fwd_a, d_ya, grads, "anchor.")
    clip_prefix = "clip." if model.twin else "anchor."
    for (_, fwd_src), dv in zip(projected.values(), d_clips):
        clip_head.backward(fwd_src, dv, grads, clip_prefix)
    return unit_loss, seq.loss, seq.paths.walk.tobytes()


def evaluate_batch(batch_indices, corpus, model: ProjectionModel, cfg: TrainConfig, rng: np.random.Generator):
    """Loss and mean parameter gradients over one batch.

    ``corpus`` is either a list of canonical, background-free SegmentedPair
    (video-text mode) or a list of LabeledVideo (video-only).  Returns
    (joint_loss, grads, n_used, path_signature); grads are averaged over the
    non-skipped items and the signature records every candidate's path
    cells, so a gradient check can both pin the negatives (by reseeding
    ``rng``) and detect when a perturbation moved an optimal path.
    """
    video_text = isinstance(corpus[0], SegmentedPair)
    units_of = {item.id: item.positive.units if video_text else item.frames.units for item in corpus}
    grads = model.zero_grads()
    unit_losses: list[float] = []
    seq_losses: list[float] = []
    signatures = []
    for idx in batch_indices:
        item = corpus[idx]
        if video_text:
            negs = generate_negatives(item, corpus, cfg.neg_strategy, cfg.neg_count, rng)
            anchor_units = item.anchor.units
            unit_term = partial(unit_term_video_text, segment_ranges=item.segments.ranges(), tau=cfg.loss.tau)
        else:
            negs = video_only_negatives(corpus, idx, cfg.neg_count, rng)
            anchor_units = item.frames.units
            unit_term = partial(unit_term_video_only, tau=cfg.loss.tau)
        if not negs:
            continue
        item_grads = model.zero_grads()
        unit_loss, seq_loss, signature = _item_grads(
            anchor_units, item.id, negs, units_of, unit_term, model, cfg, item_grads,
        )
        unit_losses.append(unit_loss)
        seq_losses.append(seq_loss)
        signatures.append(signature)
        for name in grads:
            grads[name] += item_grads[name]
    used = len(seq_losses)
    if used == 0:
        return None, grads, 0, ()
    for name in grads:
        grads[name] /= used
    return joint_loss(unit_losses, seq_losses, cfg.loss), grads, used, tuple(signatures)


def fit(corpus, model: ProjectionModel, cfg: TrainConfig) -> TrainReport:
    """Train the projection on caption/clip pairs or labeled videos.

    Pairs are shuffled each epoch with the seeded generator, negatives are
    drawn per pair according to ``cfg.neg_strategy``, and one Adam step is
    taken per batch on the joint objective.  Deterministic given the config.
    Raises NumericalError, naming the epoch and batch, at the first step that
    overflows or produces a non-finite value.
    """
    if not corpus:
        raise DataError("fit: empty corpus")
    video_text = isinstance(corpus[0], SegmentedPair)
    if video_text:
        corpus = [p.covered_view() for p in corpus]
        dims = {p.anchor.dim for p in corpus}
    else:
        dims = {v.frames.dim for v in corpus}
    if dims != {model.in_dim}:
        raise DataError(f"fit: corpus dims {sorted(dims)} do not match model input dim {model.in_dim}")

    model = model.copy()
    params = model.params()
    state = AdamState.init(params)
    rng = np.random.default_rng(cfg.seed)
    curve: list[float] = []
    total_skipped = 0
    trained_any = False

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        epoch_losses: list[float] = []
        for step, lo in enumerate(range(0, len(order), cfg.batch_pairs)):
            batch = order[lo : lo + cfg.batch_pairs]
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    loss, grads, used, _ = evaluate_batch(batch, corpus, model, cfg, rng)
                    if used:
                        adam_step(params, grads, state, cfg.lr, cfg.adam_betas)
            except FloatingPointError as exc:
                raise NumericalError(f"fit: epoch {epoch + 1}, batch {step + 1}: {exc}") from exc
            total_skipped += len(batch) - used
            if used:
                trained_any = True
                epoch_losses.append(loss)
        curve.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
    if not trained_any:
        raise DataError("fit: no trainable pairs (all degenerate for the chosen strategy)")
    return TrainReport(loss_curve=curve, final_model=model, skipped_pairs=total_skipped)


# ---------------------------------------------------------------------------
# Checkpoint format: a float32 container (see ``io.write_float32_container``)
# with a version field before the metadata length.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"TALNPROJ"
_CKPT_VERSION = 1


def save_checkpoint(model: ProjectionModel, path, *, seed: int = 0) -> None:
    params = model.params()
    meta = {
        "version": _CKPT_VERSION,
        "activation": model.anchor_head.activation,
        "twin": model.twin,
        "dims": {"in": model.in_dim, "out": model.anchor_head.out_dim},
        "hidden": None if model.anchor_head.w_in is None else int(model.anchor_head.w_in.shape[1]),
        "seed": seed,
        "blocks": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    write_float32_container(path, _CKPT_MAGIC, "<II", (_CKPT_VERSION,), meta, list(params.values()))


def load_checkpoint(path) -> ProjectionModel:
    (version,), meta, arrays = read_float32_container(path, _CKPT_MAGIC, "<II", "blocks")
    if version != _CKPT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported version {version}")

    def head(prefix: str) -> AffineHead:
        return AffineHead(
            w_out=blocks[prefix + "w_out"],
            b_out=blocks[prefix + "b_out"],
            w_in=blocks.get(prefix + "w_in"),
            b_in=blocks.get(prefix + "b_in"),
            activation=meta["activation"],
        )

    try:
        blocks = {block["name"]: arr for block, arr in zip(meta["blocks"], arrays)}
        return ProjectionModel(head("anchor."), head("clip.") if meta["twin"] else None)
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path}: malformed metadata: {exc!r}") from exc
