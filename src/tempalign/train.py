"""Trainable per-unit projection head, optimized with Adam on the joint loss.

The projection is applied independently to every unit embedding before
alignment.  Training has one mode: a labeled video trains as its two-view
pair (``LabeledVideo.two_view``), a caption/clip pair as its background-free
view, and a batch is one step (``evaluate_batch``) over one similarity
matrix, the batch's anchor rows against its source columns: one forward and
one backward per head, one alignment call and one gradient scatter.
Gradients flow from the InfoNCE losses through the fixed warping paths, the
cosine normalization Jacobian, and the affine head; everything is plain
numpy and deterministic given the config seed.
Checkpoints are float32 containers written and read through ``io``, so a
reloaded model holds the trained float64 weights rounded to float32 (relative
error at most 2**-24), not the trained weights themselves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import DataError, LabeledVideo, NumericalError, unit_normalize
from .core import similarity_matrix  # noqa: F401  (hooked by perfbench/layertrace.py)
from .io import read_float32_container, write_float32_container
from .loss import LossConfig, column_spans, joint_loss, seq_grad_core, unit_term_video_text
from .loss import unit_term_video_only  # noqa: F401  (hooked by perfbench/layertrace.py)
from .negatives import PairPool, check_strategy, generate_negatives
from .negatives import video_only_negatives  # noqa: F401  (hooked by perfbench/layertrace.py)

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


#: Adam's moment decay rates and the offset of its update's denominator.
ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    b1, b2 = ADAM_BETAS
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
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainConfig:
    lr: float = 0.001
    epochs: int = 10
    batch_pairs: int = 8
    neg_strategy: str = "seg-unit"
    neg_count: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr < 0:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_pairs < 1 or self.neg_count < 1:
            raise ValueError("batch_pairs and neg_count must be >= 1")
        check_strategy(self.neg_strategy)


@dataclass
class TrainReport:
    loss_curve: list[float]
    final_model: ProjectionModel
    skipped_pairs: int


def _rows_backward(g: np.ndarray, sims: np.ndarray, other_hat: np.ndarray, own_hat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backprop d(loss)/d(sims), sims = own_hat @ other_hat.T, to the raw rows of norms
    ``norms``; zero-norm rows get zero gradient (their similarity is pinned to 0)."""
    d = g @ other_hat
    d -= np.einsum("ij,ij->i", g, sims)[:, None] * own_hat
    d /= np.where(norms > 0.0, norms, 1.0)[:, None]
    d[norms == 0.0] = 0.0
    return d


def cosine_backward(u: np.ndarray, v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop d(loss)/d(sim matrix) through cos(u_i, v_j) to the raw rows of
    both sides, including the normalization Jacobian.

    Training calls :func:`_rows_backward` directly.  This stays only as the
    attribute perfbench's train.backward layer hooks and as the tests'
    per-item reference, until the benchmark drops that hook."""
    u_hat, nu = unit_normalize(u)
    v_hat, nv = unit_normalize(v)
    sims = u_hat @ v_hat.T
    return _rows_backward(g, sims, v_hat, u_hat, nu), _rows_backward(g.T, sims.T, u_hat, v_hat, nv)


def evaluate_batch(batch_indices, corpus, model: ProjectionModel, cfg: TrainConfig, rng: np.random.Generator,
                   pool: PairPool):
    """Loss and mean parameter gradients over one batch.

    ``corpus`` is a list of canonical, background-free SegmentedPair, as
    :func:`fit` builds them (a labeled video as its two-view pair).  Items
    draw negatives in batch order under ``cfg.neg_strategy`` (none:
    skipped).  One forward per head gives one similarity matrix, every used
    item's anchor rows against each source the batch reads (once, in order
    of first read); every candidate and each item's unit term read it, and
    their gradient, in its shape, goes back through one
    :func:`_rows_backward` per side.  Returns (joint_loss, grads, n_used, paths): grads averaged over
    the used items, and every candidate's optimal path as
    :class:`align.Alignments` (None when no item was used), so a gradient
    check can pin the negatives (by reseeding ``rng``) and detect when a
    perturbation moved a path.  ``pool`` is the corpus's :class:`PairPool`:
    the negative drawer samples from it, and the step finds each source it
    reads at the pool's position of its id, so a step's cost does not grow
    with the corpus.
    """
    items, drawn = [], []
    for idx in batch_indices:
        item = corpus[idx]
        negs = generate_negatives(item, pool, cfg.neg_strategy, cfg.neg_count, rng)
        if len(negs):
            items.append(item)
            drawn.append(negs)
    grads = model.zero_grads()
    if not items:
        return None, grads, 0, None

    sources = list(dict.fromkeys(src for item, negs in zip(items, drawn) for src in (item.id, *negs.sources)))
    units_of = {src: corpus[pool.positions[src]].positive.units for src in sources}
    spans = column_spans(sources, [len(units_of[src]) for src in sources])
    anchors = [item.anchor.units for item in items]
    rows = list(column_spans(range(len(items)), [len(a) for a in anchors]).values())
    y_a, fwd_a = model.anchor_head.forward(np.concatenate(anchors))
    y_s, fwd_s = model._clip().forward(np.concatenate([units_of[src] for src in sources]))
    if not (np.all(np.isfinite(y_a)) and np.all(np.isfinite(y_s))):
        raise DataError("similarity: non-finite input")
    u_hat, nu = unit_normalize(y_a)
    # the sources' projections, the batch's largest array, are normalized in place
    v_hat, nv = unit_normalize(y_s, out=y_s)
    sims = u_hat @ v_hat.T
    np.clip(sims, -1.0, 1.0, out=sims)
    seq = seq_grad_core(sims, rows, spans, [item.id for item in items], drawn, cfg.loss)

    unit_losses = []
    g = seq.grad
    g *= cfg.loss.w_seq
    for item, (lo, hi) in zip(items, rows):
        own = slice(*spans[item.id])
        unit_loss, unit_grad = unit_term_video_text(sims[lo:hi, own], item.segments.ranges(), cfg.loss.tau)
        unit_losses.append(unit_loss)
        g[lo:hi, own] += cfg.loss.w_unit * unit_grad
    d_ya = _rows_backward(g, sims, v_hat, u_hat, nu)
    d_ys = _rows_backward(g.T, sims.T, u_hat, v_hat, nv)
    model.anchor_head.backward(fwd_a, d_ya, grads, "anchor.")
    model._clip().backward(fwd_s, d_ys, grads, "clip." if model.twin else "anchor.")
    for name in grads:
        grads[name] /= len(items)
    return joint_loss(unit_losses, seq.losses, cfg.loss), grads, len(items), seq.paths


def fit(corpus, model: ProjectionModel, cfg: TrainConfig) -> TrainReport:
    """Train the projection on caption/clip pairs, labeled videos, or both.

    Each item first becomes a canonical, background-free pair: a pair its
    :meth:`~core.SegmentedPair.covered_view`, a video its
    :meth:`~core.LabeledVideo.two_view` (anchor frames ``0::2`` against all
    frames; a one-frame video draws no negatives and is skipped).  Pairs are
    shuffled each epoch with the seeded generator, negatives are drawn per
    pair according to ``cfg.neg_strategy``, and one Adam step is taken per
    batch on the joint objective.  Deterministic given the config.  Raises
    NumericalError, naming the epoch and batch, at the first step that
    overflows or produces a non-finite value.
    """
    if not corpus:
        raise DataError("fit: empty corpus")
    corpus = [item.two_view() if isinstance(item, LabeledVideo) else item.covered_view() for item in corpus]
    dims = {p.anchor.dim for p in corpus}
    if dims != {model.in_dim}:
        raise DataError(f"fit: corpus dims {sorted(dims)} do not match model input dim {model.in_dim}")
    pool = PairPool.of(corpus)  # batches key their sources by id, which it keeps unique

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
                    loss, grads, used, _ = evaluate_batch(batch, corpus, model, cfg, rng, pool)
                    if used:
                        adam_step(params, grads, state, cfg.lr)
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
    """Write every parameter as float32: :func:`load_checkpoint` returns each
    weight rounded to float32, at most 2**-24 from it relative to its size."""
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
