"""Trainable per-unit projection head, optimized with Adam on the joint loss.

The projection is applied independently to every unit embedding before
alignment: one affine layer, or two with a ReLU hidden layer between them.
Training has one mode: a labeled video trains as its two-view pair
(``LabeledVideo.two_view``), a caption/clip pair as loaded, and a batch is
one step (``evaluate_batch``) over one similarity matrix, the batch's
anchor rows against its sources' covered clips: one forward and one
backward per head, one alignment call, one unit-term call and one gradient
scatter.
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


@dataclass
class AffineHead:
    """y = relu(x @ w_in + b_in) @ w_out + b_out, or x @ w_out + b_out
    without ``w_in``."""

    w_out: np.ndarray
    b_out: np.ndarray
    w_in: np.ndarray | None = None
    b_in: np.ndarray | None = None

    def __post_init__(self):
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

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if self.w_in is None:
            return x @ self.w_out + self.b_out, (x, None)
        pre = x @ self.w_in + self.b_in
        hidden = np.maximum(pre, 0.0)
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
        d_hidden = d_out @ self.w_out.T * (pre > 0.0)
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
    def mlp(cls, d_in: int, d_hidden: int, d_out: int, seed: int = 0, twin: bool = False) -> "ProjectionModel":
        rng = np.random.default_rng(seed)

        def head():
            return AffineHead(
                w_in=rng.normal(scale=1.0 / np.sqrt(d_in), size=(d_in, d_hidden)),
                b_in=np.zeros(d_hidden),
                w_out=rng.normal(scale=1.0 / np.sqrt(d_hidden), size=(d_hidden, d_out)),
                b_out=np.zeros(d_out),
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
        return self.anchor_head.forward(units)[0]

    def transform_clips(self, units: np.ndarray) -> np.ndarray:
        return self._clip().forward(units)[0]

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

    ``corpus`` is a list of SegmentedPair, as :func:`fit` builds them (a
    labeled video as its two-view pair).  Items draw negatives in batch
    order under ``cfg.neg_strategy`` (none: skipped).  One forward per head
    gives one similarity matrix, every used item's anchor rows against the
    covered clips of each source the batch reads (once, in order of first
    read; background clips never enter it); every candidate and one
    batch-wide unit-term call read it, and their gradient, in its shape,
    goes back through one :func:`_rows_backward` per side.  Returns
    (joint_loss, grads, n_used, paths): grads averaged over the used items,
    and every candidate's optimal path as :class:`align.Alignments` (None
    when no item was used), so a gradient check can pin the negatives (by
    reseeding ``rng``) and detect when a perturbation moved a path.
    ``pool`` is the corpus's :class:`PairPool`: the negative drawer samples
    from it, and the step finds each source it reads, and that source's
    covered clip rows, at the pool's position of its id, so a step's cost
    does not grow with the corpus.
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
    at = [pool.positions[src] for src in sources]
    spans = column_spans(sources, pool.sizes[at])
    clips = []  # each source's covered clips, gathered only when it has background clips
    for k in at:
        units, covered = corpus[k].positive.units, pool.covered[k]
        clips.append(units if covered is None else units.take(covered, axis=0))
    anchors = [item.anchor.units for item in items]
    rows = list(column_spans(range(len(items)), [len(a) for a in anchors]).values())
    y_a, fwd_a = model.anchor_head.forward(np.concatenate(anchors))
    y_s, fwd_s = model._clip().forward(np.concatenate(clips))
    if not (np.all(np.isfinite(y_a)) and np.all(np.isfinite(y_s))):
        raise DataError("similarity: non-finite input")
    u_hat, nu = unit_normalize(y_a)
    # the sources' projections, the batch's largest array, are normalized in place
    v_hat, nv = unit_normalize(y_s, out=y_s)
    sims = u_hat @ v_hat.T
    np.clip(sims, -1.0, 1.0, out=sims)
    seq = seq_grad_core(sims, rows, spans, [item.id for item in items], drawn, cfg.loss)

    g = seq.grad
    g *= cfg.loss.w_seq
    unit_losses = unit_term_video_text(sims, rows, [spans[item.id] for item in items],
                                       [item.covered_spans() for item in items], cfg.loss.tau, g, cfg.loss.w_unit)
    d_ya = _rows_backward(g, sims, v_hat, u_hat, nu)
    d_ys = _rows_backward(g.T, sims.T, u_hat, v_hat, nv)
    model.anchor_head.backward(fwd_a, d_ya, grads, "anchor.")
    model._clip().backward(fwd_s, d_ys, grads, "clip." if model.twin else "anchor.")
    for name in grads:
        grads[name] /= len(items)
    return joint_loss(unit_losses, seq.losses, cfg.loss), grads, len(items), seq.paths


def check_input_dim(model: ProjectionModel, dims, data: str, source: str = "model") -> None:
    """DataError unless ``dims``, the dims of the data that ``data`` names, are
    all ``model``'s input dim; ``source`` names the model."""
    if set(dims) != {model.in_dim}:
        raise DataError(f"{data} dims {sorted(dims)} do not match {source} input dim {model.in_dim}")


def fit(corpus, model: ProjectionModel, cfg: TrainConfig) -> TrainReport:
    """Train the projection on caption/clip pairs, labeled videos, or both.

    A pair trains as it is, its background clips left out of every batch
    and nothing of its clips copied; a video trains as its
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
    corpus = [item.two_view() if isinstance(item, LabeledVideo) else item for item in corpus]
    check_input_dim(model, {p.anchor.dim for p in corpus}, "fit: corpus")
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


def _activation(blocks) -> str:
    """A checkpoint's ``activation`` field: "relu" when a head has a hidden layer."""
    return "relu" if "anchor.w_in" in blocks or "clip.w_in" in blocks else "identity"


def save_checkpoint(model: ProjectionModel, path, *, seed: int = 0) -> None:
    """Write every parameter as float32: :func:`load_checkpoint` returns each
    weight rounded to float32, at most 2**-24 from it relative to its size.

    Raises DataError, before the file is opened, for twin heads whose blocks
    differ in shape: the checkpoint's ``dims`` and ``hidden`` describe one."""
    params = model.params()
    anchor, clip = ([p.shape for _, p in head.param_items("")] for head in (model.anchor_head, model._clip()))
    if anchor != clip:
        raise DataError(f"save_checkpoint: twin heads whose blocks differ in shape, {anchor} and {clip}")
    meta = {
        "version": _CKPT_VERSION,
        "activation": _activation(params),
        "twin": model.twin,
        "dims": {"in": model.in_dim, "out": model.anchor_head.out_dim},
        "hidden": None if model.anchor_head.w_in is None else int(model.anchor_head.w_in.shape[1]),
        "seed": seed,
        "blocks": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    write_float32_container(path, _CKPT_MAGIC, "<II", (_CKPT_VERSION,), meta, list(params.values()))


def _head(path, blocks: dict, prefix: str) -> AffineHead:
    """Head ``prefix`` of a checkpoint; DataError, naming the block, unless
    ``w_in`` -> ``b_in`` -> ``w_out`` -> ``b_out`` chain (the first two both
    or neither): each weight a matrix taking the width before it, each bias
    a vector of the width before it."""
    names = ("w_in", "b_in", "w_out", "b_out")[0 if prefix + "w_in" in blocks or prefix + "b_in" in blocks else 2 :]
    width = None  # the width the next block takes, None for any
    for name in names:
        block = blocks.get(prefix + name)
        want = ["m" if width is None else str(width), "n"][: 2 if name[0] == "w" else 1]
        if block is None or block.ndim != len(want) or width is not None and block.shape[0] != width:
            has = "is missing" if block is None else f"has shape {list(block.shape)}"
            raise DataError(f"checkpoint {path}: block {prefix}{name} {has}, expected [{', '.join(want)}]")
        width = block.shape[-1]
    return AffineHead(*(blocks.get(prefix + name) for name in ("w_out", "b_out", "w_in", "b_in")))


def load_checkpoint(path) -> ProjectionModel:
    """The model a checkpoint holds.  DataError, naming the file, unless it
    holds each block it reads once and nothing else, each head's blocks
    chain (see :func:`_head`), and its ``activation``, ``dims`` and
    ``hidden`` are the ones each head's blocks imply (a head with a hidden
    layer applies ReLU)."""
    (version,), meta, arrays = read_float32_container(path, _CKPT_MAGIC, "<II", "blocks")
    if version != _CKPT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported version {version}")

    try:
        names = [block["name"] for block in meta["blocks"]]
        prefixes = ("anchor.", "clip.") if meta["twin"] else ("anchor.",)
        reads = [p + k for p in prefixes for k in ("w_in", "b_in", "w_out", "b_out")]
        for k, name in enumerate(names):
            if name not in reads or name in names[:k]:
                raise DataError(f"checkpoint {path}: block {name!r} is not one it reads once ({', '.join(reads)})")
        blocks = dict(zip(names, arrays))
        if meta["activation"] != _activation(blocks):
            raise DataError(f"checkpoint {path}: activation {meta['activation']!r} does not match its blocks")
        heads = [_head(path, blocks, p) for p in prefixes]
        for p, head in zip(prefixes, heads):  # so twin heads map one dim to one dim
            hidden = None if head.w_in is None else head.w_in.shape[1]
            if meta["dims"] != {"in": head.in_dim, "out": head.out_dim} or meta["hidden"] != hidden:
                raise DataError(f"checkpoint {path}: dims {meta['dims']} and hidden {meta['hidden']} do not match head "
                                f"{p[:-1]}'s blocks (in {head.in_dim}, hidden {hidden}, out {head.out_dim})")
        return ProjectionModel(*heads)
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path}: malformed metadata: {exc!r}") from exc
