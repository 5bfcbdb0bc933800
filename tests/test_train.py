import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import covered_view, infonce_with_grad, make_pair, split_perms
from tempalign import align
from tempalign import train as train_module
from tempalign.align import STACK_CELLS
from tempalign.core import DataError, EmbeddingSequence, LabeledVideo, NumericalError, similarity_matrix
from tempalign.loss import LossConfig, joint_loss, unit_term_video_text
from tempalign.negatives import STRATEGIES, PairPool, generate_negatives
from tempalign.synth import SynthConfig, gen_corpus
from tempalign.train import (
    AdamState,
    AffineHead,
    ProjectionModel,
    TrainConfig,
    adam_step,
    cosine_backward,
    evaluate_batch,
    fit,
    load_checkpoint,
    save_checkpoint,
)


def small_corpus(seed=0, n_tasks=6):
    cfg = SynthConfig(
        n_tasks=n_tasks,
        videos_per_task=5,
        segments_per_video=3,
        clips_per_segment=(2, 3),
        dim=24,
        proto_subspace_dim=6,
        caption_noise=0.08,
        clip_noise=0.06,
        confuser_prob=0.3,
        background_per_video=(0, 1),
        progress_drift=0.1,
        seed=seed,
    )
    return gen_corpus(cfg)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude(self, rng):
        g = rng.normal(size=5)
        params = {"w": np.zeros(5)}
        state = AdamState.init(params)
        adam_step(params, {"w": g}, state, lr=0.05)
        np.testing.assert_allclose(params["w"], -0.05 * np.sign(g), atol=1e-7)

    def test_three_steps_constant_gradient(self):
        # Hand-iterating the recurrence with g = 1: bias correction makes
        # m_hat = v_hat = 1 every step, so each step moves by -lr/(1 + eps).
        params = {"w": np.array([0.0])}
        state = AdamState.init(params)
        expected = 0.0
        for t in range(1, 4):
            m = 1.0 - 0.9**t
            v = 1.0 - 0.98**t
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.98**t)
            expected -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
            adam_step(params, {"w": np.array([1.0])}, state, lr=0.1)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert params["w"][0] == pytest.approx(-0.3, abs=1e-6)

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = AdamState.init(params)
        with pytest.raises(DataError):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)


class TestProjectionModel:
    def test_identity_passthrough(self, rng):
        x = rng.normal(size=(4, 6))
        model = ProjectionModel.identity(6)
        np.testing.assert_allclose(model.transform_anchor(x), x)
        np.testing.assert_allclose(model.transform_clips(x), x)

    def test_mlp_shapes_and_activation(self, rng):
        model = ProjectionModel.mlp(6, 5, 4, seed=1)
        y = model.transform_anchor(rng.normal(size=(3, 6)))
        assert y.shape == (3, 4)

    def test_twin_heads_independent(self, rng):
        model = ProjectionModel.mlp(6, 5, 6, seed=1, twin=True)
        x = rng.normal(size=(2, 6))
        assert not np.allclose(model.transform_anchor(x), model.transform_clips(x))
        assert set(model.params()) == {
            "anchor.w_out", "anchor.b_out", "anchor.w_in", "anchor.b_in",
            "clip.w_out", "clip.b_out", "clip.w_in", "clip.b_in",
        }

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        model = ProjectionModel.mlp(6, 5, 4, seed=3, twin=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, seed=11)
        loaded = load_checkpoint(path)
        x = rng.normal(size=(3, 6))
        # parameters round through float32
        np.testing.assert_allclose(loaded.transform_anchor(x), model.transform_anchor(x), atol=1e-5)
        np.testing.assert_allclose(loaded.transform_clips(x), model.transform_clips(x), atol=1e-5)

    def test_checkpoint_holds_float32_weights(self, tmp_path):
        model = ProjectionModel.mlp(6, 5, 4, seed=3, twin=True)
        save_checkpoint(model, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt").params()
        for name, w in model.params().items():
            assert np.array_equal(loaded[name], w.astype(np.float32))
            assert np.all(np.abs(loaded[name] - w) <= 2.0**-24 * np.abs(w))

    def test_checkpoint_bytes_identical_for_same_model(self, tmp_path):
        model = ProjectionModel.identity(4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model.copy(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("model", ["identity", "mlp", "twin-mlp"])
    def test_checkpoint_reloads_and_resaves_bit_identically(self, tmp_path, model):
        head = ProjectionModel.identity(3) if model == "identity" else ProjectionModel.mlp(3, 4, 2, seed=1, twin=model == "twin-mlp")
        path = tmp_path / "model.ckpt"
        save_checkpoint(head, path)
        loaded = load_checkpoint(path)
        assert loaded.twin == head.twin and list(loaded.params()) == list(head.params())
        for name, block in head.params().items():
            assert np.array_equal(loaded.params()[name], block.astype(np.float32))
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_twin_heads_of_different_shapes_are_not_written(self, tmp_path):
        def head(hidden):
            if hidden is None:
                return AffineHead(w_out=np.eye(3), b_out=np.zeros(3))
            return AffineHead(w_in=np.ones((3, hidden)), b_in=np.zeros(hidden), w_out=np.ones((hidden, 3)), b_out=np.zeros(3))

        path = tmp_path / "model.ckpt"
        for anchor, clip in ((4, 5), (None, 4), (4, None)):
            with pytest.raises(DataError, match="^save_checkpoint: twin heads whose blocks differ in shape"):
                save_checkpoint(ProjectionModel(head(anchor), head(clip)), path)
            assert not path.exists()

    def test_weights_outside_float32_range_are_not_written(self, tmp_path):
        model = ProjectionModel.identity(4)
        path = tmp_path / "model.ckpt"
        for value in (4e38, -np.inf, np.nan):
            model.params()["anchor.b_out"][2] = value
            with pytest.raises(NumericalError, match="float32 range"):
                save_checkpoint(model, path)
            assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1.0])
    def test_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)

    def test_underscore_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'seg_unit'"):
            TrainConfig(neg_strategy="seg_unit")


class TestCosineBackward:
    def test_matches_finite_differences(self, rng):
        u = rng.normal(size=(3, 4))
        v = rng.normal(size=(5, 4))
        g = rng.normal(size=(3, 5))

        def sims_loss(u_, v_):
            from tempalign.core import unit_normalize

            uh, _ = unit_normalize(u_)
            vh, _ = unit_normalize(v_)
            return float((g * (uh @ vh.T)).sum())

        du, dv = cosine_backward(u, v, g)
        h = 1e-6
        for _ in range(8):
            r, c = int(rng.integers(3)), int(rng.integers(4))
            up = u.copy(); up[r, c] += h
            dn = u.copy(); dn[r, c] -= h
            numeric = (sims_loss(up, v) - sims_loss(dn, v)) / (2 * h)
            assert du[r, c] == pytest.approx(numeric, rel=1e-5, abs=1e-7)
            r2, c2 = int(rng.integers(5)), int(rng.integers(4))
            vp = v.copy(); vp[r2, c2] += h
            vn = v.copy(); vn[r2, c2] -= h
            numeric_v = (sims_loss(u, vp) - sims_loss(u, vn)) / (2 * h)
            assert dv[r2, c2] == pytest.approx(numeric_v, rel=1e-5, abs=1e-7)

    def test_zero_norm_rows_get_zero_gradient(self):
        u = np.array([[0.0, 0.0], [1.0, 0.0]])
        v = np.array([[0.0, 1.0]])
        du, dv = cosine_backward(u, v, np.ones((2, 1)))
        np.testing.assert_array_equal(du[0], 0.0)


class TestFit:
    def test_zero_lr_keeps_parameters(self):
        train, _, _ = small_corpus()
        model = ProjectionModel.identity(24)
        cfg = TrainConfig(lr=0.0, epochs=2, neg_count=4, seed=0)
        report = fit(train[:6], model, cfg)
        for name, value in report.final_model.params().items():
            np.testing.assert_array_equal(value, model.params()[name])

    def test_single_pair_single_epoch(self):
        train, _, _ = small_corpus()
        cfg = TrainConfig(epochs=1, neg_count=2, seed=0)
        report = fit(train[:1], ProjectionModel.identity(24), cfg)
        assert len(report.loss_curve) == 1
        assert np.isfinite(report.loss_curve[0])

    def test_bitwise_reproducibility(self):
        train, _, _ = small_corpus()
        cfg = TrainConfig(epochs=3, neg_count=4, batch_pairs=4, lr=0.01, seed=5)
        r1 = fit(train[:8], ProjectionModel.identity(24), cfg)
        r2 = fit(train[:8], ProjectionModel.identity(24), cfg)
        assert r1.loss_curve == r2.loss_curve
        for name, value in r1.final_model.params().items():
            np.testing.assert_array_equal(value, r2.final_model.params()[name])

    def test_loss_trend_downward(self):
        train, _, _ = small_corpus()
        cfg = TrainConfig(epochs=20, neg_count=8, batch_pairs=8, lr=0.01, seed=0)
        report = fit(train, ProjectionModel.identity(24), cfg)
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_divergence_is_a_numerical_error_at_its_step(self):
        # The first step moves every weight by about lr; the next projection overflows.
        train, _, _ = small_corpus()
        cfg = TrainConfig(lr=1e308, epochs=2, neg_count=2, batch_pairs=4, seed=0)
        with pytest.raises(NumericalError, match=r"^fit: epoch 1, batch 2: overflow"):
            fit(train[:8], ProjectionModel.identity(24), cfg)

    def test_all_degenerate_corpus_rejected(self):
        # single-caption single-clip pairs cannot produce shuffle negatives
        pairs = [
            make_pair([np.eye(4)[0]], [np.eye(4)[1]], [(0, 1)], pid=f"d{i}")
            for i in range(3)
        ]
        with pytest.raises(DataError, match="no trainable pairs"):
            fit(pairs, ProjectionModel.identity(4), TrainConfig(epochs=1, neg_count=4, neg_strategy="seg-unit"))

    def test_model_of_another_dim_is_a_data_error(self):
        train, _, _ = small_corpus()
        cfg = TrainConfig(epochs=1, neg_count=2, seed=0)
        fit(train[:2], ProjectionModel.identity(24), cfg)
        with pytest.raises(DataError, match=r"^fit: corpus dims \[24\] do not match model input dim 16$"):
            fit(train[:2], ProjectionModel.identity(16), cfg)
        with pytest.raises(DataError, match=r"^fit: corpus dims \[16, 24\] do not match model input dim 24$"):
            fit([*train[:2], *base_videos()[:1]], ProjectionModel.identity(24), cfg)

    def test_seg_unit_decreases_loss_at_least_as_much_as_unpaired(self):
        train, _, _ = small_corpus()
        base = dict(epochs=5, neg_count=8, batch_pairs=8, lr=0.01, seed=0)
        r_seg = fit(train, ProjectionModel.identity(24), TrainConfig(neg_strategy="seg-unit", **base))
        r_unp = fit(train, ProjectionModel.identity(24), TrainConfig(neg_strategy="unpaired", **base))
        seg_drop = r_seg.loss_curve[0] - r_seg.loss_curve[-1]
        unp_drop = r_unp.loss_curve[0] - r_unp.loss_curve[-1]
        assert seg_drop >= unp_drop

    def test_repeated_ids_are_a_data_error(self):
        # batches key their sources by id, so an id may name one item only
        train, _, _ = gen_corpus(SynthConfig(n_tasks=3, seed=1))
        first, second = train[0], train[1]
        relabelled = [first, dataclasses.replace(second, id=first.id), *train[2:]]
        cfg = TrainConfig(epochs=1, neg_count=4, neg_strategy="joint", seed=0)
        fit(train, ProjectionModel.identity(first.anchor.dim), cfg)
        with pytest.raises(DataError, match=f"id {first.id!r} is taken by an earlier item"):
            fit(relabelled, ProjectionModel.identity(first.anchor.dim), cfg)
        videos = base_videos()
        with pytest.raises(DataError, match="is taken by an earlier item"):
            fit([*videos, videos[0]], ProjectionModel.identity(16), cfg)

    def test_video_only_mode_runs(self):
        from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus

        videos, meta = gen_fewshot_corpus(FewshotSynthConfig(n_classes=4, videos_per_class=4, dim=16, seed=2))
        base = [v for v in videos if v.label in meta["base_labels"]]
        cfg = TrainConfig(epochs=2, neg_count=4, batch_pairs=4, lr=0.01, seed=0)
        report = fit(base, ProjectionModel.identity(16), cfg)
        assert len(report.loss_curve) == 2
        assert all(np.isfinite(x) for x in report.loss_curve)


def video_text_views():
    train, _, _ = small_corpus()
    return [covered_view(p) for p in train[:4]]


def base_videos():
    from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus

    videos, meta = gen_fewshot_corpus(FewshotSynthConfig(n_classes=4, videos_per_class=4, dim=16, seed=2))
    return [v for v in videos if v.label in meta["base_labels"]]


# frames kept of each base video: 1 to 12, odd and even, the one-frame video last
RAGGED_LENGTHS = (2, 7, 12, 5, 10, 3, 8, 1)


def ragged_two_view_pairs():
    """The base videos cut to RAGGED_LENGTHS frames, as fit trains them."""
    return [
        LabeledVideo(v.id, v.label, EmbeddingSequence(v.id, v.frames.units[:n])).two_view()
        for v, n in zip(base_videos(), RAGGED_LENGTHS, strict=True)
    ]


# corpus, model, negative strategy, checked parameters, draws per parameter
GRADIENT_CASES = {
    "video-text-linear-seg-unit": (video_text_views, lambda: ProjectionModel.identity(24), "seg-unit", ["anchor.w_out"], 12),
    "video-text-twin-mlp-joint": (
        video_text_views, lambda: ProjectionModel.mlp(24, 16, 24, twin=True), "joint",
        ["anchor.w_in", "anchor.b_out", "clip.w_in", "clip.w_out"], 12,
    ),
    "video-only-linear": (ragged_two_view_pairs, lambda: ProjectionModel.identity(16), "seg-unit", ["anchor.w_out"], 24),
}


class TestEndToEndGradient:
    def test_parameter_gradients_match_finite_differences(self):
        self.check_against_finite_differences("video-text-linear-seg-unit")

    @pytest.mark.parametrize("case", ["video-text-twin-mlp-joint", "video-only-linear"])
    def test_other_sources_and_video_only_match_finite_differences(self, case):
        self.check_against_finite_differences(case)

    @staticmethod
    def check_against_finite_differences(case):
        make_corpus, make_model, strategy, names, draws = GRADIENT_CASES[case]
        corpus = make_corpus()
        cfg = TrainConfig(neg_count=3, neg_strategy=strategy, lr=0.01, seed=0, loss=LossConfig(tau=0.8))
        rng = np.random.default_rng(9)
        model = make_model()
        # move off the exact identity so the configuration is generic
        params = model.params()
        params["anchor.w_out"] += 0.01 * rng.normal(size=params["anchor.w_out"].shape)

        def run(m):
            return evaluate_batch([0, 1, 2], corpus, m, cfg, np.random.default_rng(77), PairPool.of(corpus))

        base_loss, grads, used, base_paths = run(model)
        assert used == 3
        h = 1e-6
        checked = 0
        for name in names:
            for _ in range(draws):
                at = tuple(int(rng.integers(d)) for d in params[name].shape)

                def loss_at(eps):
                    m = model.copy()
                    m.params()[name][at] += eps
                    loss, _, _, paths = run(m)
                    return loss, paths

                up, paths_up = loss_at(h)
                down, paths_dn = loss_at(-h)
                if not (np.array_equal(paths_up.walk, base_paths.walk) and np.array_equal(paths_dn.walk, base_paths.walk)):
                    continue
                numeric = (up - down) / (2 * h)
                analytic = grads[name][at]
                denom = max(abs(numeric), abs(analytic))
                if denom < 1e-9:
                    continue
                assert abs(numeric - analytic) / denom < 1e-3
                checked += 1
        assert checked >= 6


# ---------------------------------------------------------------------------
# The batch-wide step against a per-item reference: every item projected,
# aligned candidate by candidate (single-matrix align_stack calls), scored
# with infonce_with_grad and backpropagated through cosine_backward on its
# own.  Both draw the same negatives from the same generator.
# ---------------------------------------------------------------------------


def reference_unit_term(sims, item, tau):
    terms = []
    for i, (lo, hi) in enumerate(item.segments):
        out = np.r_[0:lo, hi : sims.shape[1]]
        terms += [(i, q, out) for q in range(lo, hi)]
    grad = np.zeros_like(sims)
    losses = []
    for i, q, out in terms:
        loss, dpos, dnegs = infonce_with_grad(sims[i, q], sims[i, out], tau)
        losses.append(loss)
        grad[i, q] += dpos / len(terms)
        grad[i, out] += dnegs / len(terms)
    return float(np.mean(losses)), grad


def reference_item(item, negs, units_of, model, cfg, grads):
    lc = cfg.loss
    anchor = item.anchor.units
    y_a, fwd_a = model.anchor_head.forward(anchor)
    projected = {src: model._clip().forward(units_of[src]) for src in dict.fromkeys((item.id, *negs.sources))}
    sims = {src: similarity_matrix(y_a, y) for src, (y, _) in projected.items()}
    all_rows, all_cols = np.arange(len(anchor)), np.arange(sims[item.id].shape[1])
    specs = [(item.id, all_rows, all_cols)]
    for src, perm in zip(negs.sources, split_perms(negs)):
        specs.append((item.id, perm, all_cols) if negs.permutes_anchor else (src, all_rows, perm))
    found = [align.align_stack((1.0 - sims[src][np.ix_(rows, cols)])[None], lc.measure) for src, rows, cols in specs]
    scores = np.array([f.scores(lc.normalize_score)[0] for f in found])
    seq_loss, dpos, dnegs = infonce_with_grad(scores[0], scores[1:], lc.tau)
    dscore = np.r_[dpos, dnegs]
    seq_grad = {src: np.zeros_like(s) for src, s in sims.items()}
    for (src, rows, cols), f, d in zip(specs, found, dscore):
        path = f.path(0)
        seq_grad[src][rows[path[:, 0]], cols[path[:, 1]]] += d / f.lengths[0] if lc.normalize_score else d
    unit_loss, unit_grad = reference_unit_term(sims[item.id], item, lc.tau)
    d_ya = np.zeros_like(y_a)
    clip_prefix = "clip." if model.twin else "anchor."
    for src, (y, fwd) in projected.items():
        g = lc.w_seq * seq_grad[src] + (lc.w_unit * unit_grad if src == item.id else 0.0)
        du, dv = cosine_backward(y_a, y, g)
        d_ya += du
        model._clip().backward(fwd, dv, grads, clip_prefix)
    model.anchor_head.backward(fwd_a, d_ya, grads, "anchor.")
    return unit_loss, seq_loss


def reference_batch(batch, corpus, model, cfg, rng):
    units_of = {it.id: it.positive.units for it in corpus}
    grads = model.zero_grads()
    unit_losses, seq_losses = [], []
    for idx in batch:
        item = corpus[idx]
        negs = generate_negatives(item, PairPool.of(corpus), cfg.neg_strategy, cfg.neg_count, rng)
        if len(negs):
            unit_loss, seq_loss = reference_item(item, negs, units_of, model, cfg, grads)
            unit_losses.append(unit_loss)
            seq_losses.append(seq_loss)
    for name in grads:
        grads[name] /= len(seq_losses)
    return joint_loss(unit_losses, seq_losses, cfg.loss), grads, len(seq_losses)


def degenerate_pair(pid):
    # one caption over one clip: no shuffle strategy can draw from it
    return make_pair([np.eye(24)[0]], [np.eye(24)[1]], [(0, 1)], pid=pid)


def assert_matches_reference(corpus, batch, model, cfg):
    loss, grads, used, _ = evaluate_batch(batch, corpus, model, cfg, np.random.default_rng(5), PairPool.of(corpus))
    ref_loss, ref_grads, ref_used = reference_batch(batch, corpus, model, cfg, np.random.default_rng(5))
    assert used == ref_used
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    assert set(grads) == set(ref_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


HEADS = {
    "identity": lambda dim: ProjectionModel.identity(dim),
    "twin-mlp": lambda dim: ProjectionModel.mlp(dim, 16, dim, seed=4, twin=True),
}


class TestBatchStepMatchesPerItemReference:
    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_video_text(self, strategy, measure, head):
        corpus = [covered_view(p) for p in small_corpus()[0][:7]]
        cfg = TrainConfig(neg_strategy=strategy, neg_count=6, loss=LossConfig(tau=0.7, measure=measure))
        assert_matches_reference(corpus, [0, 5, 2, 6, 1], HEADS[head](24), cfg)

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    def test_video_only(self, measure, head):
        # the one-frame video's pair (index 7) draws no negatives and is skipped
        cfg = TrainConfig(neg_count=7, loss=LossConfig(tau=0.9, measure=measure, normalize_score=measure == "dtw"))
        assert_matches_reference(ragged_two_view_pairs(), [3, 0, 7, 1], HEADS[head](16), cfg)

    def test_ragged_video_only_batch(self):
        # joint: the one-frame video still serves the others as an unpaired negative
        cfg = TrainConfig(neg_strategy="joint", neg_count=9, loss=LossConfig(measure="otam"))
        assert_matches_reference(ragged_two_view_pairs(), [2, 5, 0, 7, 3], ProjectionModel.identity(16), cfg)

    def test_batch_with_skipped_degenerate_item(self):
        corpus = video_text_views() + [degenerate_pair("d0")]
        cfg = TrainConfig(neg_strategy="seg-unit", neg_count=5)
        pool = PairPool.of(corpus)
        loss, _, used, paths = evaluate_batch([4, 0, 1], corpus, ProjectionModel.identity(24), cfg, np.random.default_rng(5), pool)
        assert used == 2 and paths.lengths.size == 2 * (5 + 1)
        assert evaluate_batch([4], corpus, ProjectionModel.identity(24), cfg, np.random.default_rng(5), pool)[2:] == (0, None)
        assert_matches_reference(corpus, [4, 0, 1], ProjectionModel.identity(24), cfg)

    def test_step_reads_sources_through_the_pool(self):
        # a step costs nothing in the corpus's size: it never walks the corpus
        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("the step walked the corpus")

        corpus = video_text_views()
        cfg = TrainConfig(neg_strategy="joint", neg_count=5)
        pool = PairPool.of(corpus)
        model = ProjectionModel.identity(24)
        loss, grads, used, _ = evaluate_batch([2, 0], Unwalkable(corpus), model, cfg, np.random.default_rng(5), pool)
        ref_loss, ref_grads, ref_used, _ = evaluate_batch([2, 0], corpus, model, cfg, np.random.default_rng(5), pool)
        assert used == ref_used == 2 and loss == ref_loss
        assert all(np.array_equal(grads[name], ref_grads[name]) for name in grads)

    def test_joint_on_degenerate_pair(self):
        # the degenerate pair keeps only its unpaired half: 3 candidates, others 6
        corpus = video_text_views() + [degenerate_pair("d0")]
        cfg = TrainConfig(neg_strategy="joint", neg_count=5)
        assert_matches_reference(corpus, [1, 4, 2], ProjectionModel.mlp(24, 16, 24, seed=4), cfg)

    def test_batch_past_stack_cap(self, monkeypatch, stack_calls):
        corpus = [covered_view(p) for p in small_corpus(n_tasks=3)[0]]
        cfg = TrainConfig(neg_strategy="joint", neg_count=40)
        monkeypatch.setattr(align, "STACK_CELLS", 4096)
        assert_matches_reference(corpus, list(range(10)), ProjectionModel.identity(24), cfg)
        # the batch spans several calls; the reference aligns one candidate per call
        assert len([shape for shape in stack_calls if shape[0] > 1]) > 1


class TestBackgroundPairs:
    """fit trains on the loaded pairs: a pair with background clips must
    train exactly like its covered view."""

    @staticmethod
    def mixed_corpus():
        corpus = small_corpus()[0][:7]
        # unpaired and joint read other pairs' covered rows, of both kinds
        assert 0 < sum(p.background_mask.any() for p in corpus) < len(corpus)
        return corpus, [covered_view(p) for p in corpus]

    @pytest.mark.parametrize("measure", ["dtw", "otam"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_step_matches_covered_views(self, strategy, measure):
        corpus, views = self.mixed_corpus()
        cfg = TrainConfig(neg_strategy=strategy, neg_count=6, loss=LossConfig(tau=0.7, measure=measure))
        model = HEADS["twin-mlp"](24)
        loss, grads, used, paths = evaluate_batch([0, 5, 2, 6, 1], corpus, model, cfg, np.random.default_rng(5),
                                                  PairPool.of(corpus))
        view_loss, view_grads, view_used, view_paths = evaluate_batch(
            [0, 5, 2, 6, 1], views, model, cfg, np.random.default_rng(5), PairPool.of(views))
        assert used == view_used == 5 and loss == view_loss
        assert all(np.array_equal(grads[name], view_grads[name]) for name in view_grads)
        np.testing.assert_array_equal(paths.walk, view_paths.walk)

    def test_fit_matches_covered_views(self):
        corpus, views = self.mixed_corpus()
        cfg = TrainConfig(epochs=2, neg_strategy="joint", neg_count=6, batch_pairs=3, lr=0.01, seed=4)
        report = fit(corpus, ProjectionModel.identity(24), cfg)
        view_report = fit(views, ProjectionModel.identity(24), cfg)
        assert report.loss_curve == view_report.loss_curve
        for name, value in report.final_model.params().items():
            np.testing.assert_array_equal(value, view_report.final_model.params()[name])


# A ragged batch for the unit term: caption counts 3, 1, 2, 4 and clip
# counts 6, 1, 2, 9, with one-clip segments; the one-caption item's only
# logit is its positive.
UNIT_SEGMENTS = (
    [(0, 2), (2, 3), (3, 6)],
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 3), (3, 4), (4, 5), (5, 9)],
)


class TestBatchUnitTerm:
    @pytest.mark.parametrize("tau", [0.07, 1.0])
    def test_matches_per_item_reference(self, tau, rng):
        items = [
            make_pair(rng.normal(size=(len(segments), 4)), rng.normal(size=(segments[-1][1], 4)), segments, pid=f"u{b}")
            for b, segments in enumerate(UNIT_SEGMENTS)
        ]
        rows = [(0, 3), (3, 4), (4, 6), (6, 10)]
        # each item's own columns, with other sources' columns between them
        cols = [(2, 8), (11, 12), (12, 14), (15, 24)]
        sims = rng.uniform(-1.0, 1.0, size=(10, 26))
        before = rng.normal(size=sims.shape)
        grad = before.copy()
        losses = unit_term_video_text(sims, rows, cols, [p.covered_spans() for p in items], tau, grad, 0.3)
        assert losses.shape == (4,)
        own = np.zeros(sims.shape, dtype=bool)
        for item, (r0, r1), (c0, c1), loss in zip(items, rows, cols, losses):
            ref_loss, ref_grad = reference_unit_term(sims[r0:r1, c0:c1], item, tau)
            assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
            np.testing.assert_allclose(grad[r0:r1, c0:c1] - before[r0:r1, c0:c1], 0.3 * ref_grad, rtol=0, atol=1e-12)
            own[r0:r1, c0:c1] = True
        assert losses[1] == 0.0 and grad[3, 11] == before[3, 11]
        # the gradient is exactly 0 outside each item's rows x own columns
        np.testing.assert_array_equal(grad[~own], before[~own])

    def test_one_call_per_used_step(self, monkeypatch):
        calls, steps = [], []
        term, step = train_module.unit_term_video_text, train_module.adam_step

        def counted_term(*args):
            calls.append(len(args[1]))  # the items of the call
            return term(*args)

        def counted_step(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(train_module, "unit_term_video_text", counted_term)
        monkeypatch.setattr(train_module, "adam_step", counted_step)
        corpus = video_text_views() + [degenerate_pair(f"d{i}") for i in range(4)]
        cfg = TrainConfig(epochs=3, neg_count=3, batch_pairs=2, seed=3)
        report = fit(corpus, ProjectionModel.identity(24), cfg)
        # 4 of the 12 batches hold degenerate pairs only: no step, no unit term
        assert len(calls) == len(steps) == 8
        assert sum(calls) == 3 * len(corpus) - report.skipped_pairs == 12


def test_fit_memory_follows_the_batch_not_the_corpus():
    # fit keeps no copy of the corpus's clips: 0.83 -> 0.86 MB over 40 ->
    # 160 pairs, where covered views of the pairs read 0.95 -> 1.59 MB
    def peak(n_tasks):
        train, _, _ = gen_corpus(SynthConfig(seed=3, n_tasks=n_tasks))
        tracemalloc.start()
        try:
            fit(train, ProjectionModel.identity(train[0].anchor.dim), TrainConfig(epochs=1, neg_count=4, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 1.25 * peak(10)


class TestBatchStepAlignmentCalls:
    @pytest.mark.parametrize("neg_count", [32, 60])
    def test_calls_per_batch(self, neg_count, stack_calls):
        train, _, _ = small_corpus()
        cfg = TrainConfig(epochs=1, neg_count=neg_count, batch_pairs=8, seed=0)
        fit(train, ProjectionModel.identity(24), cfg)
        batches = -(-len(train) // cfg.batch_pairs)
        cells = [int(np.prod(shape)) for shape in stack_calls]
        widest = max(n * m for _, n, m in stack_calls)
        # every call but a batch's last holds as many matrices as fit
        assert len(stack_calls) <= batches + sum(cells) // (STACK_CELLS - widest)
        assert max(cells) <= STACK_CELLS


def test_single_frame_video_does_not_decide_fit():
    # A single-frame video's two-view pair has no shuffle, so it is skipped
    # once per epoch, and fit succeeds whatever the seed.
    from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus

    videos, _ = gen_fewshot_corpus(FewshotSynthConfig(n_classes=2, videos_per_class=6, dim=16, seed=2))
    lone = videos[5]
    videos[5] = LabeledVideo(lone.id, lone.label, EmbeddingSequence(lone.id, lone.frames.units[:1]))
    for seed in range(20):
        report = fit(videos, ProjectionModel.identity(16), TrainConfig(epochs=1, neg_count=2, batch_pairs=4, seed=seed))
        assert report.skipped_pairs == 1
        assert np.isfinite(report.loss_curve[0])


def test_default_epoch_loss_is_pinned():
    # One default epoch on the benchmark's train-videotext corpus; guards the
    # negative stream and the step's arithmetic.
    train, _, _ = gen_corpus(SynthConfig(seed=101))
    report = fit(train, ProjectionModel.identity(train[0].anchor.dim), TrainConfig(epochs=1, seed=101))
    assert report.loss_curve[0] == pytest.approx(2.946306680294649, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "strategy, pinned",
    # joint reads other sources' columns; visual-anchor permutes anchor rows
    [("joint", 2.937961359902631), ("visual-anchor", 2.9831725533470204)],
)
def test_gather_path_epoch_loss_is_pinned(strategy, pinned):
    train, _, _ = gen_corpus(SynthConfig(seed=3, n_tasks=10))
    report = fit(train, ProjectionModel.identity(train[0].anchor.dim), TrainConfig(epochs=1, seed=3, neg_strategy=strategy))
    assert report.loss_curve[0] == pytest.approx(pinned, rel=0, abs=1e-12)


def test_default_epoch_draw_counts(monkeypatch):
    # The benchmark's negatives layer counts these calls and their draws.
    drawn = []

    def counted(*args):
        negs = generate_negatives(*args)
        drawn.append(len(negs))
        return negs

    monkeypatch.setattr(train_module, "generate_negatives", counted)
    train, _, _ = gen_corpus(SynthConfig(seed=101))
    fit(train, ProjectionModel.identity(train[0].anchor.dim), TrainConfig(epochs=1, seed=101))
    assert len(drawn) == 200 and sum(drawn) == 6400
