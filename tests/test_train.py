import numpy as np
import pytest

from conftest import make_pair
from tempalign.core import DataError
from tempalign.loss import LossConfig
from tempalign.synth import SynthConfig, gen_corpus
from tempalign.train import (
    AdamState,
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

    def test_checkpoint_bytes_identical_for_same_model(self, tmp_path):
        model = ProjectionModel.identity(4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model.copy(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)


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

    def test_all_degenerate_corpus_rejected(self):
        # single-caption single-clip pairs cannot produce shuffle negatives
        pairs = [
            make_pair([np.eye(4)[0]], [np.eye(4)[1]], [(0, 0, 1)], pid=f"d{i}")
            for i in range(3)
        ]
        with pytest.raises(DataError, match="no trainable pairs"):
            fit(pairs, ProjectionModel.identity(4), TrainConfig(epochs=1, neg_count=4, neg_strategy="seg-unit"))

    def test_seg_unit_decreases_loss_at_least_as_much_as_unpaired(self):
        train, _, _ = small_corpus()
        base = dict(epochs=5, neg_count=8, batch_pairs=8, lr=0.01, seed=0)
        r_seg = fit(train, ProjectionModel.identity(24), TrainConfig(neg_strategy="seg-unit", **base))
        r_unp = fit(train, ProjectionModel.identity(24), TrainConfig(neg_strategy="unpaired", **base))
        seg_drop = r_seg.loss_curve[0] - r_seg.loss_curve[-1]
        unp_drop = r_unp.loss_curve[0] - r_unp.loss_curve[-1]
        assert seg_drop >= unp_drop

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
    return [p.covered_view() for p in train[:4]]


def base_videos():
    from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus

    videos, meta = gen_fewshot_corpus(FewshotSynthConfig(n_classes=4, videos_per_class=4, dim=16, seed=2))
    return [v for v in videos if v.label in meta["base_labels"]]


# corpus, model, negative strategy, checked parameters, draws per parameter
GRADIENT_CASES = {
    "video-text-linear-seg-unit": (video_text_views, lambda: ProjectionModel.linear(24, 24), "seg-unit", ["anchor.w_out"], 12),
    "video-text-twin-mlp-joint": (
        video_text_views, lambda: ProjectionModel.mlp(24, 16, 24, twin=True), "joint",
        ["anchor.w_in", "anchor.b_out", "clip.w_in", "clip.w_out"], 12,
    ),
    "video-only-linear": (base_videos, lambda: ProjectionModel.linear(16, 16), "seg-unit", ["anchor.w_out"], 24),
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
            return evaluate_batch([0, 1, 2], corpus, m, cfg, np.random.default_rng(77))

        base_loss, grads, used, base_sig = run(model)
        assert used == 3
        h = 1e-6
        checked = 0
        for name in names:
            for _ in range(draws):
                at = tuple(int(rng.integers(d)) for d in params[name].shape)

                def loss_at(eps):
                    m = model.copy()
                    m.params()[name][at] += eps
                    loss, _, _, sig = run(m)
                    return loss, sig

                up, sig_up = loss_at(h)
                down, sig_dn = loss_at(-h)
                if sig_up != base_sig or sig_dn != base_sig:
                    continue
                numeric = (up - down) / (2 * h)
                analytic = grads[name][at]
                denom = max(abs(numeric), abs(analytic))
                if denom < 1e-9:
                    continue
                assert abs(numeric - analytic) / denom < 1e-3
                checked += 1
        assert checked >= 6
