"""Seeded claims of the paper, each over several seeds with a stated margin.

TempCLR "can also generalize on the matching between video instances"
(arXiv:2212.13738): training on a video's own two temporal views, with no
labels, should make episodic few-shot matching of unseen classes better
than the untrained embedding.  Its premise is that the order of a video's
steps carries what a bag of its frames loses: where classes differ only in
order, a sequence alignment (dtw, otam) should match videos better than
their mean frames do.  And training on video-text pairs should make
paragraph-to-video retrieval by alignment better than the untrained
embedding.
"""

import pytest

from tempalign.evaluate import fewshot_eval, retrieval_full
from tempalign.synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus
from tempalign.train import ProjectionModel, TrainConfig, fit

# Measured at 100 episodes (identity / two-view fit): seed 0 0.569 / 0.722,
# seed 1 0.612 / 0.779, seed 2 0.632 / 0.807.
FEWSHOT_MARGIN = 0.10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_view_fit_beats_identity_on_fewshot_dtw(seed):
    videos, meta = gen_fewshot_corpus(FewshotSynthConfig(frame_noise=0.3, seed=seed))
    base = [v for v in videos if v.label in meta["base_labels"]]
    novel = [v for v in videos if v.label in meta["novel_labels"]]
    trained = fit(base, ProjectionModel.identity(base[0].frames.dim), TrainConfig(epochs=3, seed=seed)).final_model

    def accuracy(model):
        report = fewshot_eval(model, novel, way=5, shot=1, queries_per_class=15, episodes=100, measure="dtw", seed=seed)
        return report.aux["accuracy"]

    assert accuracy(trained) > accuracy(None) + FEWSHOT_MARGIN


# Measured at 200 episodes, identity (dtw / otam / bag), on seeds the test
# does not use: seed 3 0.623 / 0.329 / 0.195, seed 4 0.632 / 0.319 / 0.205,
# seed 5 0.616 / 0.304 / 0.201.  The smallest lead there, otam's 0.103 at
# seed 5, sets the margin at about half of it.
ORDER_MARGIN = 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_alignment_beats_bag_of_frames_on_fewshot(seed):
    videos, meta = gen_fewshot_corpus(FewshotSynthConfig(frame_noise=0.3, seed=seed))
    novel = [v for v in videos if v.label in meta["novel_labels"]]

    def accuracy(measure):
        report = fewshot_eval(None, novel, way=5, shot=1, queries_per_class=15, episodes=200, measure=measure, seed=seed)
        return report.aux["accuracy"]

    bag = accuracy("bag")
    assert accuracy("dtw") > bag + ORDER_MARGIN
    assert accuracy("otam") > bag + ORDER_MARGIN


# Measured with 60 queries (identity -> 5-epoch fit), seeds 0-2: 0.183 -> 0.400,
# 0.233 -> 0.400, 0.317 -> 0.483.  On seeds the test does not use the leads are
# 0.300 (seed 3), 0.283 (seed 4) and 0.217 (seed 5); the smallest sets the margin
# at about half of it.
RETRIEVAL_MARGIN = 0.10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_beats_identity_on_hard_retrieval_dtw(seed):
    train, test, _ = gen_corpus(SynthConfig(caption_noise=0.35, clip_noise=0.28, confuser_prob=0.4, n_tasks=60, seed=seed))
    trained = fit(train, ProjectionModel.identity(train[0].anchor.dim), TrainConfig(epochs=5, seed=seed)).final_model

    def recall_at_1(model):
        report = retrieval_full(test, model, measure="dtw", ks=(1,))
        assert report.aux["n_queries"] == 60
        return report.recalls[1]

    assert recall_at_1(trained) > recall_at_1(None) + RETRIEVAL_MARGIN
