"""Seeded claims of the paper, each over several seeds with a stated margin.

TempCLR "can also generalize on the matching between video instances"
(arXiv:2212.13738): training on a video's own two temporal views, with no
labels, should make episodic few-shot matching of unseen classes better
than the untrained embedding.
"""

import pytest

from tempalign.evaluate import fewshot_eval
from tempalign.synth import FewshotSynthConfig, gen_fewshot_corpus
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
