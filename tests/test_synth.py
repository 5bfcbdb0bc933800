"""Pinned output of the synthetic generators.

The benchmark's datasets and a few generator branches are pinned as sha256
digests, so a rewrite of ``synth`` that changes any drawn value, row order,
segment range or truth field fails here.  The digests read the same with one
and two OpenBLAS threads.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tempalign.synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

# sha256 over every file `workloads.generate` writes at "full" size, seed 7:
# each relative path, then its bytes, in sorted path order.
WORKLOAD_DIGESTS = {
    "train-videotext": "2f12e0e723d02222a6fb5fb9a99ee38c4bf680d1e5bddc717df9f0d0a38f699e",
    "retrieval-scale": "e91749b6e543ca77a446251b9cf987db55aba1d548bd2e0c5f3c1e1f757f3d89",
    "fewshot-videoonly": "b4bbdff3ff20e0030da9a3bb633d17933d8dbd7704593717ff95d7c41c272fe1",
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_datasets_are_pinned(workload, tmp_path):
    workloads.generate(workload, 7, str(tmp_path), "full")
    assert tree_digest(tmp_path) == WORKLOAD_DIGESTS[workload]


def corpus_digest(cfg: SynthConfig) -> str:
    train, test, metadata = gen_corpus(cfg)
    h = hashlib.sha256(json.dumps(metadata).encode())
    for pair in train + test:
        h.update(f"{pair.id} {pair.anchor.id} {pair.positive.id} {pair.segments}".encode())
        h.update(np.ascontiguousarray(pair.anchor.units).tobytes())
        h.update(np.ascontiguousarray(pair.positive.units).tobytes())
    return h.hexdigest()


def fewshot_digest(cfg: FewshotSynthConfig) -> str:
    videos, metadata = gen_fewshot_corpus(cfg)
    h = hashlib.sha256(json.dumps(metadata).encode())
    for video in videos:
        h.update(f"{video.id} {video.label} {video.frames.id}".encode())
        h.update(np.ascontiguousarray(video.frames.units).tobytes())
    return h.hexdigest()


# Branches the benchmark's corpora do not take.
CORPUS_DIGESTS = [
    (SynthConfig(n_tasks=3, dim=16, proto_subspace_dim=None, seed=11),
     "3e07440632d2d94f5fccac0d77c38626416620b2130830af4dba822dd18c56de"),
    (SynthConfig(n_tasks=3, segments_per_video=1, dim=8, proto_subspace_dim=4, seed=12),
     "89a6bdebc878222bf80d795dee796c9234869a2f3e5007703574fb1095d87994"),
    (SynthConfig(n_tasks=3, background_per_video=(2, 5), dim=12, proto_subspace_dim=6, seed=13),
     "542523cb1dfc22c8d7f3bb832054211020286f386e94004bdcd1c0c065586b17"),
    (SynthConfig(n_tasks=3, confuser_prob=0, background_per_video=(0, 0), dim=6, seed=14, proto_subspace_dim=None),
     "d681667d31f5c850600e7854e7d4448fae00f464bd79eb633d9694819bbab10b"),
]
FEWSHOT_DIGESTS = [
    (FewshotSynthConfig(n_classes=4, videos_per_class=3, steps_per_class=3, dim=8, seed=15),
     "76ed21b7a7868ee46dd7a71134ca66c389e3be55ff3adc470153ce00434c64a1"),
    (FewshotSynthConfig(n_classes=3, videos_per_class=2, steps_per_class=3, frames_per_step=2, dim=8, seed=16,
                        patterns=((2, 0, 1), (0, 1, 2), (2, 0, 1))),
     "45f82ab7140ff500791229a354a937f4aec426f816df49d5bd72385c8aa10a01"),
]


@pytest.mark.parametrize("cfg, digest", CORPUS_DIGESTS, ids=["full-space", "one-segment", "background-2-5", "no-confusers"])
def test_corpus_branches_are_pinned(cfg, digest):
    assert corpus_digest(cfg) == digest


@pytest.mark.parametrize("cfg, digest", FEWSHOT_DIGESTS, ids=["drawn-patterns", "given-patterns"])
def test_fewshot_branches_are_pinned(cfg, digest):
    assert fewshot_digest(cfg) == digest


@pytest.mark.parametrize("videos_per_task, held_out", [(1, 0), (2, 1), (5, 1), (6, 2)])
def test_each_task_holds_out_a_fifth_of_its_videos_rounded_up_from_two_videos_on(videos_per_task, held_out):
    train, test, metadata = gen_corpus(SynthConfig(n_tasks=2, videos_per_task=videos_per_task, dim=8, proto_subspace_dim=6))
    assert len(train) == 2 * (videos_per_task - held_out) and len(test) == 2 * held_out
    for meta in metadata["pairs"].values():
        assert meta["split"] == ("test" if meta["video"] >= videos_per_task - held_out else "train")
