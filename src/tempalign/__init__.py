"""Sequence-level temporal contrastive learning on embedding sequences.

Library layout:

* :mod:`tempalign.core` -- domain types, cosine kernels, canonicalization
* :mod:`tempalign.align` -- one batched DTW / OTAM alignment kernel
* :mod:`tempalign.negatives` -- temporal-shuffle negative sampling
* :mod:`tempalign.loss` -- unit and sequence InfoNCE with analytic gradients
* :mod:`tempalign.train` -- projection head, Adam, training loop, checkpoints
* :mod:`tempalign.evaluate` -- retrieval / localization / few-shot protocols
* :mod:`tempalign.synth` -- seeded synthetic corpora
* :mod:`tempalign.io` -- dataset file formats and manifests
* :mod:`tempalign.cli` -- the ``tempalign`` command
"""

from .align import Alignments, align_stack, pad_costs
from .core import (
    DataError,
    DegeneratePairError,
    EmbeddingSequence,
    LabeledVideo,
    SegmentMap,
    SegmentedPair,
    canonicalize_pair,
    cosine_similarity,
    cost_matrix,
    similarity_matrix,
)
from .evaluate import (
    EvalReport,
    corpus_pair_match,
    fewshot_eval,
    localization_recall,
    pair_match_percentage,
    retrieval_clip,
    retrieval_full,
)
from .loss import LossConfig, joint_loss, seq_infonce, seq_infonce_grad, unit_infonce
from .negatives import (
    NegativePermutation,
    STRATEGY_NAMES,
    generate_negatives,
    permute_all_units,
    permute_segments,
    permute_within_segments,
    sample_unpaired,
    video_only_negatives,
)
from .synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus
from .train import (
    AdamState,
    ProjectionModel,
    TrainConfig,
    TrainReport,
    adam_step,
    fit,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
