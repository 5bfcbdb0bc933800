"""Sequence-level temporal contrastive learning on embedding sequences.

Library layout:

* :mod:`tempalign.core` -- domain types (canonical pairs), cosine kernels
* :mod:`tempalign.align` -- one batched DTW / OTAM alignment kernel
* :mod:`tempalign.negatives` -- temporal-shuffle negative sampling
* :mod:`tempalign.loss` -- unit and sequence InfoNCE with analytic gradients
* :mod:`tempalign.train` -- projection head, Adam, training loop, checkpoints
* :mod:`tempalign.evaluate` -- retrieval / localization / few-shot protocols
* :mod:`tempalign.synth` -- seeded synthetic corpora
* :mod:`tempalign.io` -- dataset file formats and manifests
* :mod:`tempalign.cli` -- the ``tempalign`` command
"""

__version__ = "0.1.0"
