"""Per-layer tracing for the benchmark's traced run.

Each public callable at a layer boundary is wrapped by replacing the
attribute in the namespace its caller looks it up in: ``train`` does
``from .core import similarity_matrix``, so the hook goes on
``tempalign.train.similarity_matrix``, not on ``tempalign.core``.  Spans
(name, start, end, parent) stay in memory and are written out once, at the
end of the run.  A layer's self time is its span time minus the time of the
spans nested in it.

Only a traced child imports this module; the end-to-end run installs no
hooks.  It needs neither numpy nor ``tempalign`` at import time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time

# layer -> the (module, attribute) pairs it is reached through.  A missing
# attribute marks that hook absent instead of failing, so the traced run
# survives the removal of, say, ``dtw`` or ``align_stack``; a hook whose
# counter no longer fits the callable's arguments or result is marked
# "<hook> counts" and keeps its timings.
HOOKS: dict[str, list[tuple[str, str]]] = {
    "io": [("tempalign.io", "load_dataset")],
    "core.sim": [
        ("tempalign.train", "similarity_matrix"),
        ("tempalign.loss", "similarity_matrix"),
        ("tempalign.evaluate", "similarity_matrix"),
    ],
    "align.single": [("tempalign.align", "dtw"), ("tempalign.align", "otam")],
    "align.stack": [("tempalign.align", "align_stack")],
    "negatives": [("tempalign.train", "generate_negatives"), ("tempalign.train", "video_only_negatives")],
    "loss.seq": [("tempalign.train", "seq_grad_core")],
    "loss.unit": [("tempalign.train", "unit_term_video_text"), ("tempalign.train", "unit_term_video_only")],
    "train.backward": [("tempalign.train", "cosine_backward"), ("tempalign.train", "AffineHead.backward")],
    "train.adam": [("tempalign.train", "adam_step")],
    "train.step": [("tempalign.train", "evaluate_batch")],
    "evaluate.retrieval_full": [("tempalign.evaluate", "retrieval_full")],
    "evaluate.corpus_pair_match": [("tempalign.evaluate", "corpus_pair_match")],
    "evaluate.fewshot_eval": [("tempalign.evaluate", "fewshot_eval")],
}


def _arg0(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _io_counts(args, kwargs, result) -> dict:
    data_dir = _arg0(args, kwargs)
    manifest, _ = result
    paths = ["manifest.json"] + [entry["path"] for entry in manifest.entries]
    return {"records": len(manifest.entries), "bytes": sum(os.path.getsize(os.path.join(data_dir, p)) for p in paths)}


def _stack_counts(args, kwargs, result) -> dict:
    shape = _arg0(args, kwargs).shape
    return {"matrices": shape[0], "cells": math.prod(shape)}


# layer -> counts of the work one call did, from its arguments and result
COUNTERS = {
    "io": _io_counts,
    "core.sim": lambda args, kwargs, result: {"cells": result.size},
    "align.single": lambda args, kwargs, result: {"cells": _arg0(args, kwargs).size},
    "align.stack": _stack_counts,
    "negatives": lambda args, kwargs, result: {"drawn": len(result), "empty": int(not result)},
    "loss.seq": lambda args, kwargs, result: {"candidates": len(result.candidates)},
}

# The per-layer metrics the traced run reports: name -> (unit, better, what
# it moves).  "run_s" stands for the workload's run phase; the
# workload-specific names are the ones run.py prints in its report.
PER_LAYER = {
    "io.load_s": ("s", "lower", "setup_s; JSON on train-videotext and fewshot-videoonly, .bin on retrieval-scale"),
    "io.records": ("count", "higher", "setup_s"),
    "io.bytes": ("B", "lower", "setup_s"),
    "core.sim.calls": ("count", "lower", "retrieval_queries_per_s on retrieval-scale"),
    "core.sim.cells": ("count", "lower", "retrieval_queries_per_s on retrieval-scale"),
    "core.sim.s": ("s", "lower", "retrieval_queries_per_s on retrieval-scale; small on train-videotext"),
    "align.single.calls": ("count", "lower", "train_items_per_s, retrieval_queries_per_s"),
    "align.single.cells": ("count", "lower", "train_items_per_s, retrieval_queries_per_s"),
    "align.single.s": ("s", "lower", "train_items_per_s on both training workloads, retrieval_queries_per_s"),
    "align.single.cells_per_s": ("1/s", "higher", "train_items_per_s, retrieval_queries_per_s"),
    "align.stack.calls": ("count", "lower", "fewshot_episodes_per_s; zero elsewhere"),
    "align.stack.matrices": ("count", "higher", "fewshot_episodes_per_s"),
    "align.stack.cells": ("count", "lower", "fewshot_episodes_per_s"),
    "align.stack.s": ("s", "lower", "fewshot_episodes_per_s"),
    "negatives.calls": ("count", "lower", "train_items_per_s; absent from retrieval-scale"),
    "negatives.drawn": ("count", "higher", "train_items_per_s"),
    "negatives.empty": ("count", "lower", "failed_frac (skipped pairs)"),
    "negatives.s": ("s", "lower", "train_items_per_s"),
    "loss.seq.calls": ("count", "lower", "train_items_per_s"),
    "loss.seq.candidates": ("count", "higher", "train_items_per_s"),
    "loss.seq.self_s": ("s", "lower", "train_items_per_s"),
    "loss.unit.s": ("s", "lower", "train_items_per_s"),
    "train.backward.s": ("s", "lower", "train_items_per_s"),
    "train.adam.calls": ("count", "lower", "train_items_per_s"),
    "train.adam.s": ("s", "lower", "train_items_per_s"),
    "train.step.calls": ("count", "lower", "train_items_per_s"),
    "train.step_ms.p50": ("ms", "lower", "train_items_per_s"),
    "train.step_ms.tail": ("ms", "lower", "train_items_per_s"),
    "train.step.self_s": ("s", "lower", "train_items_per_s"),
    "evaluate.retrieval_full.self_s": ("s", "lower", "retrieval_queries_per_s"),
    "evaluate.corpus_pair_match.self_s": ("s", "lower", "pair_match phase of train-videotext and retrieval-scale"),
    "evaluate.fewshot_eval.self_s": ("s", "lower", "fewshot_episodes_per_s"),
    "trace.absent_hooks": ("count", "lower", "none: hooks whose attribute no longer exists"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced over untraced calibrated run time, minus 1"),
}


def step_percentiles(step_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) of train-step durations.  The tail is the
    highest percentile with at least 10 samples beyond it, or the median when
    there are fewer than 11 samples."""
    if not step_ms:
        return 0.0, 0.0, 0.0
    ordered = sorted(step_ms)
    n = len(ordered)
    mid = statistics.median(ordered)
    if n < 11:
        return mid, mid, 50.0
    return mid, ordered[n - 11], 100.0 * (n - 10) / n


class Tracer:
    """Span recorder plus the hooks that feed it."""

    def __init__(self):
        # [name, layer, start, end, parent index]; layer None marks a phase
        # span opened by the benchmark itself.
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str | None) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get(layer)
        counts = self.counts.setdefault(layer, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal counter
            rec = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                try:
                    counted = counter(args, kwargs, result)
                except (AttributeError, IndexError, StopIteration, TypeError):
                    # the callable survives with another signature or result
                    counter = None
                    self.absent.append(f"{name} counts")
                else:
                    for key, value in counted.items():
                        counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self, table: dict[str, list[tuple[str, str]]] = HOOKS) -> None:
        for layer, targets in table.items():
            for module_name, attr in targets:
                *owner_path, leaf = attr.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, self._wrap(layer, f"{module_name}.{attr}", original))
                self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def step_ms(self) -> list[float]:
        return [1e3 * (end - start) for _, layer, start, end, _ in self.spans if layer == "train.step"]

    def layer_totals(self) -> dict[str, float]:
        """``<layer>.calls``, ``.s`` (outermost spans only), ``.self_s`` and
        every counter, for every layer of HOOKS (zero when never called)."""
        nested = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        out = {f"{layer}.{key}": 0.0 for layer in HOOKS for key in ("calls", "s", "self_s")}
        for i, (_, layer, start, end, parent) in enumerate(self.spans):
            if layer is None:
                continue
            out[f"{layer}.calls"] += 1
            if parent < 0 or self.spans[parent][1] != layer:
                out[f"{layer}.s"] += end - start
            out[f"{layer}.self_s"] += end - start - nested[i]
        for layer, counts in self.counts.items():
            for key, value in counts.items():
                out[f"{layer}.{key}"] = float(value)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """This run's values of the PER_LAYER metrics that one run can give;
        step percentiles and the overhead are computed over all traced runs."""
        totals = self.layer_totals()
        out = {name: totals.get(name, 0.0) for name in PER_LAYER}
        out["io.load_s"] = totals["io.s"]
        single_s = totals["align.single.s"]
        out["align.single.cells_per_s"] = out["align.single.cells"] / single_s if single_s > 0 else 0.0
        out["trace.absent_hooks"] = float(len(self.absent))
        for name in ("train.step_ms.p50", "train.step_ms.tail", "trace.overhead_frac"):
            del out[name]
        return out

    def write(self, path: str) -> None:
        """Append this run's spans as JSON lines, keyed by process id."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": pid, "i": i, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent}))
                fh.write("\n")
