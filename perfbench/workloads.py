"""Child side of the benchmark: input generation and one timed repetition.

``run.py`` starts this file in a fresh process with single-threaded BLAS and
``src`` on ``PYTHONPATH``.  ``numpy`` and ``tempalign`` are imported inside
the functions, so the parent can import the workload table without them.

    python3 perfbench/workloads.py gen WORKLOAD SEED DATA_DIR SIZE
    python3 perfbench/workloads.py run WORKLOAD SEED DATA_DIR SIZE T0 [SPANS_PATH]

``gen`` writes the seeded inputs and prints the environment as JSON.  ``run``
loads them, trains and evaluates once, checks the outputs and prints one JSON
result line.  ``T0`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, imports and
``load_dataset``.  With ``SPANS_PATH`` the run is traced (see layertrace.py);
without it no hook module is imported.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

WORKLOADS = ("train-videotext", "retrieval-scale", "fewshot-videoonly")

# Per size, the generator and protocol settings of each workload.  "full" is
# what the benchmark measures; "tiny" only smoke-tests the benchmark itself.
SIZES = {
    "full": {
        "train-videotext": {"synth": {}},
        "retrieval-scale": {"synth": {"n_tasks": 200}},
        "fewshot-videoonly": {"synth": {}, "queries": 15, "episodes": 100},
    },
    "tiny": {
        "train-videotext": {"synth": {"n_tasks": 3}},
        "retrieval-scale": {"synth": {"n_tasks": 10}},
        "fewshot-videoonly": {"synth": {"videos_per_class": 3}, "queries": 2, "episodes": 2},
    },
}

# The default noise saturates retrieval (R@1 0.98 at n=200); this corpus
# leaves room for a scoring change to show.
HARD_RETRIEVAL = {"caption_noise": 0.35, "clip_noise": 0.28, "confuser_prob": 0.4}
# frame_noise=0.06 (the default) saturates few-shot accuracy at 1.00.  The
# class orders are fixed (those the generator draws for seed 0), so the seed
# varies prototypes, noise, training and episodes but not how confusable the
# novel orders are; drawn per seed they spread accuracy twice as widely.
HARD_FEWSHOT = {
    "frame_noise": 0.3,
    "patterns": (
        (4, 1, 2, 0, 3), (0, 2, 1, 3, 4), (1, 4, 0, 3, 2), (4, 0, 2, 1, 3), (4, 1, 0, 2, 3),
        (3, 0, 2, 1, 4), (4, 3, 1, 2, 0), (2, 0, 3, 1, 4), (4, 1, 2, 3, 0), (3, 1, 2, 0, 4),
    ),
}
RETRIEVAL_KS = (1, 5, 10)


# Calibration: a fixed stand-in for tempalign's hot loops (a pure-Python DTW
# recursion and small numpy products) written here, so no program change can
# move it.  Its pass time tracks the speed of a shared machine, which drifts.
_CAL_COST = [[((7 * i + 13 * j) % 17) / 17.0 for j in range(40)] for i in range(20)]
CAL_PASSES = 64


def _calibration_pass(units) -> float:
    t = time.perf_counter()
    prev = list(_CAL_COST[0])
    for j in range(1, len(prev)):
        prev[j] += prev[j - 1]
    for costs in _CAL_COST[1:]:
        row = [prev[0] + costs[0]] + [0.0] * (len(costs) - 1)
        for j in range(1, len(costs)):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = costs[j] + best
        prev = row
    for _ in range(8):
        unit = units / (units * units).sum(axis=1, keepdims=True) ** 0.5
        unit @ unit.T
    return time.perf_counter() - t


def calibrate() -> float:
    """Median seconds of one calibration pass, over CAL_PASSES passes."""
    import numpy as np

    units = np.linspace(-1.0, 1.0, 20 * 64).reshape(20, 64)
    return statistics.median(_calibration_pass(units) for _ in range(CAL_PASSES))


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Versions and thread settings the measurement depends on."""
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def generate(workload: str, seed: int, out_dir: str, size: str) -> None:
    """Write the workload's seeded dataset (manifest plus records) to ``out_dir``."""
    from tempalign.io import save_dataset
    from tempalign.synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus

    synth = SIZES[size][workload]["synth"]
    if workload == "train-videotext":
        train, test, _ = gen_corpus(SynthConfig(seed=seed, **synth))
        items = [(p, "train") for p in train] + [(p, "test") for p in test]
        save_dataset(out_dir, items, kind="pairs", fmt="json")
    elif workload == "retrieval-scale":
        _, test, _ = gen_corpus(SynthConfig(seed=seed, **HARD_RETRIEVAL, **synth))
        save_dataset(out_dir, [(p, "test") for p in test], kind="pairs", fmt="bin")
    elif workload == "fewshot-videoonly":
        videos, meta = gen_fewshot_corpus(FewshotSynthConfig(seed=seed, **HARD_FEWSHOT, **synth))
        base = set(meta["base_labels"])
        items = [(v, "base" if v.label in base else "novel") for v in videos]
        save_dataset(out_dir, items, kind="videos", fmt="json")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def run_phases(workload: str, seed: int, by_split: dict, model, size: str, span) -> dict:
    """Train and/or evaluate once.  ``span(name)`` brackets each phase."""
    from tempalign import evaluate as ev
    from tempalign.train import TrainConfig, fit

    params = SIZES[size][workload]
    checks: dict[str, bool] = {}  # output check -> passed; each is one attempted operation
    phases: dict[str, float] = {}
    quality: dict[str, object] = {}
    # operations attempted, by kind; "skipped" counts pairs fit could not use
    ops = {"train_items": 0, "skipped": 0, "queries": 0, "pairs": 0, "episodes": 0}

    def timed(name, fn, *args, **kwargs):
        with span(f"phase.{name}"):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            phases[name] = time.perf_counter() - t
        return out

    if workload in ("train-videotext", "fewshot-videoonly"):
        corpus = by_split["train" if workload == "train-videotext" else "base"]
        # One epoch at the CLI defaults (seg-unit, 32 negatives, 8 pairs per
        # batch, dtw, identity head); the CLI's 10 epochs repeat the same step.
        epochs = 1
        report = timed("fit", fit, corpus, model, TrainConfig(epochs=epochs, seed=seed))
        curve = report.loss_curve
        checks["loss curve finite"] = len(curve) == epochs and _finite(curve)
        ops["train_items"] = len(corpus) * epochs
        ops["skipped"] = report.skipped_pairs
        quality["loss_curve"] = curve
        model = report.final_model

    if workload == "retrieval-scale":
        test = by_split["test"]
        rep = timed("retrieval", ev.retrieval_full, test, None, measure="dtw", background="remove", ks=RETRIEVAL_KS)
        recalls = [rep.recalls[k] for k in RETRIEVAL_KS]
        checks["recalls in [0, 1]"] = all(0.0 <= r <= 1.0 for r in recalls)
        checks["recalls nondecreasing in k"] = all(a <= b for a, b in zip(recalls, recalls[1:]))
        quality["retrieval_recalls"] = recalls
        ops["queries"] = len(test)

    if workload in ("train-videotext", "retrieval-scale"):
        test = by_split["test"]
        pm = timed("pair_match", ev.corpus_pair_match, test, model if workload == "train-videotext" else None)
        checks["pair_match in [0, 1]"] = 0.0 <= pm <= 1.0
        quality["pair_match"] = pm
        ops["pairs"] = len(test)

    if workload == "fewshot-videoonly":
        episodes = params["episodes"]
        rep = timed(
            "fewshot", ev.fewshot_eval, model, by_split["novel"], way=5, shot=1,
            queries_per_class=params["queries"], episodes=episodes, measure="dtw", seed=seed,
        )
        acc, ci = rep.aux["accuracy"], rep.aux["ci95"]
        checks["fewshot accuracy and ci95 finite"] = _finite((acc, ci)) and 0.0 <= acc <= 1.0
        quality["fewshot_acc"] = acc
        quality["fewshot_ci95"] = ci
        ops["episodes"] = episodes

    return {"phases": phases, "quality": quality, "ops": ops, "checks": checks}


def run_once(workload: str, seed: int, data_dir: str, size: str, t0: float, tracer=None) -> dict:
    """One repetition: set-up (imports done by the caller, then load and
    build), the timed run phase between two calibrations, and the output
    checks."""
    from tempalign import io as tio
    from tempalign.train import ProjectionModel

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with span("phase.setup"):
        manifest, by_split = tio.load_dataset(data_dir)
        model = ProjectionModel.identity(manifest.dim)
    setup_s = _clock() - t0

    cal_before = calibrate()
    t = time.perf_counter()
    out = run_phases(workload, seed, by_split, model, size, span)
    out["run_s"] = time.perf_counter() - t
    out["calibration_s"] = (cal_before + calibrate()) / 2.0
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: list[str]) -> int:
    command, workload, seed, data_dir, size = argv[:5]
    if workload not in WORKLOADS or size not in SIZES:
        print(f"unknown workload {workload!r} or size {size!r}", file=sys.stderr)
        return 2
    seed = int(seed)
    if command == "gen":
        generate(workload, seed, data_dir, size)
        print(json.dumps(environment()))
        return 0
    t0 = float(argv[5])
    spans_path = argv[6] if len(argv) > 6 else None
    import tempalign  # noqa: F401  (imports belong to set-up)

    tracer = None
    if spans_path is not None:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_once(workload, seed, data_dir, size, t0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["step_ms"] = tracer.step_ms()
        result["absent"] = tracer.absent
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
