"""Benchmark of ``tempalign``: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command generates the workload's
inputs from the seed, then starts fresh single-threaded child processes
(``workloads.py``), each of which sets up (imports plus ``load_dataset``),
trains and/or evaluates once and checks its outputs.  It repeats while
another child fits in ``--seconds`` (at least three times) and reports
medians.

With ``--trace 0`` it prints the end-to-end metrics (times scaled to a
reference machine speed, see CAL_REF_S) and a report of the measured times
and the workload's own throughput and quality numbers; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` it alternates untraced and traced children; the last
line carries the per-layer metrics (layertrace.PER_LAYER) and
``trace.overhead_frac``, and the spans go to ``.perfbench-work/``.

This file needs only the standard library; it never imports ``tempalign``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench-work"

MIN_REPS = 3
# Stop starting children this long after the start, so the command ends
# well within three minutes even when --seconds is 60.
LAST_START_S = 110.0
CHILD_TIMEOUT_S = 60.0
MAX_ERRORS = 3

# setup_s and run_s are reported in seconds at a fixed reference speed: each
# measured time is scaled by CAL_REF_S over the child's calibration pass time
# (workloads.calibrate).  The machine's speed drifts by up to 2x over minutes,
# which the scaling removes; the measured seconds are in the report.
CAL_REF_S = 2e-4

# Bounded end-to-end metrics (BENCHMARK.json), reported on every workload:
# name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "quality": ("ratio", "higher"),
}
# The quality score each workload reports as "quality"; each is
# deterministic for a seed.
QUALITY = {"train-videotext": "pair_match", "retrieval-scale": "pair_match", "fewshot-videoonly": "fewshot_acc"}
# Workload-specific metrics, printed in the report above the result line.
REPORT = {
    "measured_setup_s": ("s", "lower"),
    "measured_run_s": ("s", "lower"),
    "calibration_ms": ("ms", "lower"),
    "failed_frac": ("ratio", "lower"),
    "train_items_per_s": ("items/s", "higher"),
    "train_final_loss": ("loss", "lower"),
    "pair_match": ("ratio", "higher"),
    "retrieval_queries_per_s": ("queries/s", "higher"),
    "retrieval_r1": ("ratio", "higher"),
    "fewshot_episodes_per_s": ("episodes/s", "higher"),
    "fewshot_acc": ("ratio", "higher"),
}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """The children's environment: ``src`` importable, BLAS single-threaded
    (set before numpy loads; at most nproc), hash seed fixed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> tuple[dict | None, str]:
    """Start ``workloads.py`` with ``args`` and wait for it; returns its last
    stdout line as JSON, or None and the reason when it failed."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def measure(workload: str, seed: int, seconds: float, trace: bool, data: Path, spans: Path | None,
            size: str, env: dict[str, str]) -> tuple[dict[bool, list[dict]], list[str]]:
    """Repeat children while another round still fits in ``seconds``; with
    ``trace`` every untraced child is followed by a traced one."""
    kinds = (False, True) if trace else (False,)
    reps: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    errors: list[str] = []
    rounds: list[float] = []
    start = _clock()
    while True:
        round_start = _clock()
        for traced in kinds:
            timeout = min(CHILD_TIMEOUT_S, LAST_START_S + CHILD_TIMEOUT_S - (_clock() - start))
            args = ["run", workload, str(seed), str(data), size, repr(_clock())]
            result, err = run_child(args + ([str(spans)] if traced else []), env, timeout)
            if result is None:
                errors.append(err)
            else:
                reps[traced].append(result)
        rounds.append(_clock() - round_start)
        elapsed = _clock() - start
        enough = all(len(r) >= MIN_REPS for r in reps.values())
        if (enough and elapsed + _median(rounds) > seconds) or elapsed >= LAST_START_S or len(errors) >= MAX_ERRORS:
            return reps, errors


def _median(values) -> float:
    return float(statistics.median(values))


def _rate(reps: list[dict], op: str, phase: str) -> float:
    return _median(r["ops"][op] / r["phases"][phase] for r in reps)


def summarize(workload: str, reps: dict[bool, list[dict]], errors: list[str]) -> dict:
    """Counts, end-to-end metrics and report metrics over all children."""
    every = [r for runs in reps.values() for r in runs]
    base = reps[False]
    quality = base[0]["quality"]
    checks = {"results identical in every child": all(r["quality"] == quality for r in every)}
    failed_checks = [name for r in every for name, ok in r["checks"].items() if not ok]
    failed_checks += [name for name, ok in checks.items() if not ok]
    attempted = len(errors) + len(checks) + sum(sum(r["ops"].values()) - r["ops"]["skipped"] + len(r["checks"]) for r in every)
    failed = len(errors) + len(failed_checks) + sum(r["ops"]["skipped"] for r in every)

    e2e = {
        "setup_s": _median(r["setup_s"] * CAL_REF_S / r["calibration_s"] for r in base),
        "run_s": _median(r["run_s"] * CAL_REF_S / r["calibration_s"] for r in base),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in base),
        "quality": quality[QUALITY[workload]],
    }
    report = {
        "measured_setup_s": _median(r["setup_s"] for r in base),
        "measured_run_s": _median(r["run_s"] for r in base),
        "calibration_ms": _median(1e3 * r["calibration_s"] for r in base),
        "failed_frac": failed / max(attempted, 1),
    }
    if "fit" in base[0]["phases"]:
        report["train_items_per_s"] = _rate(base, "train_items", "fit")
        report["train_final_loss"] = quality["loss_curve"][-1]
    if "pair_match" in quality:
        report["pair_match"] = quality["pair_match"]
    if "retrieval" in base[0]["phases"]:
        report["retrieval_queries_per_s"] = _rate(base, "queries", "retrieval")
        report["retrieval_r1"] = quality["retrieval_recalls"][0]
    if "fewshot" in base[0]["phases"]:
        report["fewshot_episodes_per_s"] = _rate(base, "episodes", "fewshot")
        report["fewshot_acc"] = quality["fewshot_acc"]
    return {
        "correct": not failed_checks and not errors,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "e2e": e2e,
        "report": report,
    }


def per_layer(reps: dict[bool, list[dict]]) -> tuple[dict[str, float], list[str], float]:
    """Medians of the traced children's layer metrics, the pooled step
    percentiles and the tracing overhead."""
    from layertrace import step_percentiles

    traced = reps[True]
    layers = {name: _median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    p50, tail, tail_pct = step_percentiles([ms for r in traced for ms in r["step_ms"]])
    layers["train.step_ms.p50"] = p50
    layers["train.step_ms.tail"] = tail
    # calibrated, so that a change of machine speed between children cancels
    plain_run = _median(r["run_s"] / r["calibration_s"] for r in reps[False])
    layers["trace.overhead_frac"] = _median(r["run_s"] / r["calibration_s"] for r in traced) / plain_run - 1.0
    return layers, sorted({h for r in traced for h in r["absent"]}), tail_pct


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def _line(name: str, value: float, unit: str, better: str) -> str:
    return f"  {name:<36} {value:>16.6g} {unit:<12} ({better} is better)"


def main(argv: list[str] | None = None, work_dir: Path | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tempalign" / "__init__.py").is_file():
        print(f"perfbench: no tempalign sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = Path(work_dir) if work_dir is not None else ROOT / WORK_DIR
    work.mkdir(parents=True, exist_ok=True)
    data = work / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    spans = work / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    if spans is not None and spans.exists():
        spans.unlink()
    env = child_env()
    try:
        environment, err = run_child(["gen", args.workload, str(args.seed), str(data), size], env, CHILD_TIMEOUT_S)
        if environment is None:
            print(f"perfbench: input generation failed: {err}", file=sys.stderr)
            return 1
        reps, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace), data, spans, size, env)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    for err in errors:
        print(f"perfbench: child failed: {err}", file=sys.stderr)
    if not reps[False] or (args.trace and not reps[True]):
        print("perfbench: no child completed; no result", file=sys.stderr)
        return 1

    summary = summarize(args.workload, reps, errors)
    print(f"workload {args.workload} seed {args.seed}: {len(reps[False])} untraced"
          + (f", {len(reps[True])} traced" if args.trace else "") + " children")
    print("environment " + json.dumps(environment))
    print("end-to-end (bounded; quality = " + QUALITY[args.workload] + "):")
    for name, (unit, better) in E2E.items():
        print(_line(name, summary["e2e"][name], unit, better))
    print("report:")
    for name, value in summary["report"].items():
        unit, better = REPORT[name]
        print(_line(name, value, unit, better))
    for name in summary["failed_checks"]:
        print(f"FAILED CHECK: {name}")

    if args.trace:
        from layertrace import PER_LAYER

        layers, absent, tail_pct = per_layer(reps)
        tail = f"train.step_ms.tail is p{tail_pct:.4g}" if tail_pct else "no train steps"
        print(f"per-layer ({tail}; absent hooks: {', '.join(absent) or 'none'}):")
        for name, (unit, better, moves) in PER_LAYER.items():
            print(_line(name, layers[name], unit, better) + f"  moves {moves}")
        print(f"spans: {spans}")
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        metrics = {name: {"value": summary["e2e"][name], "unit": unit} for name, (unit, _) in E2E.items()}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
