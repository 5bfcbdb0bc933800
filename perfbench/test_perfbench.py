"""Tests of the benchmark itself: every workload at a tiny size, the metric
lists against BENCHMARK.json, and the hook table's handling of missing
attributes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in layertrace.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    import tempalign.align

    data = str(tmp_path / "data")
    workloads.generate(workload, 3, data, "tiny")
    plain = workloads.run_once(workload, 3, data, "tiny", workloads._clock())
    original_dtw = tempalign.align.dtw
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = workloads.run_once(workload, 3, data, "tiny", workloads._clock(), tracer)
    finally:
        tracer.uninstall()
    assert tempalign.align.dtw is original_dtw

    assert all(plain["checks"].values()) and plain["checks"]
    assert plain["ops"]["skipped"] == 0 and plain["calibration_s"] > 0
    assert traced["quality"] == plain["quality"]
    assert tracer.absent == []
    totals = tracer.layer_totals()
    # io runs during set-up; every other layer runs inside the run phase.
    self_s = sum(totals[f"{layer}.self_s"] for layer in layertrace.HOOKS if layer != "io")
    assert 0.0 < self_s <= traced["run_s"]
    assert totals["io.calls"] == 1 and totals["io.records"] > 0


def _command(workload: str, trace: int, work_dir: Path, capsys) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, work_dir=work_dir, size="tiny") == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_command_prints_every_end_to_end_metric(tmp_path, capsys):
    lines, result = _command("retrieval-scale", 0, tmp_path, capsys)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
        assert any(
            line.split()[0] == metric["name"] and line.endswith(f"({metric['better']} is better)")
            for line in lines[:-1]
        )


def test_traced_command_reports_every_per_layer_metric(tmp_path, capsys):
    lines, result = _command("fewshot-videoonly", 1, tmp_path, capsys)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["align.stack.calls"] > 0 and metrics["trace.absent_hooks"] == 0
    assert (tmp_path / "spans-fewshot-videoonly-5.jsonl").stat().st_size > 0


def test_missing_hook_is_reported_absent():
    import numpy as np
    import tempalign.align

    original = tempalign.align.dtw
    tracer = layertrace.Tracer()
    tracer.install({
        "align.single": [("tempalign.align", "dtw"), ("tempalign.align", "no_such_kernel")],
        "gone": [("tempalign.no_such_module", "f")],
        # a counter that does not fit the callable's result
        "negatives": [("tempalign.align", "otam")],
    })
    try:
        assert tracer.absent == ["tempalign.align.no_such_kernel", "tempalign.no_such_module.f"]
        assert tempalign.align.dtw is not original
        tempalign.align.dtw(np.ones((2, 3)))
        tempalign.align.otam(np.ones((2, 3)))
        tempalign.align.otam(np.ones((2, 3)))
    finally:
        tracer.uninstall()
    assert tempalign.align.dtw is original
    assert tracer.absent[2:] == ["tempalign.align.otam counts"]
    metrics = tracer.layer_metrics()
    assert metrics["trace.absent_hooks"] == 3
    assert metrics["align.single.cells"] == 6 and tracer.layer_totals()["negatives.calls"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-videotext", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
