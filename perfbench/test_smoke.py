"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each metric named in BENCHMARK.json is printed with its unit,
that fail_rate is computed, that traced counts repeat for a seed, that a job
which newly fails makes the run incorrect, and that the benchmark refuses to
run where there is no nadyn source tree.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = ["corr_deep", "verdict_grid", "cli_mix"]  # BENCHMARK.json lists the last two


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=175)


def result(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1 and 0 <= doc["failed"] <= doc["attempted"]
    return lines, doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, doc = result(bench(workload, 0))
    assert doc["correct"] is True
    for m in BENCH["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0
        assert any(ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"]) for ln in lines)
    rate = next(ln for ln in lines if ln.startswith("fail_rate "))
    assert float(rate.split()[1]) == pytest.approx(doc["failed"] / doc["attempted"])
    assert len(doc["metrics"]) == len(BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first = result(bench(workload, 1))[1]["metrics"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == want
    again = result(bench(workload, 1))[1]["metrics"]
    for name, m in first.items():
        if m["unit"] in ("count", "bytes") or name.endswith(("steps_per_lag", "per_verdict",
                                                             "per_image", "hit_ratio")):
            assert again[name]["value"] == m["value"], name


def test_judge_counts_only_known_failures_as_correct():
    import run

    ok, known, new, wrong = ["ok", 10, False], ["failed: x", 0, True], ["failed: y", 0, False], \
        ["incorrect: z", 0, True]
    assert run.judge([ok, known]) == (True, {1})
    assert run.judge([ok, new]) == (False, {1})
    assert run.judge([ok, wrong]) == (False, {1})
    assert run.judge([ok, known], raised=[0]) == (False, {0, 1})


def test_raising_job_makes_the_run_incorrect():
    import run
    import worker

    s = worker.Session("corr_deep", 3, True, "smoke")
    try:
        s.setup()

        def boom(p):
            raise RuntimeError("injected")

        s.runner.run = boom
        statuses = worker.gate_pass(s)["statuses"]
    finally:
        gc.unfreeze()
        s.close()
    assert all(st.startswith("failed: raised RuntimeError") for st, _, _ in statuses)
    assert run.judge(statuses) == (False, set(range(len(statuses))))


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
