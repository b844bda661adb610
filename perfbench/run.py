"""nadyn benchmark: one command, three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corr_deep|verdict_grid|cli_mix --seed N
                             --seconds S --trace 0|1 [--tiny]

Run it from the root of a nadyn checkout; the program is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics.  A ``gate``
process runs the seed's pass once, checking every job; a ``measure`` process
then repeats the pass, unchecked, until the two together have ``--seconds`` of
job time.  Set-up time is the median over these two and over set-up-only
processes started before and after them.  With ``--trace 1`` it prints the
per-layer metrics of one traced pass instead.  Human-readable lines come
first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # every run ends well inside 180 seconds
SETUP_PROBES = (4, 3)  # set-up-only processes before the gate and after the measuring process

UNITS = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "job_p90_s": "s",
         "peak_rss_mb": "MB", "result_bytes": "bytes"}


class RunError(Exception):
    pass


def worker(args, mode: str, deadline: float, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"the {mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"the {mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def judge(statuses: list, raised: list = ()) -> tuple[bool, set]:
    """Whether the run is correct, and the indices of the jobs that fail.

    ``statuses`` holds ``[status, result bytes, known]`` per job of the gated
    pass, where ``known`` says the job already failed when the benchmark was
    defined; ``raised`` are jobs that raised in a later, unchecked pass.  The
    run is correct if no job answered wrongly and every failing job is known.
    """
    failing = {i for i, (status, _, _) in enumerate(statuses) if status != "ok"} | set(raised)
    wrong = any(status.startswith("incorrect") for status, _, _ in statuses)
    return not wrong and all(statuses[i][2] for i in failing), failing


def end_to_end(args, deadline: float) -> tuple[dict, list, dict]:
    setups = [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES[0])]
    gate = worker(args, "gate", deadline)
    measured = worker(args, "measure", deadline, args.seconds - sum(gate["samples"]))
    setups += [gate["setup_s"], measured["setup_s"]]
    setups += [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES[1])]

    statuses = gate["statuses"]
    correct, failing = judge(statuses, measured["raised"])
    passes = [gate["samples"]] + measured["passes"]
    n = len(statuses)
    # Every pass runs the same jobs, so each pass is one full measurement; the
    # median over passes keeps a host slowdown over a minority of them out.
    per_pass = [((n - len(failing)) / sum(p), statistics.median(p), percentile(sorted(p), 0.9))
                for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(r for r, _, _ in per_pass),
        "job_p50_s": statistics.median(p50 for _, p50, _ in per_pass),
        "job_p90_s": statistics.median(p90 for _, _, p90 in per_pass),
        "peak_rss_mb": measured["peak_rss_mb"],
        "result_bytes": sum(b for _, b, _ in statuses),
    }
    by_class = {}
    for p in passes:
        for cls, dt in zip(measured["classes"], p):
            by_class.setdefault(cls, []).append(dt)
    info = [f"setup_s is the median of {len(setups)} fresh processes: "
            + ", ".join(f"{x:.4f}" for x in setups),
            f"timed {sum(map(sum, passes)):.3f} s: {len(passes)} passes of {n} jobs "
            f"(the first in the gate process), {len(passes) * n} samples; each timing is the "
            f"median over passes, and each pass has {n - math.ceil(0.9 * n)} samples beyond "
            f"its job_p90_s",
            "median job time by class: " + ", ".join(
                f"{c} {statistics.median(v):.4f}" for c, v in sorted(by_class.items()))]
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    outcome = {"correct": correct, "attempted": len(passes) * n,
               "failed": len(passes) * len(failing), "provenance": measured["provenance"]}
    return metrics, info, {**outcome, "statuses": statuses, "failing": failing}


def traced(args, deadline: float) -> tuple[dict, list, dict]:
    doc = worker(args, "trace", deadline)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(doc["per_layer"].items())}
    info = [f"traced one pass: {len(doc['statuses'])} jobs, {doc['spans']} spans "
            f"(written to {doc['spans_file']}), untraced {doc['untraced_s']:.3f} s, "
            f"traced {doc['traced_s']:.3f} s"]
    correct, failing = judge(doc["statuses"])
    outcome = {"correct": correct, "attempted": len(doc["statuses"]), "failed": len(failing),
               "provenance": doc["provenance"]}
    return metrics, info, {**outcome, "statuses": doc["statuses"], "failing": failing}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["corr_deep", "verdict_grid", "cli_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="one small job per class (smoke test)")
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in ("src/nadyn/__init__.py", f"perfbench/data/{args.workload}.jobs.json",
                           f"perfbench/data/{args.workload}.refs.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a nadyn checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        metrics, info, out = (traced if args.trace else end_to_end)(args, deadline)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed, statuses = out["attempted"], out["failed"], out["statuses"]
    wrong = sum(1 for status, _, _ in statuses if status.startswith("incorrect"))
    new = sum(1 for i in out["failing"] if not statuses[i][2])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(out["provenance"]))
    for line in info:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} attempted; "
          f"{wrong} distinct jobs answered wrongly, {new} failing jobs that did not fail "
          f"when the benchmark was defined)")
    seen = {statuses[i][0] if statuses[i][0] != "ok" else "failed: raised in an unchecked pass"
            for i in out["failing"]}
    for status in sorted(seen)[:20]:
        print("  " + status.replace("\n", " ")[:300])
    print(json.dumps({"correct": out["correct"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
