"""Run the benchmark over several seeds and write a summary file.

    python3 perfbench/record.py --out perfbench/baseline/BENCH_1.json \
        [--workload NAME ...] [--seeds 1-10] [--seconds 40]

Without ``--workload`` it runs the workloads that BENCHMARK.json lists.

For every workload it makes one untraced run per seed and reports, per
end-to-end metric, the values, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).  It then makes one
traced run, on the first seed, and stores its per-layer metrics.  Every
run's provenance line (CPUs, CPU model, Python and numpy versions) is kept.
Two such files from the same machine are what a before/after comparison
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    doc["provenance"] = json.loads(next(ln for ln in lines if ln.startswith("provenance "))[11:])
    doc["seed"] = seed
    return doc


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="40")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}),
                  file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / median, "bound": m["bound"],
                                  "values": values}
        traced = run(workload, runs[0]["seed"], args.seconds, 1)
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": metrics,
            "traced_seed": runs[0]["seed"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "provenance": sorted({json.dumps(r["provenance"], sort_keys=True)
                                  for r in runs + [traced]}),
        }
        for name, m in metrics.items():
            print(f"{workload} {name} median {m['median']:.6g} {m['unit']} spread {m['spread']:.3f} "
                  f"(bound {m['bound']})", file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
