"""One workload in one fresh process: set up, then measure or trace.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|gate|measure|trace
                                [--seconds S] [--tiny]

``run.py`` starts this; it prints one JSON line.  ``setup`` times only the
set-up (``import nadyn`` with numpy, building the inputs, writing system
files).  ``gate`` then runs the seeded pass once, checking every job between
jobs with the clock stopped.  ``measure`` instead repeats the pass, unchecked,
until ``--seconds`` of job time have elapsed, so that its peak memory is the
program's and not the checks'.  ``trace`` runs the pass once gated and
untraced, then once with every listed public function wrapped, and derives the
per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

import gen  # noqa: E402
import workloads as wl  # noqa: E402

RUNNERS = {"corr_deep": wl.CorrDeep, "verdict_grid": wl.VerdictGrid, "cli_mix": wl.CliMix}


def provenance(np_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np_version}


class Session:
    """Inputs of one run: the seeded pass, built into nadyn objects."""

    def __init__(self, workload: str, seed: int, tiny: bool, tag: str):
        self.workload = workload
        self.catalogue = wl.load_catalogue(workload)
        self.classes, self.jobs = zip(*wl.sample_pass(workload, self.catalogue, seed, tiny))
        self.workdir = os.path.join(OUT, f"work-{workload}-{seed}-{tag}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def setup(self) -> float:
        """Import the program and build the inputs; returns the seconds taken."""
        t0 = time.perf_counter()
        self.nd = importlib.import_module("nadyn")
        self.runner = RUNNERS[self.workload](self.nd, os.path.relpath(self.workdir, ROOT))
        if self.workload == "cli_mix":
            self.runner.write_inputs(self.catalogue)
            self.prepared = [self.runner.prepare(job, i) for i, job in enumerate(self.jobs)]
        else:
            self.prepared = [self.runner.prepare(job) for job in self.jobs]
        took = time.perf_counter() - t0
        origin = os.path.realpath(self.nd.__file__)
        if not origin.startswith(os.path.realpath(SRC) + os.sep):
            raise SystemExit(f"nadyn was imported from {origin}, not from {SRC}")
        return took

    def load_refs(self) -> None:
        doc = wl.load_refs(self.workload)
        self.refs = doc["refs"]
        self.known_failing = {f["id"] for f in doc["failing_at_definition"]}

    def gate(self, p: dict, outcome, error) -> list:
        """[status, result bytes, whether the job already failed when the benchmark was defined]"""
        jid = gen.job_id(p["job"])
        known = jid in self.known_failing
        if error is not None:
            return [raised(error), 0, known]
        ref = self.refs.get(jid, "missing")
        if ref == "missing":
            return ["incorrect: no stored reference for this job", 0, known]
        if self.workload == "cli_mix":
            return [*self.runner.check(p, outcome, ref, self.catalogue["systems"]), known]
        return [*self.runner.check(p, outcome, ref), known]

    def run_pass(self, gate: bool) -> tuple[list, dict]:
        """Run every job once, in order.

        Returns the job times and, by job index, the statuses: of every job
        when gating, else of the jobs that raised.  The gate is not timed.
        """
        samples, statuses = [], {}
        for i, p in enumerate(self.prepared):
            error = None
            t0 = time.perf_counter()
            try:
                outcome = self.runner.run(p)
            except Exception as e:  # a raising job is a failed job, not a crash of the run
                outcome, error = None, e
            samples.append(time.perf_counter() - t0)
            if gate:
                statuses[i] = self.gate(p, outcome, error)
            elif error is not None:
                statuses[i] = raised(error)
            outcome = None  # the result must not stay alive while the next job runs
            if gate:
                gc.collect()
        return samples, statuses

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def raised(error: Exception) -> str:
    return f"failed: raised {type(error).__name__}: {error}"


def freeze_harness() -> None:
    """Keep the benchmark's own long-lived objects out of the program's collections.

    Without this, every full collection inside a job also walks the loaded
    catalogue and references, so a job's time would depend on the harness.
    """
    gc.collect()
    gc.freeze()


def gate_pass(s: Session) -> dict:
    """One timed pass with every job checked between jobs, for ``correct`` and ``result_bytes``.

    It runs in its own process, so that the memory the checks allocate does
    not count in the ``peak_rss_mb`` of the measuring process.
    """
    s.load_refs()
    freeze_harness()
    samples, statuses = s.run_pass(gate=True)
    return {"samples": samples, "statuses": list(statuses.values())}


def measure(s: Session, seconds: float) -> dict:
    """Repeat the pass, unchecked, until ``seconds`` of job time have elapsed (at least once)."""
    freeze_harness()
    passes, raised_at = [], set()
    while not passes or sum(map(sum, passes)) < seconds:
        samples, statuses = s.run_pass(gate=False)
        passes.append(samples)
        raised_at.update(statuses)
    return {"passes": passes, "raised": sorted(raised_at), "classes": s.classes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(s: Session, seed: int) -> dict:
    importlib.import_module("nadyn.cli")  # every module must be loaded before wrapping
    import tracing

    tracer = tracing.Tracer()
    tracer.install()  # set-up is traced too: it writes the system files
    try:
        s.setup()
    finally:
        tracer.uninstall()

    def report_bytes(argv):
        out = argv[argv.index("--out") + 1] if argv and "--out" in argv else None
        return os.path.getsize(out) if out and os.path.exists(out) else 0

    tracer.report_bytes = report_bytes
    gated = gate_pass(s)
    untraced = sum(gated["samples"])
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, p in enumerate(s.prepared):
            tracer.current_job = i
            try:
                s.runner.run(p)
            except Exception:  # counted as failed by the untraced, gated pass
                pass
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{s.workload}-seed{seed}.npz")
    tracer.save(spans_file)
    return {"statuses": gated["statuses"], "spans": len(tracer.start),
            "spans_file": os.path.relpath(spans_file, ROOT), "untraced_s": untraced,
            "traced_s": traced, "per_layer": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "gate", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    s = Session(args.workload, args.seed, args.tiny, args.mode)
    try:
        if args.mode == "trace":
            doc = trace(s, args.seed)
        else:
            doc = {"setup_s": s.setup()}
            if args.mode == "gate":
                doc.update(gate_pass(s))
            elif args.mode == "measure":
                doc.update(measure(s, args.seconds))
        doc["provenance"] = provenance(sys.modules["numpy"].__version__)
    finally:
        s.close()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
