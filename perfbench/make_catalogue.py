"""Draw the job catalogues and record their exact reference results.

    python3 perfbench/make_catalogue.py [--workload NAME] [--seed 20160605]   # from the repo root

For each workload this writes ``perfbench/data/<workload>.jobs.json`` (jobs
grouped into classes, three or more candidates per slot of a pass) and
``perfbench/data/<workload>.refs.json`` (job id -> mathematical content of
the result).  Every job is also run through the benchmark's correctness
gate, and the jobs that fail at this commit are listed.

The catalogue defines the benchmark: regenerating it changes the inputs and
the references, so do it only in a change that redefines the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nadyn as nd  # noqa: E402

import gen  # noqa: E402
import workloads as wl  # noqa: E402

CANDIDATES_PER_SLOT = 3


def _slots(workload: str) -> dict:
    return {cls: CANDIDATES_PER_SLOT * n for cls, n in wl.WORKLOADS[workload]["pass"].items()}


# -- corr_deep -------------------------------------------------------------------


def corr_schedule(rng: random.Random, preamble: bool) -> dict:
    """Bundled, or a random schedule: plain PL maps in the preamble, expanding folds in the cycle.

    The folds make every cycle step roughly double the part count, so a
    stratum of part counts is also a class of comparable work.  With
    ``preamble`` the schedule has 1-2 preamble maps, otherwise none.
    """
    if not preamble and rng.random() < 0.25:
        return {"bundled": rng.choice(gen.BUNDLED)}
    return {
        "domain": "[0,1]",
        "preamble": [gen.plain_map(rng, max_pieces=2, dyadic=True)
                     for _ in range(rng.randint(1, 2) if preamble else 0)],
        "cycle": [gen.fold_map(rng) for _ in range(rng.randint(1, 3))],
    }


def probe_depth(sch, b, lo: int, hi: int):
    """Least n whose n-step preimage of b has >= lo parts, if that count is < hi.

    Only schedules that roughly double the part count per step qualify, so
    that jobs of one stratum do comparable work.
    """
    budget = nd.PropagationBudget(4 * hi)
    for n in range(1, math.ceil(math.log2(hi)) + 3):
        try:
            parts = len(nd.prefix_preimage(sch, b, n, budget).parts)
        except nd.BudgetExceeded:
            return None
        if parts >= lo:
            return (n, parts) if parts < hi else None
        if n >= 10 and parts < 8:
            return None
    return None


def corr_catalogue(rng: random.Random) -> dict:
    need = _slots("corr_deep")
    classes = {cls: [] for cls in need}
    order = sorted(need, key=lambda c: (wl.STRATA[c.split("-")[0]][0], c))
    while any(len(classes[c]) < need[c] for c in order):
        cls = next(c for c in order if len(classes[c]) < need[c])
        stratum, kind = cls.split("-")
        lo, hi = wl.STRATA[stratum]
        sched = corr_schedule(rng, kind == "corrpre")
        dom = gen.domain_of(sched)
        a, b = gen.random_set(rng, dom), gen.random_set(rng, dom)
        sch = gen.build_schedule(nd, sched)
        found = probe_depth(sch, gen.build_set(nd, b), lo, hi)
        if found is None:
            continue
        n, parts = found
        corr = kind.startswith("corr")
        job = {"kind": "corr" if corr else "prefix", "sched": sched, "A": a, "B": b,
               "N": n + 1 if corr else n, "parts": parts}
        classes[cls].append(job)
        print(f"  corr_deep {cls}: N={job['N']} parts={parts}", file=sys.stderr)
    return {"classes": classes}


# -- verdict_grid ------------------------------------------------------------------


def verdict_catalogue(rng: random.Random) -> dict:
    """Slots ``g<k>-h<H>-<w|i>``: grid 1/k, horizon H, weak-mixing outcome; plus ``ex31``."""
    classes = {}
    for cls, count in _slots("verdict_grid").items():
        jobs, seen = [], set()
        while len(jobs) < count:
            if cls == "ex31":
                sched, family, g, h = {"bundled": "example31"}, "bundled", F(1, 8), rng.randint(12, 20)
            else:
                grid, horizon, outcome = cls.split("-")
                g, h = F(1, int(grid[1:])), int(horizon[1:])
                if rng.random() < 0.15:
                    sched, family = {"bundled": rng.choice(gen.BUNDLED[:2] + gen.BUNDLED[3:])}, "bundled"
                elif outcome == "w":
                    sched, family = gen.random_schedule(rng, gen.mixing_biased_map), "mixing_biased"
                else:
                    sched, family = gen.random_schedule(rng, gen.plain_map), "plain"
                kind = nd.weakmix_verdict(gen.build_schedule(nd, sched), g, h).kind
                if kind[0].lower() != outcome:
                    continue
            job = {"sched": sched, "family": family, "g": gen.fr(g), "H": h,
                   "invariant": sched.get("bundled") == "example31"}
            if gen.job_id(job) not in seen:
                seen.add(gen.job_id(job))
                jobs.append(job)
        classes[cls] = jobs
    return {"classes": classes}


# -- cli_mix -------------------------------------------------------------------------


def cli_catalogue(rng: random.Random) -> dict:
    systems = {
        "m1": gen.random_schedule(rng, gen.mixing_biased_map),
        "m2": gen.random_schedule(rng, gen.mixing_biased_map, preamble=(1, 2)),
        "p1": gen.random_schedule(rng, gen.plain_map),
        "p2": gen.random_schedule(rng, gen.plain_map, preamble=(1, 2)),
        "q1": {"quadratic": [0, 4, -4]},
    }
    values = {
        f"v{i}": [gen.fr(F(rng.randint(0, 64), 64 * (1 + k // 4))) for k in range(rng.randint(20, 60))]
        for i in (1, 2)
    }
    exact_files = ["m1", "m2", "p1", "p2"]

    def system():
        if rng.random() < 0.5:
            name = rng.choice(gen.BUNDLED)
            return {"bundled": name}, name
        name = rng.choice(exact_files)
        return {"file": name}, "{sys:" + name + "}"

    def dom_of(ref):
        return gen.domain_of(ref if "bundled" in ref else systems[ref["file"]])

    whole = []  # when set, the next drawn set is the whole domain

    def a_set(ref):
        lo, hi = dom_of(ref)
        if whole:
            whole.pop()
            return [gen.literal(lo, hi, False, False)]
        return gen.random_set(rng, (lo, hi))

    def rational_in(ref, den=16):
        lo, hi = dom_of(ref)
        return gen.fr(lo + (hi - lo) * F(rng.randint(0, den), den))

    def make(cmd):
        if cmd == "malformed":
            return rng.choice([
                (["eval", "--system", "tent", "--x", "0.5"], 2),
                (["transitivity", "--system", "example31", "--grid", "1/7", "--H", "5"], 2),
                (["image", "--system", "tent", "--set", "[0,2]", "--n", "1"], 2),
                (["kvn", "--values", "{at_missing}"], 2),
                (["eval", "--system", "nosuch", "--x", "1/2"], 4),
                (["eval", "--system", "{missing}", "--x", "0"], 2),
            ]) + (None,)
        if cmd == "whole":  # a set argument that is the whole domain, as users often give
            whole.append(True)
            return make(rng.choice(["image", "preimage", "hitting", "correlate"]))
        if cmd.startswith("verify"):
            return ["verify", "example31" if cmd == "verify-ex31" else "tent"], 0, {}
        if cmd == "density":
            h = rng.randint(50, 500)
            members = sorted(rng.sample(range(h), rng.randint(0, h // 3)))
            t = rng.randint(1, h)
            return (["density", "--members", json.dumps(members), "--horizon", str(h),
                     "--tail-start", str(t)], 0,
                    {"members": members, "horizon": h, "tail_start": t})
        if cmd in ("mc-big", "mc-small"):
            # mc-big: 0.9-1e6 samples over 5 PL steps; mc-small: 1-3e5 samples, any map
            if cmd == "mc-small" and rng.random() < 0.4:
                ref, s = {"file": "q1"}, "{sys:q1}"
            else:
                ref, s = system()
            big = cmd == "mc-big"
            samples = rng.randint(900_000, 1_000_000) if big else rng.randint(100_000, 300_000)
            seed = rng.randint(0, 999)
            n = 5 if big else rng.randint(2, 12)
            argv = ["mc", "--system", s, "--n", str(n), "--samples", str(samples),
                    "--seed", str(seed)]
            lib = {"system": ref, "n": n, "samples": samples, "seed": seed}
            quadratic = ref.get("file") == "q1"
            if not big and rng.random() < 0.4:
                lo, hi = gen.UNIT if quadratic else dom_of(ref)
                x = lo + (hi - lo) * F(rng.randint(1, 15), 16)
                lib.update({"x": str(float(x)), "epsilon": "0.0625"})
                argv += ["--x", lib["x"], "--epsilon", "0.0625"]
            else:
                if quadratic:
                    A, B = gen.random_set(rng, gen.UNIT), gen.random_set(rng, gen.UNIT)
                else:
                    A, B = a_set(ref), a_set(ref)
                lib.update({"A": A, "B": B})
                argv += ["--A", gen.set_text(A), "--B", gen.set_text(B)]
            return argv, 0, lib
        if cmd == "weakmix16":
            name = rng.choice(["tent", "doubling", "tent_doubling_alternating"])
            ref, s = {"bundled": name}, name
        else:
            ref, s = system()
        argv = [cmd if cmd != "weakmix16" else "weakmix", "--system", s]
        lib = {"system": ref}
        if cmd == "eval":
            x, n = rational_in(ref), rng.randint(1, 20)
            argv += ["--x", x, "--n", str(n)]
            lib.update({"x": x, "n": n})
        elif cmd in ("image", "preimage"):
            st, n = a_set(ref), rng.randint(1, 4)
            argv += ["--set", gen.set_text(st), "--n", str(n)]
            lib.update({"set": st, "n": n})
        elif cmd == "hitting":
            u, v, h = a_set(ref), a_set(ref), rng.randint(5, 10)
            argv += ["--U", gen.set_text(u), "--V", gen.set_text(v), "--H", str(h)]
            lib.update({"U": u, "V": v, "H": h})
        elif cmd in ("correlate", "cesaro"):
            A, B, N = a_set(ref), a_set(ref), rng.randint(4, 8)
            argv += ["--A", gen.set_text(A), "--B", gen.set_text(B), "--N", str(N)]
            lib.update({"A": A, "B": B, "N": N})
            if cmd == "correlate" and rng.random() < 0.5:
                argv += ["--csv", "{csv}"]
            if cmd == "cesaro" and rng.random() < 0.5:
                lib["n"] = rng.randint(1, N)
                argv += ["--n", str(lib["n"])]
        elif cmd == "kvn":
            argv = ["kvn"]
            lib = {}
            if rng.random() < 0.5:
                name = rng.choice(sorted(values))
                lib["values"] = values[name]
                argv += ["--values", "{values:" + name + "}" if rng.random() < 0.5
                         else json.dumps(values[name])]
            else:
                ref, s = system()
                A, B, N = a_set(ref), a_set(ref), rng.randint(6, 8)
                argv += ["--system", s, "--A", gen.set_text(A), "--B", gen.set_text(B),
                         "--N", str(N)]
                lib.update({"system": ref, "A": A, "B": B, "N": N})
            if rng.random() < 0.5:
                th = [gen.fr(F(1, 2 ** k)) for k in range(1, rng.randint(2, 6))]
                lib["thresholds"] = th
                argv += ["--thresholds", json.dumps(th)]
        elif cmd in ("transitivity", "mixing", "weakmix", "weakmix16"):
            g = {"weakmix16": "1/16", "weakmix": "1/4"}.get(cmd) or rng.choice(["1/4", "1/8"])
            h = 16 if cmd == "weakmix16" else rng.randint(8, 16)
            argv += ["--grid", g, "--H", str(h)]
            lib.update({"grid": g, "H": h})
        elif cmd == "sensitivity":
            d, sc, h = rng.choice(["1/8", "1/4"]), rng.choice(["1/16", "1/32"]), \
                rng.randint(10, 30)
            argv += ["--delta", d, "--scale", sc, "--H", str(h)]
            lib.update({"delta": d, "scale": sc, "H": h})
        return argv, 0, lib

    classes = {}
    for cls, count in _slots("cli_mix").items():
        jobs = []
        for _ in range(count):
            argv, expect, lib = make(cls)
            cmd = argv[0]
            jobs.append({"cmd": cmd, "argv": argv, "expect": expect, "lib": lib})
        classes[cls] = jobs
    return {"classes": classes, "systems": systems, "values": values}


# -- references and the seed-commit gate ---------------------------------------------


def record(workload: str, catalogue: dict) -> tuple[dict, list]:
    refs, failing = {}, []
    work = os.path.join(".perfbench_out", f"catalogue-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if workload == "cli_mix":
            runner = wl.CliMix(nd, work)
            runner.write_inputs(catalogue)
        else:
            runner = {"corr_deep": wl.CorrDeep, "verdict_grid": wl.VerdictGrid}[workload](nd, work)
        index = 0
        for cls, jobs in catalogue["classes"].items():
            for job in jobs:
                jid = gen.job_id(job)
                t0 = time.perf_counter()
                if workload == "cli_mix":
                    p = runner.prepare(job, index)
                    out = runner.run(p)
                    ref = None if job["lib"] is None else wl.summarize(
                        wl.library_result(nd, job, catalogue["systems"]))
                    status, _ = runner.check(p, out, ref, catalogue["systems"])
                else:
                    p = runner.prepare(job)
                    out = runner.run(p)
                    ref = runner.content(job, out) if workload == "corr_deep" \
                        else runner.reference(p, out)
                    status, _ = runner.check(p, out, ref)
                refs[jid] = ref
                index += 1
                took = time.perf_counter() - t0
                print(f"  {workload} {cls} {jid} {took:.3f}s {status}", file=sys.stderr)
                if status != "ok":
                    failing.append({"id": jid, "class": cls, "status": status})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return refs, failing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), action="append")
    ap.add_argument("--seed", type=int, default=20160605)
    args = ap.parse_args()
    builders = {"corr_deep": corr_catalogue, "verdict_grid": verdict_catalogue,
                "cli_mix": cli_catalogue}
    for workload in args.workload or sorted(wl.WORKLOADS):
        rng = random.Random(f"{workload}:catalogue:{args.seed}")
        catalogue = builders[workload](rng)
        catalogue["catalogue_seed"] = args.seed
        refs, failing = record(workload, catalogue)
        with open(os.path.join(wl.DATA, f"{workload}.jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(catalogue, fh, indent=1, sort_keys=True)
        with open(os.path.join(wl.DATA, f"{workload}.refs.json"), "w", encoding="utf-8") as fh:
            json.dump({"failing_at_definition": failing, "refs": refs}, fh, indent=1,
                      sort_keys=True)
        print(f"{workload}: {sum(map(len, catalogue['classes'].values()))} jobs, "
              f"{len(failing)} failing at this commit", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
