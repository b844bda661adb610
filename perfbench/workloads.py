"""The three workloads: how a job is built, run, and checked.

A workload is a catalogue of jobs in classes (``data/<workload>.jobs.json``)
and the number of jobs each class contributes to one *pass*.  The seed picks
which catalogue jobs make up the pass and in which order; the timed loop then
repeats the pass.  ``data/<workload>.refs.json`` holds, for every catalogue
job, the exact mathematical content of its result as computed at the commit
that defined the benchmark.

Every job is checked once per run, outside the timed region:

* ``failed``: the job raised, exited with a code the README contract does
  not give for its input, or refused a valid input;
* ``incorrect``: the job answered, but the answer disagrees with the stored
  reference or with an independent check (Monte Carlo, implication chain,
  certificate re-check, the library's own result for a CLI call).

A run is ``correct`` only if no job is incorrect and every failed job is one
that already failed when the benchmark was defined (``failing_at_definition``
in the refs file).  A job that newly raises, exits with the wrong code or
refuses a valid input makes the run incorrect, so that a job failing fast can
never pass for a speed-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction as F

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

DELTA = F(1, 8)  # sensitivity radius used by every verdict_grid job
MC_SAMPLES = 20_000  # samples per Monte Carlo cross-check in corr_deep


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

# corr_deep strata: final part-count windows; cost classes are ~3x apart.
STRATA = {
    "s1": (100, 160),
    "s2": (320, 512),
    "s3": (1000, 1600),
    "s4": (3200, 5120),
    "s5": (10000, 16000),
    "s6": (60000, 96000),
}

# Jobs per class in one pass.  The classes are cost classes, and the counts
# put the median and the 90th percentile of a pass inside one class each, never
# on the border between two, so that they do not jump between seeds.
# corr_deep: median among s3-prefix, p90 among s5-prefix and s4-corrpre (a
# preamble costs a correlation several times its stratum); verdict_grid: median
# among the g16 jobs, p90 among g32; cli_mix: median among the cheap commands,
# p90 among mc-big, and the one weakmix16 job above it.  A pass leaves at least
# four jobs beyond the p90.
WORKLOADS = {
    "corr_deep": {
        "pass": {
            "s1-prefix": 5, "s1-corr": 5, "s2-prefix": 5, "s2-corr": 4,
            "s3-prefix": 12,
            "s3-corr": 4, "s4-prefix": 3, "s4-corr": 2, "s3-corrpre": 3,
            "s5-prefix": 5, "s4-corrpre": 1,
            "s6-prefix": 1,
        },
        "tiny": ["s1-corr", "s1-prefix"],
    },
    "verdict_grid": {
        "pass": {
            **{f"g8-h{h}-{o}": 2 for h in (12, 16, 20) for o in "wi"},
            **{f"g16-h{h}-{o}": 3 if o == "i" else 1 for h in (12, 14, 16, 18, 20) for o in "wi"},
            "ex31": 2, "g32-h16-i": 5, "g32-h16-w": 1,
        },
        "tiny": ["g8-h12-w", "ex31"],
    },
    "cli_mix": {
        "pass": {
            "eval": 14, "density": 10, "image": 12, "preimage": 12, "hitting": 12, "malformed": 6,
            "correlate": 3, "cesaro": 2, "kvn": 3, "transitivity": 2, "mixing": 2, "weakmix": 2,
            "sensitivity": 2, "verify-ex31": 1, "verify-tent": 1, "whole": 3,
            "mc-small": 3, "mc-big": 20, "weakmix16": 1,
        },
        "tiny": ["eval", "density", "malformed"],
    },
}


def load_catalogue(workload: str) -> dict:
    with open(os.path.join(DATA, f"{workload}.jobs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_refs(workload: str) -> dict:
    """``{"refs": {job id: content}, "failing_at_definition": [{"id", ...}, ...]}``"""
    with open(os.path.join(DATA, f"{workload}.refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sample_pass(workload: str, catalogue: dict, seed: int, tiny: bool = False) -> list[tuple]:
    """The seed's pass as (class, job) pairs: a fixed number per class, in seeded order."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for cls, count in spec["pass"].items():
        if tiny:
            count = 1 if cls in spec["tiny"] else 0
        jobs.extend((cls, job) for job in rng.sample(catalogue["classes"][cls], count))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def fr(q) -> str:
    return gen.fr(F(q))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(obj):
    """Content as stored in a reference: literal when short, else its sha256."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return obj if len(text) <= 2000 else {"sha256": digest(obj)}


def result_bytes(nd, result) -> int:
    """Size of the compact JSON serialization of a library result."""

    def plain(x):
        if isinstance(x, nd.IntervalSet):
            return x.to_json()
        if isinstance(x, nd.Interval):
            return str(x)
        if isinstance(x, F):
            return fr(x)
        if dataclasses.is_dataclass(x):
            return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        return str(x)

    return len(json.dumps(result, default=plain, separators=(",", ":")).encode())


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""

    def bad(token):
        raise ValueError(f"non-finite number {token} in JSON output")

    return json.loads(text, parse_constant=bad)


# ---------------------------------------------------------------------------
# corr_deep
# ---------------------------------------------------------------------------


class CorrDeep:
    """Exact correlation_series / prefix_preimage on random and bundled schedules."""

    def __init__(self, nd, workdir: str):
        self.nd = nd

    def prepare(self, job: dict) -> dict:
        nd = self.nd
        return {
            "job": job,
            "sch": gen.build_schedule(nd, job["sched"]),
            "A": gen.build_set(nd, job["A"]),
            "B": gen.build_set(nd, job["B"]),
        }

    def run(self, p: dict):
        nd, job = self.nd, p["job"]
        if job["kind"] == "corr":
            return nd.correlation_series(p["sch"], p["A"], p["B"], job["N"])
        return nd.prefix_preimage(p["sch"], p["B"], job["N"])

    def content(self, job: dict, result) -> dict:
        if job["kind"] == "corr":
            return {"values": [fr(v) for v in result.values], "product": fr(result.product)}
        return {"parts": len(result.parts), "measure": fr(result.measure()),
                "sha256": hashlib.sha256("\n".join(result.to_json()).encode()).hexdigest()}

    def check(self, p: dict, result, ref) -> tuple[str, int]:
        nd, job = self.nd, p["job"]
        if self.content(job, result) != ref:
            return "incorrect: result differs from the stored reference", 0
        sch, dom = p["sch"], nd.IntervalSet((p["sch"].domain,))
        length = sch.domain.hi - sch.domain.lo
        if job["kind"] == "corr":
            lags = sorted({0, job["N"] // 2, job["N"] - 1})
            probes = [(p["A"], lag, result.values[lag]) for lag in lags]
        else:
            probes = [(dom, job["N"], result.measure() / length)]
        seed = int(gen.job_id(job)[:8], 16)
        for a, lag, exact in probes:
            est, _ = nd.mc_correlation(sch, a, p["B"], lag, nd.SampleConfig(MC_SAMPLES, seed))
            c = float(exact)
            sigma = math.sqrt(max(c * (1 - c), 1 / MC_SAMPLES) / MC_SAMPLES)
            if abs(est - c) > 5 * sigma:
                return f"incorrect: Monte Carlo {est} vs exact {c} at lag {lag} (>5 sigma)", 0
        return "ok", result_bytes(nd, result)


# ---------------------------------------------------------------------------
# verdict_grid
# ---------------------------------------------------------------------------


def least_bit(m: int) -> int:
    return (m & -m).bit_length()


class VerdictGrid:
    """The verdict_sweep triple plus sensitivity (and the invariant-set certificate)."""

    INVARIANT = {"U": ["(0,1)"], "V": ["(1,3/2)"], "W": ["[0,1]"]}

    def __init__(self, nd, workdir: str):
        self.nd = nd

    def prepare(self, job: dict) -> dict:
        nd = self.nd
        p = {"job": job, "sch": gen.build_schedule(nd, job["sched"]), "g": F(job["g"])}
        if job.get("invariant"):
            p.update({k: gen.build_set(nd, v) for k, v in self.INVARIANT.items()})
        return p

    def run(self, p: dict):
        nd, sch, g, h = self.nd, p["sch"], p["g"], p["job"]["H"]
        mix = nd.mixing_verdict(sch, g, h)
        weak = nd.weakmix_verdict(sch, g, h)
        trans = nd.transitivity_verdict(sch, g, h)
        sens = nd.sensitivity_certificate(sch, DELTA, g, h)
        cert = nd.invariant_set_certificate(sch, p["U"], p["V"], p["W"]) if "W" in p else None
        return trans, weak, mix, sens, cert

    def masks(self, p: dict) -> list[list[int]]:
        """Full hitting masks from the public hitting_set, one call per cell pair."""
        nd = self.nd
        cells = nd.open_grid(p["sch"].domain, p["g"])
        return [[sum(1 << (n - 1) for n in nd.hitting_set(p["sch"], u, v, p["job"]["H"]).members)
                 for v in cells] for u in cells]

    @staticmethod
    def sensitivity_content(res) -> dict:
        if res.passed:
            return {"passed": True,
                    "per_cell": [[str(w.cell), w.n, fr(w.diameter)] for w in res.per_cell]}
        return {"passed": False,
                "failures": [[str(f.cell), fr(f.max_diameter)] for f in res.failures]}

    def reference(self, p: dict, result) -> dict:
        trans, weak, mix, sens, cert = result
        return {"masks": self.masks(p), "kinds": [trans.kind, weak.kind, mix.kind],
                "tail": mix.tail, "sensitivity": self.sensitivity_content(sens),
                "certificate": None if cert is None else self.nd.recheck_certificate(cert, p["sch"])}

    def check(self, p: dict, result, ref) -> tuple[str, int]:
        nd = self.nd
        trans, weak, mix, sens, cert = result
        masks, h = ref["masks"], p["job"]["H"]
        k = len(masks)
        w, inc = nd.WITNESSED_UP_TO, nd.INCONCLUSIVE
        flat = {(u, v): masks[u][v] for u in range(k) for v in range(k)}
        # transitivity: least hitting index per pair
        exp_w = sorted(((pair, least_bit(m)) for pair, m in flat.items() if m))
        exp_u = sorted(pair for pair, m in flat.items() if not m)
        if (sorted(trans.witnesses), sorted(trans.unhit)) != (exp_w, exp_u) or \
                trans.kind != (w if not exp_u else inc):
            return "incorrect: transitivity verdict disagrees with the reference masks", 0
        # mixing: least tail start per pair
        full = (1 << h) - 1
        starts = {pair: (full & ~m).bit_length() + 1 for pair, m in flat.items()}
        exp_w = sorted((pair, s) for pair, s in starts.items() if s <= h)
        exp_u = sorted(pair for pair, s in starts.items() if s > h)
        tail = None if exp_u else max([1] + [s for _, s in exp_w])
        if (sorted(mix.witnesses), sorted(mix.unhit), mix.tail) != (exp_w, exp_u, tail) or \
                mix.kind != (w if not exp_u else inc):
            return "incorrect: mixing verdict disagrees with the reference masks", 0
        # weak mixing: every listed pair-pair is right, and the counts add up
        counts = Counter(flat.values())
        hits = sum(c1 * c2 for m1, c1 in counts.items() for m2, c2 in counts.items() if m1 & m2)
        if len(weak.witnesses) != hits or len(weak.unhit) != k ** 4 - hits or \
                weak.kind != (w if hits == k ** 4 else inc):
            return "incorrect: weak-mixing verdict counts disagree with the reference masks", 0
        for (p1, p2), n in weak.witnesses:
            common = flat[p1] & flat[p2]
            if not common or n != least_bit(common):
                return f"incorrect: weak-mixing witness {p1},{p2} -> {n}", 0
        for p1, p2 in weak.unhit:
            if flat[p1] & flat[p2]:
                return f"incorrect: weak-mixing pair {p1},{p2} listed unhit", 0
        if [trans.kind, weak.kind, mix.kind] != ref["kinds"] or mix.tail != ref["tail"]:
            return "incorrect: verdict kinds differ from the stored reference", 0
        if (mix.witnessed and not weak.witnessed) or (weak.witnessed and not trans.witnessed):
            return "incorrect: implication chain mixing => weak mixing => transitivity broken", 0
        if self.sensitivity_content(sens) != ref["sensitivity"]:
            return "incorrect: sensitivity certificate differs from the stored reference", 0
        if ref["certificate"] is not None:
            if cert is None or not nd.recheck_certificate(cert, p["sch"]):
                return "incorrect: invariant-set certificate does not re-check", 0
            # the certificate forbids every hit from a cell in U to a cell in V
            cells = nd.open_grid(p["sch"].domain, p["g"])
            for u, cu in enumerate(cells):
                for v, cv in enumerate(cells):
                    if cu.subset_of(p["U"]) and cv.subset_of(p["V"]) and masks[u][v]:
                        return "incorrect: certificate contradicts a hitting time", 0
        return "ok", result_bytes(nd, result)


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

EXIT_OK, EXIT_CRASH = 0, 1  # a raised exception is what a traceback exit looks like


class CliMix:
    """One in-process nadyn.cli.main(argv) call per job, report written with --out."""

    def __init__(self, nd, workdir: str):
        self.nd = nd
        self.cli = importlib.import_module("nadyn.cli")
        self.workdir = workdir

    # -- set-up: files the argv refer to --------------------------------------

    def write_inputs(self, catalogue: dict) -> None:
        nd = self.nd
        for name, spec in catalogue["systems"].items():
            path = self.path(f"sys-{name}.json")
            if "quadratic" in spec:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"domain": "[0,1]", "preamble": [],
                               "cycle": [{"quadratic": spec["quadratic"]}]}, fh)
            else:
                nd.write_system_file(path, gen.build_schedule(nd, spec))
        for name, values in catalogue["values"].items():
            with open(self.path(f"values-{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(values, fh)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, job: dict, index: int) -> dict:
        out = self.path(f"out-{index}.json")
        subst = {"{out}": out, "{csv}": self.path(f"series-{index}.csv"),
                 "{missing}": self.path("missing.json"),
                 "{at_missing}": "@" + self.path("missing.json")}

        def arg(a: str) -> str:
            if a.startswith("{sys:"):
                return self.path(f"sys-{a[5:-1]}.json")
            if a.startswith("{values:"):
                return "@" + self.path(f"values-{a[8:-1]}.json")
            return subst.get(a, a)

        return {"job": job, "argv": [arg(a) for a in job["argv"]] + ["--out", out], "out": out}

    def run(self, p: dict):
        if os.path.exists(p["out"]):
            os.remove(p["out"])
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(p["argv"])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an escaping exception is a traceback exit
            return {"code": EXIT_CRASH, "stderr": f"{type(e).__name__}: {e}"}
        return {"code": code, "stderr": stderr.getvalue()}

    # -- the gate ---------------------------------------------------------------

    def check(self, p: dict, outcome: dict, ref, systems: dict) -> tuple[str, int]:
        job = p["job"]
        if outcome["code"] != job["expect"]:
            return (f"failed: exit {outcome['code']}, README contract says {job['expect']}: "
                    f"{outcome['stderr'].strip()[:160]}"), 0
        if job["expect"] != EXIT_OK:
            try:
                diag = strict_json(outcome["stderr"])
            except ValueError:
                return "failed: diagnostic is not strict JSON", 0
            return ("ok", 0) if "error" in diag else ("failed: diagnostic lacks 'error'", 0)
        try:
            with open(p["out"], encoding="utf-8") as fh:
                report = strict_json(fh.read())
        except ValueError as e:
            return f"incorrect: report is not strict JSON ({e})", 0
        got = stable_fields(job["cmd"], report["result"])
        want = library_result(self.nd, job, systems)
        if got != want:
            return "incorrect: report result differs from the library result", 0
        if summarize(want) != ref:
            return "incorrect: library result differs from the stored reference", 0
        return "ok", len(json.dumps(report["result"], separators=(",", ":")).encode())


def _norm_unhit(cmd: str, unhit: list) -> list:
    if cmd == "weakmix":
        return sorted(u["pair1"] + u["pair2"] for u in unhit)
    return sorted([u["U"], u["V"]] for u in unhit)


def stable_fields(cmd: str, r: dict) -> dict:
    """The result fields the report promises to keep stable, as JSON values."""
    if cmd in ("transitivity", "weakmix", "mixing"):
        return {"kind": r["kind"], "unhit": _norm_unhit(cmd, r["unhit"]), "tail": r.get("tail")}
    if cmd == "verify":
        return {"passed": r["passed"]}
    if cmd == "kvn" and r["kind"] == "NOT_EXTRACTABLE":
        return {"kind": r["kind"], "threshold_index": r["threshold_index"]}
    if cmd == "density":
        return {"upper": r["upper"], "lower": r["lower"]}
    return r


def _series_json(s) -> dict:
    return {"values": [fr(v) for v in s.values], "product": fr(s.product),
            "deviations": [fr(d) for d in s.deviations], "mu_A": fr(s.mu_a), "mu_B": fr(s.mu_b),
            "raw_values": [fr(v) for v in s.raw_values], "domain_measure": fr(s.domain_measure)}


def library_result(nd, job: dict, systems: dict) -> dict:
    """Compute a CLI job's stable result fields straight from the library."""
    cmd, a = job["cmd"], job["lib"]
    sys_spec = a.get("system")
    if sys_spec is not None and "file" in sys_spec:
        sys_spec = systems[sys_spec["file"]]
    sch = gen.build_schedule(nd, sys_spec) if sys_spec and "quadratic" not in sys_spec else None

    def S(key):
        return gen.build_set(nd, a[key])

    if cmd == "eval":
        x = F(a["x"])
        for i in range(a["n"]):
            x = sch.map_at(i).eval_point(x)
        return {"value": fr(x)}
    if cmd in ("image", "preimage"):
        fn = nd.prefix_image if cmd == "image" else nd.prefix_preimage
        out = fn(sch, S("set"), a["n"])
        return {cmd: out.to_json(), "measure": fr(out.measure())}
    if cmd in ("correlate", "cesaro"):
        s = nd.correlation_series(sch, S("A"), S("B"), a["N"])
        if cmd == "correlate":
            return _series_json(s)
        n = a.get("n") or a["N"]
        return {"cesaro_deviation": fr(nd.cesaro_deviation(s, n)),
                "prefix_averages": [fr(nd.cesaro_deviation(s, k)) for k in range(1, s.horizon + 1)],
                "series": _series_json(s)}
    if cmd == "density":
        st = nd.density_stats(nd.IndexSet(a["horizon"], tuple(a["members"])), a["tail_start"])
        return {"upper": fr(st.upper), "lower": fr(st.lower)}
    if cmd == "kvn":
        thresholds = tuple(F(t) for t in a["thresholds"]) if "thresholds" in a else nd.DEFAULT_THRESHOLDS
        if "values" in a:
            values = [F(v) for v in a["values"]]
        else:
            values = list(nd.correlation_series(sch, S("A"), S("B"), a["N"]).deviations)
        try:
            rep = nd.extract_exceptional_set(values, thresholds)
        except nd.NotExtractable as e:
            return {"kind": "NOT_EXTRACTABLE", "threshold_index": e.threshold_index}
        return {
            "kind": "EXTRACTED", "horizon": rep.horizon,
            "thresholds": [fr(t) for t in rep.thresholds], "breakpoints": list(rep.breakpoints),
            "exceptional_set": list(rep.exceptional.members),
            "density": {"upper": fr(rep.density.upper), "lower": fr(rep.density.lower)},
            "tail_density": {"upper": fr(rep.tail_density.upper), "lower": fr(rep.tail_density.lower)},
            "tail_start": rep.tail_start, "tail_max": fr(rep.tail_max),
            "off_exceptional_max": fr(rep.off_max), "sup_value": fr(rep.sup_value),
            "cesaro_average": fr(rep.cesaro),
        }
    if cmd == "hitting":
        hs = nd.hitting_set(sch, S("U"), S("V"), a["H"])
        return {"hitting_times": list(hs.members), "empty": hs.is_empty}
    if cmd in ("transitivity", "weakmix", "mixing"):
        fn = {"transitivity": nd.transitivity_verdict, "mixing": nd.mixing_verdict,
              "weakmix": nd.weakmix_verdict}[cmd]
        g = F(a["grid"])
        v = fn(sch, g, a["H"])
        cells = [str(c.parts[0]) for c in nd.open_grid(sch.domain, g)]
        if cmd == "weakmix":
            unhit = sorted([cells[i] for i in p1 + p2] for p1, p2 in v.unhit)
        else:
            unhit = sorted([cells[u], cells[w]] for u, w in v.unhit)
        return {"kind": v.kind, "unhit": unhit, "tail": v.tail}
    if cmd == "sensitivity":
        res = nd.sensitivity_certificate(sch, F(a["delta"]), F(a["scale"]), a["H"])
        doc = {"kind": "CERTIFICATE" if res.passed else "FAILURE_REPORT", "passed": res.passed,
               "delta": fr(res.delta), "scale": fr(res.scale), "horizon": res.horizon}
        if res.passed:
            doc["per_cell"] = [{"cell": str(w.cell), "n": w.n, "diameter": fr(w.diameter)}
                               for w in res.per_cell]
        else:
            doc["failing_cells"] = [{"cell": str(f.cell), "max_diameter": fr(f.max_diameter)}
                                    for f in res.failures]
        return doc
    if cmd == "mc":
        if sch is None:
            c0, c1, c2 = sys_spec["quadratic"]
            fs = nd.FloatSchedule.from_steps(0.0, 1.0, (), (nd.QuadraticMap(c0, c1, c2),))
        else:
            fs = nd.FloatSchedule.from_schedule(sch)
        cfg = nd.SampleConfig(sample_count=a["samples"], seed=a["seed"])
        if "x" in a:
            out = {"max_separation": nd.mc_separation(fs, float(a["x"]), float(a["epsilon"]),
                                                      a["n"], cfg)}
        else:
            est, err = nd.mc_correlation(fs, S("A"), S("B"), a["n"], cfg)
            out = {"estimate": est, "stderr": err}
        out["estimate_only"] = fs.estimate_only
        return out
    if cmd == "verify":
        return {"passed": True}
    raise ValueError(f"no library counterpart for {cmd!r}")
