"""Outside-in tracing of nadyn's public functions.

:class:`Tracer` replaces each listed function with a wrapper that records a
span: name, start, end, parent span and job id, plus up to two integer
attributes (part counts, hit flags, sample counts, report sizes).  The
program's source is not touched.  Names are rebound at every import site:
``from .intervals import canonicalize`` gives ``nadyn.plmaps`` its own
binding, and ``IntervalSet.__and__`` / ``__sub__`` are the same function
objects as ``intersect`` / ``subtract``, so every module attribute and class
attribute that *is* the original function is replaced.

Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, owner, attribute); owner is a module name or "module:Class"
TARGETS = [
    ("intervals.canonicalize", "nadyn.intervals", "canonicalize"),
    ("intervals.intersect", "nadyn.intervals:IntervalSet", "intersect"),
    ("intervals.meets", "nadyn.intervals:IntervalSet", "meets"),
    ("intervals.subtract", "nadyn.intervals:IntervalSet", "subtract"),
    ("intervals.measure", "nadyn.intervals:IntervalSet", "measure"),
    ("plmaps.preimage_set", "nadyn.plmaps:PLMap", "preimage_set"),
    ("plmaps.image_set", "nadyn.plmaps:PLMap", "image_set"),
    ("plmaps.prefix_preimage", "nadyn.plmaps", "prefix_preimage"),
    ("plmaps.prefix_image", "nadyn.plmaps", "prefix_image"),
    ("mixing.correlation_series", "nadyn.mixing", "correlation_series"),
    ("mixing.extract_exceptional_set", "nadyn.mixing", "extract_exceptional_set"),
    ("mixing.cesaro_deviation", "nadyn.mixing", "cesaro_deviation"),
    ("topology.transitivity_verdict", "nadyn.topology", "transitivity_verdict"),
    ("topology.weakmix_verdict", "nadyn.topology", "weakmix_verdict"),
    ("topology.mixing_verdict", "nadyn.topology", "mixing_verdict"),
    ("topology.sensitivity_certificate", "nadyn.topology", "sensitivity_certificate"),
    ("topology.hitting_set", "nadyn.topology", "hitting_set"),
    ("topology.invariant_set_certificate", "nadyn.topology", "invariant_set_certificate"),
    ("montecarlo.mc_correlation", "nadyn.montecarlo", "mc_correlation"),
    ("montecarlo.mc_separation", "nadyn.montecarlo", "mc_separation"),
    ("sysio.parse_system_file", "nadyn.sysio", "parse_system_file"),
    ("sysio.parse_mc_system_file", "nadyn.sysio", "parse_mc_system_file"),
    ("sysio.parse_set_argument", "nadyn.sysio", "parse_set_argument"),
    ("sysio.write_system_file", "nadyn.sysio", "write_system_file"),
    ("cli.main", "nadyn.cli", "main"),
]

VERDICTS = ("topology.transitivity_verdict", "topology.weakmix_verdict", "topology.mixing_verdict")
BUDGET = 1 << 20  # nadyn's default part budget, used by every job here


def _attrs(name: str):
    """Extract (a, b) integer attributes for a span from (args, result)."""
    if name == "intervals.canonicalize":
        return lambda args, out: (len(args[0]), len(out.parts))
    if name in ("plmaps.preimage_set", "plmaps.image_set"):
        return lambda args, out: (len(out.parts), 0)
    if name == "intervals.meets":
        return lambda args, out: (int(out), 0)
    if name == "mixing.correlation_series":
        return lambda args, out: (out.horizon, 0)
    if name in ("montecarlo.mc_correlation", "montecarlo.mc_separation"):
        # samples x orbit steps; the config and n are the last two arguments
        return lambda args, out: (args[-1].sample_count * args[-2], 0)
    return None


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.a = array("q")
        self.b = array("q")
        self.stack = [-1]
        self.current_job = -1
        self.report_bytes = None  # callable(argv) -> size of the report main() wrote
        self._saved = []

    # -- installing ------------------------------------------------------------

    def _wrap(self, nid: int, name: str, fn):
        attrs = _attrs(name)
        clock = time.perf_counter
        name_id, start, end, parent, job, a, b = (
            self.name_id, self.start, self.end, self.parent, self.job, self.a, self.b)
        stack = self.stack
        materialize = name == "intervals.canonicalize"
        is_main = name == "cli.main"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.current_job)
            a.append(0)
            b.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                if materialize and not isinstance(args[0], (list, tuple)):
                    args = (list(args[0]),) + args[1:]
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if attrs is not None:
                a[idx], b[idx] = attrs(args, out)
            elif is_main and tracer.report_bytes is not None:
                a[idx] = tracer.report_bytes(args[0] if args else kwargs.get("argv"))
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nadyn" or n.startswith("nadyn."))]
        for nid, (name, owner, attr) in enumerate(TARGETS):
            mod_name, _, cls_name = owner.partition(":")
            holder = getattr(sys.modules[mod_name], cls_name) if cls_name else sys.modules[mod_name]
            original = getattr(holder, attr)
            wrapper = self._wrap(nid, name, original)
            if cls_name:
                sites = [(holder, k) for k, v in vars(holder).items() if v is original]
            else:
                sites = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for obj, key in sites:
                self._saved.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, self times and ratios derived from the spans."""
    s = tracer.arrays()
    n_names = len(tracer.names)
    dur = s["end"] - s["start"]
    parent = s["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    names = s["name"]
    calls = np.bincount(names, minlength=n_names)
    self_by = np.bincount(names, weights=self_time, minlength=n_names)
    a_by = np.bincount(names, weights=s["a"], minlength=n_names)
    b_by = np.bincount(names, weights=s["b"], minlength=n_names)
    nid = {n: i for i, n in enumerate(tracer.names)}

    # nearest enclosing correlation_series / verdict span; parents precede children
    corr_id = nid["mixing.correlation_series"]
    verdict_ids = {nid[v] for v in VERDICTS}
    under_corr = np.zeros(len(names), dtype=bool)
    under_verdict = np.zeros(len(names), dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            pn = names[p]
            under_corr[i] = under_corr[p] or pn == corr_id
            under_verdict[i] = under_verdict[p] or pn in verdict_ids

    def count(name, mask=None):
        sel = names == nid[name]
        return int(np.count_nonzero(sel if mask is None else sel & mask))

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    out = {}
    for name in tracer.names:
        i = nid[name]
        out[f"{name}.calls"] = (int(calls[i]), "count")
        out[f"{name}.self_s"] = (float(self_by[i]), "s")
    out["intervals.canonicalize.parts_in"] = (int(a_by[nid["intervals.canonicalize"]]), "count")
    out["intervals.canonicalize.parts_out"] = (int(b_by[nid["intervals.canonicalize"]]), "count")
    meets = nid["intervals.meets"]
    out["intervals.meets.hit_ratio"] = (ratio(a_by[meets], calls[meets]), "ratio")
    peak = 0
    for name in ("plmaps.preimage_set", "plmaps.image_set"):
        sel = names == nid[name]
        out[f"{name}.parts_out"] = (int(a_by[nid[name]]), "count")
        if np.any(sel):
            peak = max(peak, int(s["a"][sel].max()))
    out["plmaps.parts_peak"] = (peak, "count")
    out["plmaps.budget_headroom"] = (ratio(BUDGET, peak), "ratio")
    lags = a_by[corr_id]
    out["mixing.steps_per_lag"] = (ratio(count("plmaps.preimage_set", under_corr), lags), "ratio")
    verdict_calls = sum(int(calls[v]) for v in verdict_ids)
    images = count("plmaps.image_set", under_verdict)
    out["topology.image_steps_per_verdict"] = (ratio(images, verdict_calls), "ratio")
    out["topology.meets_per_image"] = (ratio(count("intervals.meets", under_verdict), images), "ratio")
    mc = [nid["montecarlo.mc_correlation"], nid["montecarlo.mc_separation"]]
    steps = sum(a_by[i] for i in mc)
    out["montecarlo.orbit_steps_per_s"] = (ratio(steps, sum(self_by[i] for i in mc)), "1/s")
    out["cli.report_bytes"] = (int(a_by[nid["cli.main"]]), "bytes")
    return out
