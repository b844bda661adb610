"""Command-line surface: one analysis per invocation, one JSON line out.

Every report echoes the fully resolved request -- system, parameters,
defaults, budget, and the index conventions (hitting times start at 1,
correlation lags at 0) -- so a report is interpretable on its own.  Reports
and diagnostics are one line of compact strict JSON, from json's C encoder.

`main` alone builds a report: it resolves the budget, loads the system the
request names (`--system`, or a `verify` scenario's bundled system), and
writes command, tool_version, index_base, budget, system, parameters, result
in that order.  A handler takes ``(args, system, budget)``, with ``system``
None when the request names none, and returns ``(parameters, result)``.

Exit codes: 0 completed analysis (INCONCLUSIVE and not-extractable
verdicts included), 1 a `verify` scenario with a failed check, 2 malformed
input, 3 part budget exceeded, 4 unknown command or example name.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from itertools import accumulate, chain
from typing import Iterable, Iterator

from . import __version__
from .errors import (
    BudgetExceeded,
    MalformedInput,
    NotExtractable,
    NotInvariant,
    UnknownExample,
)
from .intervals import IntervalSet, _quoted, format_rational as _fr, parse_rational
from .mixing import (
    DEFAULT_THRESHOLDS,
    ExceptionalSetReport,
    IndexSet,
    cesaro_deviation,
    correlation_series,
    density_stats,
    extract_exceptional_set,
)
from .montecarlo import FloatSchedule, SampleConfig, _double, mc_correlation, mc_separation
from .plmaps import (
    BUNDLED_EXAMPLE_NAMES,
    DEFAULT_BUDGET,
    PropagationBudget,
    Schedule,
    bundled_example,
    check_within,
    prefix_image,
    prefix_preimage,
)
from .sysio import (
    _json_rational,
    decode_json,
    parse_mc_system_file,
    parse_set_argument,
    parse_system_file,
    schedule_to_dict,
)
from .topology import (
    ListingSide,
    SensitivityCertificate,
    SensitivityFailure,
    Verdict,
    certified_fail_verdict,
    hitting_set,
    invariant_set_certificate,
    mixing_verdict,
    open_grid,
    sensitivity_certificate,
    sensitivity_constant,
    transitivity_verdict,
    weakmix_verdict,
)

INDEX_BASE = {"hitting": 1, "correlation": 0}
BUDGET_ENV = "NADYN_BUDGET"


def _resolve_budget(flag_value: int | None) -> tuple[PropagationBudget, str]:
    for name, value, source in (("--budget", flag_value, "flag"),
                                (BUDGET_ENV, os.environ.get(BUDGET_ENV), "env")):
        if value is not None:
            try:
                return PropagationBudget(int(value)), source
            except ValueError:
                raise MalformedInput(
                    f"{name} must be a positive integer, got {_quoted(str(value))}")
    return DEFAULT_BUDGET, "default"


def _load_system(source: str, *, estimate: bool = False) -> tuple:
    """Resolve --system: a bundled name, then an existing file.

    With ``estimate`` the system is loaded for the Monte Carlo estimator,
    which also accepts quadratic maps.
    """
    if source in BUNDLED_EXAMPLE_NAMES:
        sch = (_bundled_estimate if estimate else bundled_example)(source)
    elif os.path.exists(source):
        sch = (parse_mc_system_file if estimate else parse_system_file)(source)
    elif source.endswith(".json"):
        raise MalformedInput(f"system file {source!r} does not exist")
    else:
        raise UnknownExample(
            f"unknown system {_quoted(source)}: not a bundled example "
            f"{list(BUNDLED_EXAMPLE_NAMES)} and no such file"
        )
    if estimate:
        return sch, {"source": source, "estimate_only": sch.estimate_only}
    return sch, {"source": source, "definition": schedule_to_dict(sch)}


@functools.cache
def _bundled_estimate(name: str) -> FloatSchedule:
    """The bundled system ``name`` compiled for the estimator, once per name."""
    return FloatSchedule.from_schedule(bundled_example(name))


def _open(path: str, mode: str, **kwargs):
    """open() whose failure is a malformed-input diagnostic, not a traceback."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except OSError as e:
        raise MalformedInput(f"cannot open {path!r}: {e.strerror}") from None


def _json_list(text: str, item, kind: str = "") -> list:
    """A JSON list, inline or @file, with ``item`` applied to each entry."""
    if text.startswith("@"):
        with _open(text[1:], "r") as fh:
            text = fh.read()
    expected = f"expected a JSON list{kind}"
    try:
        loaded = decode_json(text)
    except MalformedInput as e:
        raise MalformedInput(f"{expected}: {e}") from None
    if not isinstance(loaded, list):
        raise MalformedInput(expected)
    return [item(x) for x in loaded]


def _int_item(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInput("expected a JSON list of integers")
    return x


def _verdict_json(v: Verdict, sch: Schedule) -> dict:
    doc = {
        "property": v.property_name,
        "kind": v.kind,
        "grid": _fr(v.grid) if v.grid is not None else None,
        "horizon": v.horizon,
    }
    if v.tail is not None:
        doc["tail"] = v.tail
    if v.listing is not None:
        # witnesses as the verdict's own run table, not k^2 or k^4 rows
        cells = [str(c) for c in open_grid(sch.domain, v.grid)]
        listing = v.listing
        doc["witnesses"] = {
            "items": "cell_pairs" if listing.pairs else "cells",
            "cells": cells,
            "runs": list(listing.spans()),
            **({"table": listing.table} if listing.pairs else {}),
            "score": "tail_start" if v.property_name == "mixing" else "n",
        }
        doc["unhit"] = _listing(v.unhit, cells)
    if v.certificate is not None:
        c = v.certificate
        doc["certificate"] = {
            "W": c.w.to_json(),
            "U": c.u.to_json(),
            "V": c.v.to_json(),
            "checked_maps": c.checked_maps,
        }
    return doc


def _listing(side: ListingSide, cells: list[str]) -> _Encoded:
    """The unhit side as JSON text, one block per first item; no Python code runs per row.

    Row (i, j) is heads[i] + seconds[j], from the items' labels as JSON:
    the cells, or the k^2 cell pairs, each encoded once, and none when no
    row is listed.  The pieces are built here, before the report's file
    opens; the blocks are joined only as the report is written.  Each first
    item's fragments are picked in C from the runs (a weak-mixing class's
    once, at its first item, and dropped after its last), and its block is
    one join of them, so the listing's text is never held whole.
    """
    if not side:
        return _Encoded(())
    if side.listing.pairs:
        labels, first, second = [[cu, cw] for cu in cells for cw in cells], "pair1", "pair2"
    else:
        labels, first, second = cells, "U", "V"
    texts = [_dumps(label) for label in labels]
    heads = [f',{{"{first}":{t}' for t in texts]
    seconds = [f',"{second}":{t}}}' for t in texts]
    return _Encoded(head + head.join(picked) if picked else ""
                    for head, (picked, _) in zip(heads, side.templates(seconds)))


def _sensitivity_json(res: SensitivityCertificate | SensitivityFailure) -> dict:
    doc = {
        "kind": "CERTIFICATE" if res.passed else "FAILURE_REPORT",
        "passed": res.passed,
        "delta": _fr(res.delta),
        "scale": _fr(res.scale),
        "horizon": res.horizon,
    }
    if res.passed:
        doc["per_cell"] = [
            {"cell": str(w.cell), "n": w.n, "diameter": _fr(w.diameter)}
            for w in res.per_cell
        ]
    else:
        doc["failing_cells"] = [
            {"cell": str(f.cell), "max_diameter": _fr(f.max_diameter)}
            for f in res.failures
        ]
    return doc


def _extraction_json(rep: ExceptionalSetReport) -> dict:
    return {
        "kind": "EXTRACTED",
        "horizon": rep.horizon,
        "thresholds": [_fr(t) for t in rep.thresholds],
        "breakpoints": list(rep.breakpoints),
        "exceptional_set": list(rep.exceptional.members),
        "density": {"upper": _fr(rep.density.upper), "lower": _fr(rep.density.lower)},
        "tail_density": {
            "upper": _fr(rep.tail_density.upper),
            "lower": _fr(rep.tail_density.lower),
        },
        "tail_start": rep.tail_start,
        "tail_max": _fr(rep.tail_max),
        "off_exceptional_max": _fr(rep.off_max),
        "sup_value": _fr(rep.sup_value),
        "cesaro_average": _fr(rep.cesaro),
    }


# ---------------------------------------------------------------------------
# command handlers: (args, system, budget) -> (parameters, result)
# ---------------------------------------------------------------------------


def _cmd_eval(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    x = parse_rational(args.x)
    if args.n < 0:
        raise MalformedInput("n must be >= 0")
    check_within(x, sch.domain, "x =")  # checked here too, for zero steps
    value = x
    for i in range(args.n):
        value = sch.map_at(i).eval_point(value)
    return {"x": _fr(x), "n": args.n}, {"value": _fr(value)}


def _cmd_image(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    """image and preimage; the result key is the command name."""
    s = parse_set_argument(args.set)
    walk = prefix_image if args.command == "image" else prefix_preimage
    out = walk(sch, s, args.n, budget)
    return ({"set": s.to_json(), "n": args.n},
            {args.command: out.to_json(), "measure": _fr(out.measure())})


def _series_from_args(args, sch: Schedule, budget: PropagationBudget):
    if args.N < 1:  # the library names it n, which is also cesaro's other flag
        raise MalformedInput("N must be >= 1")
    a = parse_set_argument(args.A)
    b = parse_set_argument(args.B)
    series = correlation_series(sch, a, b, args.N, budget)
    return series, {"A": a.to_json(), "B": b.to_json(), "N": args.N}


def _series_json(series) -> dict:
    return {
        "values": [_fr(v) for v in series.values],
        "product": _fr(series.product),
        "deviations": [_fr(d) for d in series.deviations],
        "mu_A": _fr(series.mu_a),
        "mu_B": _fr(series.mu_b),
        "raw_values": [_fr(v) for v in series.raw_values],
        "domain_measure": _fr(series.domain_measure),
    }


def _cmd_correlate(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    series, params = _series_from_args(args, sch, budget)
    if args.csv:
        with _open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "c_i", "deviation_i"])
            for i, (v, d) in enumerate(zip(series.values, series.deviations)):
                writer.writerow([i, _fr(v), _fr(d)])
        params["csv"] = args.csv
    return params, _series_json(series)


def _cmd_cesaro(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    series, params = _series_from_args(args, sch, budget)
    n = args.n if args.n is not None else args.N
    params["n"] = n
    value = cesaro_deviation(series, n)
    return params, {
        "cesaro_deviation": _fr(value),
        "prefix_averages": [
            _fr(total / k) for k, total in enumerate(accumulate(series.deviations), start=1)
        ],
        "series": _series_json(series),
    }


def _cmd_density(args, _system, budget: PropagationBudget) -> tuple[dict, dict]:
    members = _json_list(args.members, _int_item, " of integers")
    s = IndexSet(args.horizon, tuple(members))
    stats = density_stats(s, args.tail_start)
    return {
        "horizon": args.horizon,
        "tail_start": args.tail_start,
        "member_count": len(s.members),
    }, {
        "upper": _fr(stats.upper),
        "lower": _fr(stats.lower),
        "note": "finite-horizon proxies over n in [tail_start, horizon], not limits",
    }


def _cmd_kvn(args, sch: Schedule | None, budget: PropagationBudget) -> tuple[dict, dict]:
    thresholds = DEFAULT_THRESHOLDS
    if args.thresholds is not None:
        thresholds = tuple(_json_list(args.thresholds, _json_rational))
    params: dict = {"thresholds": [_fr(t) for t in thresholds]}
    if args.values is not None:
        values = _json_list(args.values, _json_rational)
        params["values_count"] = len(values)
    elif sch is not None:
        if args.A is None or args.B is None or args.N is None:
            raise MalformedInput("kvn with --system needs --A, --B and --N")
        series, sparams = _series_from_args(args, sch, budget)
        values = list(series.deviations)
        params.update(sparams)
    else:
        raise MalformedInput("kvn needs either --values or --system/--A/--B/--N")
    try:
        return params, _extraction_json(extract_exceptional_set(values, thresholds))
    except NotExtractable as e:
        return params, {
            "kind": "NOT_EXTRACTABLE",
            "detail": str(e),
            "threshold_index": e.threshold_index,
        }


def _cmd_hitting(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    u = parse_set_argument(args.U)
    v = parse_set_argument(args.V)
    hs = hitting_set(sch, u, v, args.H, budget)
    return ({"U": u.to_json(), "V": v.to_json(), "H": args.H},
            {"hitting_times": list(hs.members), "empty": hs.is_empty})


_VERDICTS = {
    "transitivity": transitivity_verdict,
    "weakmix": weakmix_verdict,
    "mixing": mixing_verdict,
}


def _cmd_verdict(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    g = parse_rational(args.grid)
    verdict = _VERDICTS[args.command](sch, g, args.H, budget)
    # the report lists each unhit row: up to k^2 cell pairs, or k^4 pairs of them
    rows, cap = len(verdict.unhit), max(budget.max_parts, DEFAULT_BUDGET.max_parts)
    if rows > cap:
        raise BudgetExceeded(0, rows, cap, f"grid width {_quoted(str(g))} gives k = "
                             f"{_quoted(str(verdict.listing.k))} cells, whose {rows} unhit "
                             f"report rows exceed {cap} parts")
    return {"grid": _fr(g), "H": args.H}, _verdict_json(verdict, sch)


def _cmd_sensitivity(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    delta = parse_rational(args.delta)
    scale = parse_rational(args.scale)
    res = sensitivity_certificate(sch, delta, scale, args.H, budget)
    return ({"delta": _fr(delta), "scale": _fr(scale), "H": args.H},
            _sensitivity_json(res))


def _cmd_mc(args, fs: FloatSchedule, budget: PropagationBudget) -> tuple[dict, dict]:
    cfg = SampleConfig(sample_count=args.samples, seed=args.seed)
    params = {"n": args.n, "samples": args.samples, "seed": args.seed}
    if (args.x, args.epsilon) != (None, None):
        if None in (args.x, args.epsilon) or (args.A, args.B) != (None, None):
            raise MalformedInput("separation mode needs --x and --epsilon, and no --A or --B")
        value = mc_separation(fs, _double(args.x, "--x"), _double(args.epsilon, "--epsilon"),
                              args.n, cfg)
        params.update({"mode": "separation", "x": args.x, "epsilon": args.epsilon})
        result = {"max_separation": value}
    else:
        if args.A is None or args.B is None:
            raise MalformedInput("correlation mode needs --A and --B")
        a = parse_set_argument(args.A)
        b = parse_set_argument(args.B)
        estimate, stderr = mc_correlation(fs, a, b, args.n, cfg)
        params.update({"mode": "correlation", "A": a.to_json(), "B": b.to_json()})
        result = {"estimate": estimate, "stderr": stderr}
    result["estimate_only"] = fs.estimate_only
    return params, result


# verify checks: each reads (system, parameters, budget), returns one "checks" entry


def _certificate_check(sch: Schedule, p: dict, budget: PropagationBudget) -> dict:
    u, v, w = (IntervalSet.parse(p[k]) for k in ("U", "V", "W"))
    try:
        cert = invariant_set_certificate(sch, u, v, w)
    except NotInvariant as e:
        return {"check": "invariant_set_certificate", "passed": False, "detail": str(e)}
    hs = hitting_set(sch, u, v, p["H"], budget)
    return {
        "check": "invariant_set_certificate",
        "passed": hs.is_empty,
        "verdict": _verdict_json(certified_fail_verdict("transitivity", cert, p["H"]), sch),
        "hitting_times_up_to_horizon": list(hs.members),
    }


def _weakmix_check(sch: Schedule, p: dict, budget: PropagationBudget) -> dict:
    wx = weakmix_verdict(sch, parse_rational(p["grid"]), p["H"], budget)
    return {
        "check": "weakmix_verdict",
        "passed": wx.witnessed,
        "verdict": {"kind": wx.kind, "grid": p["grid"], "horizon": p["H"]},
    }


def _sensitivity_check(sch: Schedule, p: dict, budget: PropagationBudget) -> dict:
    delta, scale = parse_rational(p["delta"]), parse_rational(p["scale"])
    res = sensitivity_certificate(sch, delta, scale, p["H"], budget)
    return {"check": "sensitivity_certificate", "passed": res.passed,
            "report": _sensitivity_json(res)}


# name -> (the report's parameters, the checks run on the bundled system `name`)
SCENARIOS = {
    "example31": (
        {"U": ["(0,1)"], "V": ["(1,3/2)"], "W": ["[0,1]"],
         "delta": "1/4", "scale": "1/64", "H": 30},
        (_certificate_check, _sensitivity_check),
    ),
    # weak mixing witnessed at a finite grid forces a working sensitivity
    # constant out of any two reference points: check both sides.
    "tent": (
        {"grid": "1/16", "H": 16, "delta": _fr(sensitivity_constant(0, 1)),
         "scale": "1/16", "reference_points": ["0", "1"]},
        (_weakmix_check, _sensitivity_check),
    ),
}


def _cmd_verify(args, sch: Schedule, budget: PropagationBudget) -> tuple[dict, dict]:
    params, checks = SCENARIOS[args.name]
    results = [check(sch, params, budget) for check in checks]
    return params, {"passed": all(c["passed"] for c in results), "checks": results}


# ---------------------------------------------------------------------------
# the command table: name -> (handler, option specs)
# ---------------------------------------------------------------------------


def _opt(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse's own message would echo all of text
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _optional(spec: tuple, **kwargs) -> tuple:
    flags, kw = spec
    return flags, {**kw, "required": False, **kwargs}


_SYSTEM = _opt("--system", required=True,
               help="bundled example name or system JSON file path")
_H = _opt("--H", type=_int, required=True)
_SERIES = (_opt("--A", required=True), _opt("--B", required=True),
           _opt("--N", type=_int, required=True))
_IMAGE = (_SYSTEM, _opt("--set", required=True), _opt("--n", type=_int, required=True))
_VERDICT = (_SYSTEM, _opt("--grid", required=True), _H)
_COMMON = (
    _opt("--budget", type=_int, default=None,
         help=f"part budget (default {DEFAULT_BUDGET.max_parts}; env {BUDGET_ENV} overrides)"),
    _opt("--out", default=None, help="write the JSON report here instead of stdout"),
)

COMMANDS = {
    "eval": (_cmd_eval, (
        _SYSTEM, _opt("--x", required=True), _opt("--n", type=_int, default=1))),
    "image": (_cmd_image, _IMAGE),
    "preimage": (_cmd_image, _IMAGE),
    "correlate": (_cmd_correlate, (
        _SYSTEM, *_SERIES, _opt("--csv", help="write the series to this CSV file"))),
    "cesaro": (_cmd_cesaro, (
        _SYSTEM, *_SERIES,
        _opt("--n", type=_int, default=None, help="average length (default N)"))),
    "density": (_cmd_density, (
        _opt("--members", required=True, help="JSON list of integers, or @file"),
        _opt("--horizon", type=_int, required=True),
        _opt("--tail-start", dest="tail_start", type=_int, required=True))),
    "kvn": (_cmd_kvn, (
        _optional(_SYSTEM, help="system for deviation-sequence extraction"),
        _opt("--values", help="JSON list of rational strings, or @file"),
        _opt("--thresholds", help="JSON list of decreasing rational strings"),
        *map(_optional, _SERIES))),
    "hitting": (_cmd_hitting, (
        _SYSTEM, _opt("--U", required=True), _opt("--V", required=True), _H)),
    "transitivity": (_cmd_verdict, _VERDICT),
    "weakmix": (_cmd_verdict, _VERDICT),
    "mixing": (_cmd_verdict, _VERDICT),
    "sensitivity": (_cmd_sensitivity, (
        _SYSTEM, _opt("--delta", required=True), _opt("--scale", required=True), _H)),
    "mc": (_cmd_mc, (
        _SYSTEM, *map(_optional, _SERIES[:2]),
        _opt("--x", help="separation mode: orbit start point (float)"),
        _opt("--epsilon", help="separation mode: neighborhood radius (float)"),
        _opt("--n", type=_int, required=True),
        _opt("--samples", type=_int, default=100_000),
        _opt("--seed", type=_int, default=0))),
    "verify": (_cmd_verify, (
        _opt("name", help=f"bundled scenario: {' or '.join(SCENARIOS)}"),)),
}


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse's own message would echo every extra argument whole
            self.error(f"unrecognized arguments: {_quoted(' '.join(extras))}")
        return args

    def error(self, message: str):
        raise MalformedInput(message)  # a JSON diagnostic, not argparse's usage text


@functools.cache  # a parser keeps no state between parse_args calls
def _build_parser(command: str) -> argparse.ArgumentParser:
    p = _Parser(prog=f"nadyn {command}")
    # argparse reads "-1/2" as an option, which would leave "--x -1/2" without a value
    p._negative_number_matcher = re.compile(rf"{p._negative_number_matcher.pattern}|^-\d+/\d+$")
    p.set_defaults(command=command, system=None)
    for flags, kwargs in COMMANDS[command][1] + _COMMON:
        p.add_argument(*flags, **kwargs)
    return p


_JSON_INT_MAX = 2**53 - 1  # the largest integer every JSON reader holds exactly (RFC 7493)


_dumps = functools.partial(json.dumps, separators=(",", ":"), allow_nan=False)


class _Encoded:
    """A JSON list written ahead as blocks ",item,item..."; ``_json_parts`` puts them in.

    The blocks, one per first item of a grid listing, are read once, as the
    report is written: each is joined when it is read and let go once it is
    written, so the listing's text is never held whole.  Empty blocks are
    dropped.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[str]):
        self.blocks = blocks

    def __iter__(self) -> Iterator[str]:
        blocks = filter(None, self.blocks)
        block = next(blocks, None)
        if block is None:
            yield "[]"
            return
        yield "["
        yield block[1:]  # the first block's comma is the list's opening
        yield from blocks
        yield "]"


def _holds_encoded(doc: dict) -> bool:
    return any(isinstance(v, _Encoded) or isinstance(v, dict) and _holds_encoded(v)
               for v in doc.values())


def _json_parts(doc: dict) -> Iterator[str]:
    """One line of compact strict JSON (no NaN), written by json's C encoder, in parts.

    A dict that holds an ``_Encoded`` value, itself or in a dict below it, is
    written key by key, and the ``_Encoded`` blocks go in where its value goes.
    They are placed by the document's structure, not found in the text, so no
    string in the data can be taken for them.  Elsewhere (in a list, say) json
    refuses it, as any object that is not JSON.  Every part but the blocks is
    encoded in this call, so whatever can fail fails here, before a part is
    read; the blocks are joined as the parts are read.
    """
    parts: list[str | _Encoded] = []
    _encode(doc, parts)
    return chain.from_iterable(p if isinstance(p, _Encoded) else (p,) for p in parts)


def _encode(value, parts: list[str | _Encoded]) -> None:
    if isinstance(value, _Encoded):
        parts.append(value)
    elif isinstance(value, dict) and _holds_encoded(value):
        opening = "{"
        for k, v in value.items():
            parts += (opening, _dumps(k), ":")
            _encode(v, parts)
            opening = ","
        parts.append("}")
    else:
        parts.append(_dumps(value))


def _emit(doc: dict, out: str | None) -> None:
    """Write the report to --out or stdout as its parts come; whatever can fail, fails first."""
    parts = chain(_json_parts(doc), ("\n",))
    if out:
        with _open(out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(f"nadyn {__version__} -- exact checks for time-varying interval maps")
        print(f"usage: nadyn {{{','.join(COMMANDS)}}} [options]")
        print("run `nadyn <command> --help` for the command's options")
        return 0
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        _diagnostic(command[:60], "unknown_command",
                    f"unknown command {_quoted(command)}; choose from {list(COMMANDS)}")
        return 4
    try:
        args = _build_parser(command).parse_args(rest)
        budget, budget_source = _resolve_budget(args.budget)
        doc = {
            "command": command,
            "tool_version": __version__,
            "index_base": INDEX_BASE,
            "budget": {"max_parts": budget.max_parts, "source": budget_source},
        }
        if command == "verify" and args.name not in SCENARIOS:
            raise UnknownExample(f"no bundled verification scenario named {_quoted(args.name)}; "
                                 f"choose {' or '.join(SCENARIOS)}")
        source = args.name if command == "verify" else args.system
        system = None
        if source is not None:
            system, doc["system"] = _load_system(source, estimate=command == "mc")
        doc["parameters"], doc["result"] = COMMANDS[command][0](args, system, budget)
        _emit(doc, args.out)
    except (MalformedInput, ValueError) as e:
        _diagnostic(command, "malformed_input", e)
        return 2
    except BudgetExceeded as e:
        # a refused grid may charge more parts than every JSON reader holds exactly
        parts = e.parts if e.parts <= _JSON_INT_MAX else None
        _diagnostic(command, "budget_exceeded", e,
                    step=e.step, parts=parts, max_parts=e.max_parts)
        return 3
    except UnknownExample as e:
        _diagnostic(command, "unknown_example", e)
        return 4
    return 1 if command == "verify" and not doc["result"]["passed"] else 0


def _diagnostic(command: str, kind: str, err: Exception | str, **extra) -> None:
    doc = {"command": command, "error": kind, "detail": str(err), **extra}
    print(_dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
