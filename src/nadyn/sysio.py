"""System description files and exact text forms.

The file format is JSON with bit-exact rational strings everywhere:

    {
      "domain": "[0,3/2]",
      "preamble": [],
      "cycle": [
        {"pieces": [
          {"on": "[0,1/2]", "slope": "2", "intercept": "0"},
          {"on": "(1/2,1]", "slope": "-2", "intercept": "2"},
          {"on": "(1,3/2]", "slope": "2", "intercept": "-2"}
        ]}
      ]
    }

JSON floats are rejected outright (integers are exact and pass).  The
only place floats are welcome is the ``{"quadratic": [c0, c1, c2]}`` map
form, which the Monte Carlo estimator accepts and the exact engine does
not; parsing such a file yields a float schedule flagged estimate-only.
Both loaders apply the same rules, in one walker: the domain must be a
closed nondegenerate interval, and a float anywhere else is an error.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

from .errors import MalformedInput, MalformedRational, MalformedSystemFile
from .intervals import Interval, IntervalSet, _quoted, format_rational, parse_rational
from .montecarlo import FloatSchedule, QuadraticMap
from .plmaps import PLMap, Piece, Schedule


# -- text forms -------------------------------------------------------------


def _exact_int(token: str) -> int:
    # parse_rational's refusal words the digit limit
    return parse_rational(token).numerator


class _Digits:
    """A JSON integer of a system file with more digits than Python converts.

    The file decodes, and the walker refuses the value by its field.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __float__(self) -> float:
        raise OverflowError  # 640 digits and more are past the range of a double


def _file_int(token: str) -> int | _Digits:
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on text-to-int conversion
        return _Digits(token)


def decode_json(text: str, parse_int: Callable[[str], Any] = _exact_int) -> Any:
    """``json.loads`` that fails only with MalformedInput, nesting too deep included.

    ``parse_int`` decodes each integer; by default one past the digit limit is refused.
    """
    try:
        return json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as e:
        raise MalformedInput(str(e)) from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise MalformedInput("nested too deeply to decode") from None


def parse_set_argument(text: str) -> IntervalSet:
    """Parse a CLI set argument: one interval literal or a JSON array.

    The literal goes first: "[0,1]" is also a JSON list of two numbers.
    """
    try:
        return IntervalSet.parse(text)
    except MalformedInput:
        try:
            loaded = decode_json(text)
        except MalformedInput:
            loaded = None
        # "[0,0.5]" is also JSON, but numbers are no set: keep the literal's
        # error, which carries the exact-form hint
        if not isinstance(loaded, list) or not all(isinstance(t, str) for t in loaded):
            raise
    return IntervalSet.parse(loaded)


# -- schedule <-> JSON ------------------------------------------------------


def plmap_to_dict(m: PLMap) -> dict:
    return {
        "pieces": [
            {
                "on": str(p.on),
                "slope": format_rational(p.slope),
                "intercept": format_rational(p.intercept),
            }
            for p in m.pieces
        ]
    }


def schedule_to_dict(sch: Schedule) -> dict:
    return {
        "domain": str(sch.domain),
        "preamble": [plmap_to_dict(m) for m in sch.preamble],
        "cycle": [plmap_to_dict(m) for m in sch.cycle],
    }


def _float_literal(x: float) -> str:
    """The diagnostic for a JSON float where an exact value belongs, with its exact form."""
    hint = f'; write "{format_rational(Fraction(str(x)))}"' if math.isfinite(x) else ""
    return f"float literal {x!r} not accepted{hint}"


def _json_rational(value: Any) -> Fraction:
    """The exact rational a decoded JSON value spells: an integer or a rational string."""
    if isinstance(value, _Digits):  # parse_rational refuses it, wording the digit limit
        value = value.text
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise MalformedRational(_float_literal(value))
    spelled = json.dumps(value, separators=(",", ":"))
    raise MalformedRational(
        f'expected an integer or a rational string "p/q", got JSON {_quoted(spelled)}'
    )


def _reject_floats(node: Any, path: str) -> None:
    if isinstance(node, float):
        raise MalformedSystemFile(_float_literal(node), field=path)
    if isinstance(node, dict):
        for k, v in node.items():
            if k != "quadratic":  # the one form whose coefficients are doubles
                _reject_floats(v, f"{path}.{k}" if path else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _reject_floats(v, f"{path}[{i}]")


def _rational_field(node: dict, key: str, path: str) -> Fraction:
    if key not in node:
        raise MalformedSystemFile(f'missing field "{key}"', field=path)
    try:
        return _json_rational(node[key])
    except MalformedInput as e:
        raise MalformedSystemFile(str(e), field=f"{path}.{key}") from None


def _plmap_from_dict(node: Any, domain: Interval, path: str) -> PLMap:
    if not isinstance(node, dict) or "pieces" not in node:
        raise MalformedSystemFile('expected an object with a "pieces" list', field=path)
    pieces_node = node["pieces"]
    if not isinstance(pieces_node, list) or not pieces_node:
        raise MalformedSystemFile('"pieces" must be a nonempty list', field=path)
    pieces = []
    for i, pnode in enumerate(pieces_node):
        ppath = f"{path}.pieces[{i}]"
        if not isinstance(pnode, dict):
            raise MalformedSystemFile("expected a piece object", field=ppath)
        if "on" not in pnode or not isinstance(pnode["on"], str):
            raise MalformedSystemFile(
                'missing interval field "on" (e.g. "[0,1/2]")', field=ppath
            )
        try:
            on = Interval.parse(pnode["on"])
        except MalformedInput as e:
            raise MalformedSystemFile(str(e), field=f"{ppath}.on") from None
        pieces.append(
            Piece(
                on,
                _rational_field(pnode, "slope", ppath),
                _rational_field(pnode, "intercept", ppath),
            )
        )
    try:
        return PLMap(domain, tuple(pieces))
    except MalformedInput as e:
        raise MalformedSystemFile(str(e), field=path) from None


def _walk(doc: Any, path: str | None, step: Callable) -> tuple[Interval, tuple, tuple]:
    """Validate a system document; ``step(node, domain, field)`` converts each map.

    The rules of the file format live here, for the exact and the Monte Carlo
    loader alike; every diagnostic names the file ``path`` and the field.
    """
    try:
        if not isinstance(doc, dict):
            raise MalformedSystemFile("top level must be a JSON object")
        _reject_floats(doc, "")
        if not isinstance(doc.get("domain"), str):
            raise MalformedSystemFile('missing domain string, e.g. "[0,1]"')
        try:
            domain = Interval.parse(doc["domain"])
        except MalformedInput as e:
            raise MalformedSystemFile(str(e), field="domain") from None
        if domain.lo_open or domain.hi_open or domain.is_point:
            raise MalformedSystemFile(
                f"must be a closed nondegenerate interval, got {domain}", field="domain"
            )
        cycle = doc.get("cycle")
        if not isinstance(cycle, list) or not cycle:
            raise MalformedSystemFile('"cycle" must be a nonempty list of maps')
        preamble = doc.get("preamble", [])
        if not isinstance(preamble, list):
            raise MalformedSystemFile('"preamble" must be a list of maps')
        preamble, cycle = (
            tuple(step(node, domain, f"{name}[{i}]") for i, node in enumerate(nodes))
            for name, nodes in (("preamble", preamble), ("cycle", cycle))
        )
    except MalformedSystemFile as e:
        raise MalformedSystemFile(e.message, path=path, field=e.field) from None
    return domain, preamble, cycle


def _exact_step(node: Any, domain: Interval, field: str) -> PLMap:
    if isinstance(node, dict) and "quadratic" in node:
        raise MalformedSystemFile(
            "quadratic float maps are estimate-only; only the mc command accepts them",
            field=field,
        )
    return _plmap_from_dict(node, domain, field)


def schedule_from_dict(doc: Any, *, path: str | None = None) -> Schedule:
    """The exact schedule a system document describes; ``path`` names its file."""
    domain, preamble, cycle = _walk(doc, path, _exact_step)
    return Schedule(preamble, cycle, domain)


# system-file texts whose parsed schedules are kept, the least recently used dropped first
_PARSED_MEMO_SIZE = 16


def _load(path: str, build: Callable) -> Any:
    """``build(doc, path=path)`` of the system file's JSON; any failure is malformed input.

    The file is read on every call; its text is parsed once per (path, text,
    ``build``, digit limit), since the interpreter's limit on text-to-int
    conversion decides how its integers decode.  A failure is never kept.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise MalformedSystemFile("file not found", path=path) from None
    except OSError as e:  # a directory, no permission, ...
        raise MalformedSystemFile(f"cannot read the file: {e.strerror}", path=path) from None
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # None: no limit to key on
    return _parsed(path, text, build, limit)


@lru_cache(maxsize=_PARSED_MEMO_SIZE)
def _parsed(path: str, text: str, build: Callable, _limit: int | None) -> Any:
    try:
        doc = decode_json(text, _file_int)
    except MalformedInput as e:
        raise MalformedSystemFile(f"invalid JSON: {e}", path=path) from None
    return build(doc, path=path)


def parse_system_file(path: str) -> Schedule:
    """Load and validate an exact system file; diagnostics carry field paths."""
    return _load(path, schedule_from_dict)


def write_system_file(path: str, sch: Schedule) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(sch), fh, indent=2)
        fh.write("\n")


# -- float-map system files (mc only) ---------------------------------------


_NOT_FINITE = '"quadratic" coefficients must be finite doubles'


def _float_step(node: Any, domain: Interval, field: str):
    if not (isinstance(node, dict) and "quadratic" in node):
        return _plmap_from_dict(node, domain, field)
    coeffs = node["quadratic"]
    if (
        not isinstance(coeffs, list)
        or len(coeffs) != 3
        or not all(isinstance(c, (int, float, _Digits)) and not isinstance(c, bool)
                   for c in coeffs)
    ):
        raise MalformedSystemFile(
            '"quadratic" must be a list of three numbers [c0, c1, c2]', field=field
        )
    try:
        q = QuadraticMap(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
    except OverflowError:  # an integer beyond the range of a double
        raise MalformedSystemFile(_NOT_FINITE, field=field) from None
    _check_quadratic_self_map(q, domain, field)
    return q


def _check_quadratic_self_map(q: QuadraticMap, domain: Interval, path: str) -> None:
    """Reject a quadratic map that sends some domain point outside the domain.

    Checked exactly on the doubles the estimator evaluates: the extremes of
    the map over the domain lie at the endpoints and at the vertex.
    """
    if not all(math.isfinite(c) for c in (q.c0, q.c1, q.c2)):
        raise MalformedSystemFile(_NOT_FINITE, field=path)
    c0, c1, c2 = Fraction(q.c0), Fraction(q.c1), Fraction(q.c2)
    xs = [domain.lo, domain.hi]
    if c2:
        vertex = -c1 / (2 * c2)
        if domain.lo < vertex < domain.hi:
            xs.append(vertex)
    for x in xs:
        # named by its exact point: the value may be past the range of a double
        if not domain.contains(c0 + x * (c1 + x * c2)):
            raise MalformedSystemFile(f"quadratic map sends {_quoted(format_rational(x))} "
                                      f"outside the domain {domain}", field=path)


def _float_schedule_from_dict(doc: Any, *, path: str | None = None) -> FloatSchedule:
    domain, preamble, cycle = _walk(doc, path, _float_step)
    return FloatSchedule.from_steps(domain.lo, domain.hi, preamble, cycle)


def parse_mc_system_file(path: str) -> FloatSchedule:
    """Load a system file for the estimator; PL and quadratic maps both work."""
    return _load(path, _float_schedule_from_dict)
