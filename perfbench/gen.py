"""Seeded generators for benchmark inputs, and builders that turn them into nadyn objects.

Everything here is plain data until a builder is called: a map is a list of
``[interval literal, slope, intercept]`` triples, a schedule is
``{"domain", "preamble", "cycle"}`` (or ``{"bundled": name}``), and a set is
a list of interval literals.  The generators draw only from the
``random.Random`` they are given, so the same seed always yields the same
inputs.  This module does not share code with the test suite, so edits to the
tests cannot move the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

UNIT = (F(0), F(1))
EX31 = (F(0), F(3, 2))
BUNDLED = ("tent", "doubling", "example31", "tent_doubling_alternating")


def fr(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def literal(lo: F, hi: F, lo_open: bool, hi_open: bool) -> str:
    return f"{'(' if lo_open else '['}{fr(lo)},{fr(hi)}{')' if hi_open else ']'}"


def job_id(spec) -> str:
    """Content key of a job: the same inputs always give the same id."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def domain_of(sched: dict) -> tuple[F, F]:
    if sched.get("bundled") == "example31":
        return EX31
    if "bundled" in sched:
        return UNIT
    lo, hi = sched["domain"].strip("[]").split(",")
    return F(lo), F(hi)


# -- maps and schedules (all on [0,1]) ---------------------------------------


def fold_map(rng: random.Random, den: int = 8) -> list:
    """Expanding full-branch fold: each of its two branches covers [0,1]."""
    p = F(rng.randint(1, den - 1), den)
    s1, s2 = 1 / p, 1 / (1 - p)
    left, right = f"[0,{fr(p)}]", f"({fr(p)},1]"
    up_left, up_right = rng.random() < 0.5, rng.random() < 0.5
    return [
        [left, fr(s1), "0"] if up_left else [left, fr(-s1), "1"],
        [right, fr(s2), fr(-p * s2)] if up_right else [right, fr(-s2), fr(s2)],
    ]


def plain_map(rng: random.Random, den: int = 8, max_pieces: int = 3, dyadic: bool = False) -> list:
    """Plain PL self-map: each piece is an affine chord between grid values.

    With ``dyadic`` every chord rises by 0 or a power of two grid steps, so
    preimages of dyadic endpoints stay dyadic and rationals do not blow up.
    """
    n = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, den), n - 1))
    bounds = [F(0)] + [F(c, den) for c in cuts] + [F(1)]
    pieces = []
    for i in range(n):
        p, q = bounds[i], bounds[i + 1]
        u = F(rng.randint(0, den), den)
        if dyadic:
            rises = [r for r in (0, 1, 2, 4, 8, -1, -2, -4, -8) if 0 <= u * den + r <= den]
            v = u + F(rng.choice(rises), den)
        else:
            v = F(rng.randint(0, den), den)
        slope = (v - u) / (q - p)
        pieces.append([literal(p, q, i > 0, False), fr(slope), fr(u - slope * p)])
    return pieces


TENT = [["[0,1/2]", "2", "0"], ["(1/2,1]", "-2", "2"]]
DOUBLING = [["[0,1/2)", "2", "0"], ["[1/2,1]", "2", "-1"]]


def mixing_biased_map(rng: random.Random) -> list:
    roll = rng.random()
    if roll < 0.25:
        return TENT
    if roll < 0.4:
        return DOUBLING
    if roll < 0.7:
        return fold_map(rng)
    return plain_map(rng)


def random_schedule(rng: random.Random, one_map, preamble=(0, 1), cycle=(1, 2)) -> dict:
    return {
        "domain": "[0,1]",
        "preamble": [one_map(rng) for _ in range(rng.randint(*preamble))],
        "cycle": [one_map(rng) for _ in range(rng.randint(*cycle))],
    }


# -- sets ---------------------------------------------------------------------


def random_set(rng: random.Random, dom: tuple[F, F], den: int = 16, max_parts: int = 3) -> list[str]:
    """Union of 1..max_parts nondegenerate intervals with random openness flags."""
    lo, hi = dom
    span = hi - lo
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        a, b = sorted(rng.sample(range(den + 1), 2))
        parts.append(literal(lo + span * F(a, den), lo + span * F(b, den),
                             rng.random() < 0.5, rng.random() < 0.5))
    return parts


def set_text(parts: list[str]) -> str:
    """The set as a user types it on the command line."""
    return parts[0] if len(parts) == 1 else json.dumps(parts)


# -- builders -----------------------------------------------------------------


def build_schedule(nd, spec: dict):
    if "bundled" in spec:
        return nd.bundled_example(spec["bundled"])
    dom = nd.Interval.parse(spec["domain"])

    def one(m):
        return nd.make_plmap(dom, [(nd.Interval.parse(on), nd.parse_rational(s),
                                    nd.parse_rational(c)) for on, s, c in m])

    return nd.Schedule(tuple(map(one, spec["preamble"])), tuple(map(one, spec["cycle"])), dom)


def build_set(nd, parts: list[str]):
    return nd.IntervalSet.parse(parts)
