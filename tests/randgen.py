"""Shared generators: seeded plain-random builders for the mass-case
suites and hypothesis strategies for the property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st

from nadyn import (
    Interval,
    IntervalSet,
    PLMap,
    Schedule,
    bundled_example,
    canonicalize,
    make_plmap,
)

UNIT = Interval(0, 1)


# -- plain random (for seeded 10^3..10^4-case loops) -------------------------


def rand_interval(rng: random.Random, lo=Fraction(0), hi=Fraction(1), den=16) -> Interval:
    span = hi - lo
    a, b = sorted(rng.randint(0, den) for _ in range(2))
    p, q = lo + span * Fraction(a, den), lo + span * Fraction(b, den)
    if p == q:
        return Interval(p, q)
    return Interval(p, q, rng.random() < 0.5, rng.random() < 0.5)


def rand_interval_set(
    rng: random.Random, lo=Fraction(0), hi=Fraction(1), max_parts=2, den=16,
    nonempty=False,
) -> IntervalSet:
    k = rng.randint(1 if nonempty else 0, max_parts)
    return canonicalize(rand_interval(rng, lo, hi, den) for _ in range(k))


def rand_plmap(rng: random.Random, den=8, max_pieces=3) -> PLMap:
    """Random self-map of [0,1]: each piece is an affine chord between two
    grid values, so the self-map property holds by construction."""
    n_pieces = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, den), n_pieces - 1))
    bounds = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    pieces = []
    for i in range(n_pieces):
        p, q = bounds[i], bounds[i + 1]
        iv = Interval(p, q, lo_open=i > 0, hi_open=False)
        u = Fraction(rng.randint(0, den), den)
        v = Fraction(rng.randint(0, den), den)
        slope = (v - u) / (q - p)
        pieces.append((iv, slope, u - slope * p))
    return make_plmap(UNIT, pieces)


def rand_full_branch_map(rng: random.Random, den=8) -> PLMap:
    """Expanding fold: both branches cover all of [0,1]; mixing-friendly."""
    peak = Fraction(rng.randint(1, den - 1), den)
    up = (Interval(0, peak), 1 / peak, 0)
    down = (Interval(peak, 1, lo_open=True), -1 / (1 - peak), 1 / (1 - peak))
    return make_plmap(UNIT, [up, down])


def rand_schedule(rng: random.Random, mixing_bias=False) -> Schedule:
    def one_map():
        if mixing_bias:
            roll = rng.random()
            if roll < 0.25:
                return bundled_example("tent").cycle[0]
            if roll < 0.4:
                return bundled_example("doubling").cycle[0]
            if roll < 0.7:
                return rand_full_branch_map(rng)
        return rand_plmap(rng)

    preamble = tuple(one_map() for _ in range(rng.randint(0, 1)))
    cycle = tuple(one_map() for _ in range(rng.randint(1, 2)))
    return Schedule(preamble, cycle, UNIT)


# -- hypothesis strategies ----------------------------------------------------


def fractions_in_unit(den=16):
    return st.integers(0, den).map(lambda k: Fraction(k, den))


@st.composite
def intervals_in(draw, lo=Fraction(0), hi=Fraction(1), den=16):
    span = hi - lo
    a = draw(st.integers(0, den))
    b = draw(st.integers(0, den))
    a, b = sorted((a, b))
    p, q = lo + span * Fraction(a, den), lo + span * Fraction(b, den)
    if p == q:
        return Interval(p, q)
    return Interval(p, q, draw(st.booleans()), draw(st.booleans()))


@st.composite
def interval_sets_in(draw, lo=Fraction(0), hi=Fraction(1), max_parts=3, den=16):
    parts = draw(st.lists(intervals_in(lo, hi, den), max_size=max_parts))
    return canonicalize(parts)


@st.composite
def plmaps(draw, den=8, max_pieces=3, domain=UNIT):
    n_pieces = draw(st.integers(1, max_pieces))
    cuts = draw(
        st.lists(st.integers(1, den - 1), unique=True,
                 min_size=n_pieces - 1, max_size=n_pieces - 1)
    )
    lo, span = domain.lo, domain.hi - domain.lo
    bounds = [lo] + [lo + span * Fraction(c, den) for c in sorted(cuts)] + [domain.hi]
    pieces = []
    for i in range(n_pieces):
        p, q = bounds[i], bounds[i + 1]
        iv = Interval(p, q, lo_open=i > 0, hi_open=False)
        u = lo + span * Fraction(draw(st.integers(0, den)), den)
        v = lo + span * Fraction(draw(st.integers(0, den)), den)
        slope = (v - u) / (q - p)
        pieces.append((iv, slope, u - slope * p))
    return make_plmap(domain, pieces)


def maps_with_sets(domains):
    """(map, subset) pairs on a domain drawn from domains, both scaled to it."""
    return st.sampled_from(domains).flatmap(
        lambda d: st.tuples(plmaps(domain=d), interval_sets_in(d.lo, d.hi)))


@st.composite
def schedules(draw, max_cycle=2):
    preamble = draw(st.lists(plmaps(), max_size=1))
    cycle = draw(st.lists(plmaps(), min_size=1, max_size=max_cycle))
    return Schedule(tuple(preamble), tuple(cycle), UNIT)
