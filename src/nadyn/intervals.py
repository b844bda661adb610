"""Exact algebra of finite unions of rational-endpoint intervals.

Every scalar is an arbitrary-precision rational (``fractions.Fraction``);
no floating point ever enters this module.  Openness flags are carried
exactly: ``[0,1]`` and ``(1,3/2)`` are disjoint, and the point ``1/2`` is
in neither half of ``(0,1/2) ∪ (1/2,1)``.  Lebesgue measure ignores the
flags; the topology does not.

An :class:`IntervalSet` is always canonical -- parts sorted, pairwise
disjoint, touching parts with compatible flags merged -- so point-set
equality coincides with structural equality.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import MalformedInterval, MalformedRational

# The only scalar type of the exact engine.  fractions.Fraction already
# guarantees the invariants we need: positive denominator, gcd-reduced,
# exact arithmetic.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?\d*\.\d+$")
_INTERVAL_RE = re.compile(
    r"^(?P<lo_br>[\[(])\s*(?P<lo>[^,\s]+)\s*,\s*(?P<hi>[^,\s\])]+)\s*(?P<hi_br>[\])])$"
)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into an exact rational.

    Decimal literals are rejected with a message suggesting the exact
    form (``"0.5"`` -> write ``"1/2"``).
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        if _DECIMAL_RE.match(s):
            exact = Fraction(s)  # decimal strings convert exactly
            raise MalformedRational(
                f'float literal "{s}" not accepted; write the exact rational '
                f'"{format_rational(exact)}"'
            )
        raise MalformedRational(f'cannot parse "{text}" as a rational "p/q"')
    try:
        value = Fraction(s)
    except ZeroDivisionError:
        raise MalformedRational(f'zero denominator in "{text}"') from None
    return value


def format_rational(q: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when integral."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / exact rational string; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedRational(f"cannot use {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise MalformedRational(
            f"float {value!r} not accepted in exact arithmetic; pass a Fraction "
            f'or a string like "1/2"'
        )
    raise MalformedRational(f"cannot use {value!r} as a rational")


@dataclass(frozen=True, slots=True)
class Interval:
    """One interval with exact endpoints and per-endpoint openness flags.

    Invariant: ``lo < hi``, or ``lo == hi`` with both endpoints closed (a
    degenerate point).  Empty intervals are never constructed.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise MalformedInterval(f"lo > hi in {self._raw_text()}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise MalformedInterval(
                f"degenerate interval {self._raw_text()} must be closed on both ends"
            )

    def _raw_text(self) -> str:
        lo_br = "(" if self.lo_open else "["
        hi_br = ")" if self.hi_open else "]"
        return f"{lo_br}{format_rational(self.lo)},{format_rational(self.hi)}{hi_br}"

    def __str__(self) -> str:
        return self._raw_text()

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse the literal text form, e.g. ``"[0,1/4]"`` or ``"(1,3/2)"``."""
        m = _INTERVAL_RE.match(text.strip())
        if not m:
            raise MalformedInterval(f'cannot parse "{text}" as an interval literal')
        return cls(
            parse_rational(m.group("lo")),
            parse_rational(m.group("hi")),
            lo_open=m.group("lo_br") == "(",
            hi_open=m.group("hi_br") == ")",
        )

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def sort_key(self):
        return (self.lo, self.lo_open, self.hi, self.hi_open)

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Exact intersection, or None when empty."""
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo < other.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi > other.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)


def _mergeable(a: Interval, b: Interval) -> bool:
    # requires a.sort_key() <= b.sort_key()
    if b.lo < a.hi:
        return True
    if b.lo > a.hi:
        return False
    # touching endpoints merge unless the shared point is in neither part
    return not (a.hi_open and b.lo_open)


def _merge(a: Interval, b: Interval) -> Interval:
    # requires a.sort_key() <= b.sort_key() and _mergeable(a, b)
    lo, lo_open = a.lo, (a.lo_open and b.lo_open) if a.lo == b.lo else a.lo_open
    if b.hi > a.hi:
        hi, hi_open = b.hi, b.hi_open
    elif b.hi < a.hi:
        hi, hi_open = a.hi, a.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open and b.hi_open
    return Interval(lo, hi, lo_open, hi_open)


def canonicalize(raw: Iterable[Interval]) -> "IntervalSet":
    """Sort, merge and return the canonical form of a union of intervals.

    Idempotent; point-set equality is preserved exactly.
    """
    parts = sorted(raw, key=Interval.sort_key)
    merged: list[Interval] = []
    for iv in parts:
        if not isinstance(iv, Interval):
            raise MalformedInterval(f"expected an Interval, got {iv!r}")
        if merged and _mergeable(merged[-1], iv):
            merged[-1] = _merge(merged[-1], iv)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of intervals; immutable after construction.

    Use :func:`canonicalize` (or the set operations) to build one from
    arbitrary parts; direct construction demands already-canonical input.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        prev: Interval | None = None
        for iv in self.parts:
            if not isinstance(iv, Interval):
                raise MalformedInterval(f"expected an Interval, got {iv!r}")
            if prev is not None:
                if prev.sort_key() > iv.sort_key():
                    raise MalformedInterval("parts not sorted; use canonicalize()")
                if _mergeable(prev, iv):
                    raise MalformedInterval("parts overlap or touch; use canonicalize()")
            prev = iv

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def parse(cls, spec) -> "IntervalSet":
        """Parse a single interval literal or a list of them."""
        if isinstance(spec, str):
            s = spec.strip()
            if s in ("", "[]", "∅", "empty"):
                return cls.empty()
            return canonicalize([Interval.parse(s)])
        return canonicalize([Interval.parse(t) for t in spec])

    # -- basic queries ------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "∅"
        return " ∪ ".join(str(p) for p in self.parts)

    def to_json(self) -> list[str]:
        return [str(p) for p in self.parts]

    def measure(self) -> Fraction:
        """Total length; openness flags are measure-null."""
        total = Fraction(0)
        for p in self.parts:
            total += p.hi - p.lo
        return total

    @property
    def infimum(self) -> Fraction:
        if not self.parts:
            raise ValueError("empty set has no infimum")
        return self.parts[0].lo

    @property
    def supremum(self) -> Fraction:
        if not self.parts:
            raise ValueError("empty set has no supremum")
        return self.parts[-1].hi

    def diameter(self) -> Fraction:
        """sup - inf (0 for the empty set)."""
        if not self.parts:
            return Fraction(0)
        return self.parts[-1].hi - self.parts[0].lo

    def contains_point(self, x) -> bool:
        x = as_rational(x)
        i = bisect_right(self.parts, x, key=lambda p: p.lo)
        if i and self.parts[i - 1].contains(x):
            return True
        return False

    # -- set operations (exact, canonical results) --------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return canonicalize(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # pieces of distinct canonical parts can never merge
        return IntervalSet(tuple(_overlaps(self.parts, other.parts)))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        if not self.parts:
            return self
        # the flags of self's parts decide the ends, so the hull can be closed
        hull = Interval(self.parts[0].lo, self.parts[-1].hi)
        # pieces are separated by removed parts or original gaps: already canonical
        return IntervalSet(tuple(_overlaps(self.parts, tuple(_gaps(other, hull)))))

    def meets(self, other: "IntervalSet") -> bool:
        """True iff the exact intersection is nonempty, honoring flags."""
        return next(_overlaps(self.parts, other.parts), None) is not None

    def subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty

    def complement_within(self, domain: Interval) -> "IntervalSet":
        return IntervalSet((domain,)).subtract(self)

    __or__ = union
    __and__ = intersect
    __sub__ = subtract


def _fragment(lo, lo_open, hi, hi_open) -> Interval | None:
    if lo > hi:
        return None
    if lo == hi and (lo_open or hi_open):
        return None
    return Interval(lo, hi, lo_open, hi_open)


def _overlaps(a: tuple[Interval, ...], b: tuple[Interval, ...]) -> Iterator[Interval]:
    """Yield the nonempty intersections of two canonical part tuples, in order."""
    i = j = 0
    while i < len(a) and j < len(b):
        got = a[i].intersect(b[j])
        if got is not None:
            yield got
        # advance whichever part ends first
        if (a[i].hi, not a[i].hi_open) <= (b[j].hi, not b[j].hi_open):
            i += 1
        else:
            j += 1


def _gaps(s: IntervalSet, hull: Interval) -> Iterator[Interval]:
    """The gaps between the parts of s, in order, from hull's start to its end.

    A gap between two parts of s may lie outside the hull; intersecting
    with sets inside the hull discards it.
    """
    starts = [(hull.lo, hull.lo_open)] + [(q.hi, not q.hi_open) for q in s.parts]
    ends = [(q.lo, not q.lo_open) for q in s.parts] + [(hull.hi, hull.hi_open)]
    return filter(None, (_fragment(*lo, *hi) for lo, hi in zip(starts, ends)))


EMPTY_SET = IntervalSet(())
