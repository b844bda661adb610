"""Exact algebra of finite unions of rational-endpoint intervals.

Every scalar is an arbitrary-precision rational (``fractions.Fraction``);
no floating point ever enters this module.  Openness flags are carried
exactly: ``[0,1]`` and ``(1,3/2)`` are disjoint, and the point ``1/2`` is
in neither half of ``(0,1/2) ∪ (1/2,1)``.  Lebesgue measure ignores the
flags; the topology does not.

An :class:`IntervalSet` is stored as ``den``, the least common denominator
of its ends, and ``keys``, a sorted int tuple with two keys per part: a
closed end ``v/den`` is ``4v``, an open lower end ``4v+1``, an open upper
end ``4v-1``.  Every openness rule is then integer order: a part is
nonempty iff ``lo <= hi``, sorted parts merge iff ``lo <= prev_hi + 1``, a
gap runs from ``hi + 1`` to the next ``lo - 1``, and intersections take
``max``/``min``.  Any key ``k`` has the closed value ``(k + 1) >> 2`` and
the openness ``((k + 1) & 3) - 1``.  A set is always canonical (parts
merged, ``den`` least), so point-set equality is structural equality.
``(den, keys)`` is a set's only state.  :meth:`IntervalSet.ends` decodes it
for every reader outside the set algebra, as each part's ends in integer
numerators over ``den`` with their openness flags: the text form, ``.parts``
(the :class:`Interval` API), the grid lookups and the Monte Carlo masks.
Its inverse :func:`_part` builds one-part sets such as the grid cells.  Outside
the set algebra these two alone read and write keys, but for ``PLMap``'s tiling
check, which reads the :func:`affine_table` rows, and the grid walks' batches,
which start from :func:`_cell_keys`.  :func:`affine_batch`, the one step
kernel, maps a batch of sets as key tuples over one denominator
(:func:`piecewise_affine` is its batch of one), and the walks compare those
tuples for identity, count two keys per part, and read ends and spans
through :func:`_ends` and :func:`_span`.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _quoted(text: str) -> str:
    """``text`` quoted for a diagnostic; past 60 characters, cut to 60, ``…`` and the length."""
    return f'"{text}"' if len(text) <= 60 else f'"{text[:60]}…" ({len(text)} characters)'


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into an exact rational.

    Decimal literals are rejected with a message suggesting the exact
    form (``"0.5"`` -> write ``"1/2"``).
    """
    s = text.strip()
    try:
        if _RATIONAL_RE.match(s):
            return Fraction(s)
        if _DECIMAL_RE.match(s):  # a decimal string converts exactly
            raise MalformedRational(
                f"float literal {_quoted(s)} not accepted; write the exact rational "
                f"{_quoted(format_rational(Fraction(s)))}")
    except ZeroDivisionError:
        raise MalformedRational(f"zero denominator in {_quoted(text)}") from None
    except ValueError:  # past the interpreter's limit on text-to-int conversion
        raise MalformedRational(f"{_quoted(s)} has more digits than Python converts") from None
    raise MalformedRational(f'cannot parse {_quoted(text)} as a rational "p/q"')


def format_rational(q: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when integral."""
    return _ratio(q.numerator, q.denominator)


def _ratio(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms, as ``"p/q"`` or ``"p"`` when integral."""
    g = gcd(p, q)
    p, q = p // g, q // g
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # past the interpreter's limit on int-to-text conversion
        return _digits(p) if q == 1 else f"{_digits(p)}/{_digits(q)}"


_CHUNK_DIGITS = 600  # below 640, the lowest int-to-text limit Python can be set to


def _digits(n: int) -> str:
    """str(n) for an integer of any length, written in chunks the digit limit allows."""
    chunks, rest, base = [], abs(n), 10**_CHUNK_DIGITS
    while rest >= base:
        rest, chunk = divmod(rest, base)
        chunks.append(f"{chunk:0{_CHUNK_DIGITS}d}")
    chunks.append(f"{'-' if n < 0 else ''}{rest}")
    return "".join(reversed(chunks))


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
            raise MalformedInterval(f"lo > hi in {_quoted(str(self))}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise MalformedInterval(
                f"degenerate interval {_quoted(str(self))} must be closed on both ends")

    @classmethod
    def _trusted(cls, lo: Fraction, hi: Fraction, lo_open: bool = False,
                 hi_open: bool = False) -> "Interval":
        """An Interval from Fraction ends that are valid by construction, unchecked."""
        iv = object.__new__(cls)
        _SET_LO(iv, lo), _SET_HI(iv, hi), _SET_LO_OPEN(iv, lo_open), _SET_HI_OPEN(iv, hi_open)
        return iv

    def __str__(self) -> str:
        lo_br = "(" if self.lo_open else "["
        hi_br = ")" if self.hi_open else "]"
        return f"{lo_br}{format_rational(self.lo)},{format_rational(self.hi)}{hi_br}"

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse the literal text form, e.g. ``"[0,1/4]"`` or ``"(1,3/2)"``."""
        m = _INTERVAL_RE.match(text.strip())
        if not m:
            raise MalformedInterval(f"cannot parse {_quoted(text)} as an interval literal")
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
        # stated positively, so a float NaN, which compares false, lies in no interval
        return ((self.lo < x or x == self.lo and not self.lo_open)
                and (x < self.hi or x == self.hi and not self.hi_open))


# the slots' own setters, which a frozen dataclass's __setattr__ does not guard
_SET_LO, _SET_HI, _SET_LO_OPEN, _SET_HI_OPEN = (
    Interval.lo.__set__, Interval.hi.__set__, Interval.lo_open.__set__, Interval.hi_open.__set__)


def _pairs(keys) -> Iterator[tuple[int, int]]:
    it = iter(keys)
    return zip(it, it)


def _scaled(keys, m: int):
    """The keys on a lattice m times finer: the closed value scales, the openness stays."""
    if m == 1:
        return keys
    return [m * k - (m - 1) * (((k + 1) & 3) - 1) for k in keys]


def _overlaps(keys, lo: int, hi: int) -> list[int]:
    """The keys of keys ∩ (lo, hi): the parts that meet the part (lo, hi), cut to it."""
    i, j = bisect_left(keys, lo) & ~1, (bisect_right(keys, hi) + 1) & ~1
    return [max(keys[i], lo), *keys[i + 1:j - 1], min(keys[j - 1], hi)] if i < j else []


def _merged(pairs) -> list[int]:
    """The keys of the union of the nonempty (lo, hi) parts in pairs, in any order."""
    out: list[int] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1] + 1:
            out[-1] = max(out[-1], hi)
        else:
            out += (lo, hi)
    return out


def _coarser(keys, g: int) -> tuple[int, ...]:
    """The keys on a lattice g times coarser; every closed value must be a multiple of g."""
    if g == 1:
        return tuple(keys)
    return tuple([4 * (((k + 1) >> 2) // g) + ((k + 1) & 3) - 1 for k in keys])


def _canonical(den: int, keys) -> "IntervalSet":
    """The union of the nonempty parts in keys, in any order, over its least denominator."""
    out = _merged(_pairs(keys))
    g = gcd(den, *[(k + 1) >> 2 for k in out])
    s = IntervalSet.__new__(IntervalSet)
    s.den, s.keys = den // g, _coarser(out, g)
    return s


def _ends(keys) -> Iterator[tuple[int, int, bool, bool]]:
    """Each part of keys as ``(a, b, lo_open, hi_open)``, its ends' numerators and flags."""
    for lo, hi in _pairs(keys):
        yield (lo + 1) >> 2, (hi + 1) >> 2, lo & 3 == 1, hi & 3 == 3


def _span(keys) -> int:
    """The numerator of sup - inf of keys (0 for no keys)."""
    return ((keys[-1] + 1) >> 2) - ((keys[0] + 1) >> 2) if keys else 0


def _part(den: int, a: int, b: int, lo_open: bool, hi_open: bool) -> "IntervalSet":
    """The part from a/den to b/den with these flags (a < b, or a == b closed); inverts ends()."""
    return _canonical(den, (4 * a + lo_open, 4 * b - hi_open))


def _cell_keys(k: int, den: int, a0: int, w: int, closed: bool) -> list[tuple[int, int]]:
    """The keys over den of the k open or closed parts (a0 + i*w)/den to (a0 + (i+1)*w)/den."""
    o = 0 if closed else 1
    return [(4 * a + o, 4 * (a + w) - o) for a in range(a0, a0 + k * w, w)]


def _encode(parts) -> tuple[int, list[int]]:
    """The least common denominator of the parts' ends, and their keys over it."""
    for iv in parts:
        if not isinstance(iv, Interval):
            raise MalformedInterval(f"expected an Interval, got {iv!r}")
    den = lcm(*(q.denominator for iv in parts for q in (iv.lo, iv.hi)))
    return den, [k for iv in parts for k in (_key(iv.lo, den) + iv.lo_open,
                                             _key(iv.hi, den) - iv.hi_open)]


def _key(x: Fraction, den: int) -> int:
    """The key of x over den: 4f at x = f/den, else 4f+2, which sorts between f and f+1."""
    f, r = divmod(x.numerator * den, x.denominator)
    return 4 * f + (2 if r else 0)


def canonicalize(raw: Iterable[Interval]) -> "IntervalSet":
    """Sort, merge and return the canonical form of a union of intervals.

    Idempotent; point-set equality is preserved exactly.
    """
    return _canonical(*_encode(list(raw)))


class IntervalSet:
    """Canonical finite union of intervals, stored as ``den`` and ``keys``.

    Use :func:`canonicalize` (or the set operations) to build one from
    arbitrary parts; direct construction demands already-canonical input.
    Immutable.
    """

    __slots__ = ("den", "keys")

    def __init__(self, parts: Iterable[Interval] = ()):
        self.den, keys = _encode(list(parts))
        for i in range(2, len(keys), 2):
            if keys[i - 2:i] > keys[i:i + 2]:  # (lo, lo_open, hi) order, by keys
                raise MalformedInterval("parts not sorted; use canonicalize()")
            if keys[i] <= keys[i - 1] + 1:
                raise MalformedInterval("parts overlap or touch; use canonicalize()")
        self.keys = tuple(keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and (self.den, self.keys) == (other.den, other.keys)

    def __hash__(self) -> int:
        return hash((self.den, self.keys))

    def __repr__(self) -> str:
        return f"IntervalSet(parts={self.parts!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, spec) -> "IntervalSet":
        """Parse a single interval literal or a list of them."""
        if isinstance(spec, str):
            s = spec.strip()
            if s in ("", "[]", "∅", "empty"):
                return EMPTY_SET
            return canonicalize([Interval.parse(s)])
        return canonicalize([Interval.parse(t) for t in spec])

    # -- basic queries ------------------------------------------------

    def ends(self) -> Iterator[tuple[int, int, bool, bool]]:
        """Each part as ``(a, b, lo_open, hi_open)``: the part runs from a/den to b/den."""
        return _ends(self.keys)

    @property
    def parts(self) -> tuple[Interval, ...]:
        """The parts as Intervals."""
        den = self.den
        return tuple(Interval._trusted(Fraction(a, den), Fraction(b, den), lo_open, hi_open)
                     for a, b, lo_open, hi_open in self.ends())

    @property
    def part_count(self) -> int:
        return len(self.keys) // 2

    @property
    def is_empty(self) -> bool:
        return not self.keys

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __str__(self) -> str:
        return " ∪ ".join(self.to_json()) or "∅"

    def to_json(self) -> list[str]:
        """The parts' texts, as ``str`` gives each Interval, built from the numerators."""
        den = self.den
        return [f"{'[('[lo_open]}{_ratio(a, den)},{_ratio(b, den)}{'])'[hi_open]}"
                for a, b, lo_open, hi_open in self.ends()]

    def measure(self) -> Fraction:
        """Total length; openness flags are measure-null."""
        return Fraction(sum(((hi + 1) >> 2) - ((lo + 1) >> 2) for lo, hi in _pairs(self.keys)),
                        self.den)

    def span(self) -> int:
        """(sup - inf) * den, in integers (0 for the empty set)."""
        return _span(self.keys)

    def diameter(self) -> Fraction:
        """sup - inf (0 for the empty set)."""
        return Fraction(self.span(), self.den)

    def contains_point(self, x) -> bool:
        k = _key(as_rational(x), self.den)
        i = bisect_left(self.keys, k)
        return bool(i & 1) or (i < len(self.keys) and self.keys[i] == k)

    def within(self, domain: Interval) -> bool:
        """True iff inf and sup lie in the closed hull of domain; flags are ignored."""
        keys, den = self.keys, self.den
        return not keys or _key(domain.lo, den) <= keys[0] and keys[-1] <= _key(domain.hi, den)

    # -- set operations (exact, canonical results) --------------------

    def _aligned(self, other: "IntervalSet"):
        den = lcm(self.den, other.den)
        return den, _scaled(self.keys, den // self.den), _scaled(other.keys, den // other.den)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        den, a, b = self._aligned(other)
        return _canonical(den, [*a, *b])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        den, a, b = self._aligned(other)
        if len(a) > len(b):
            a, b = b, a
        return _canonical(den, [k for lo, hi in _pairs(a) for k in _overlaps(b, lo, hi)])

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        if not self.keys:
            return self
        den, a, b = self._aligned(other)
        # the gaps of other, from the start of self to its end
        gaps = [a[0], *(k + 1 if i & 1 else k - 1 for i, k in enumerate(b)), a[-1]]
        return _canonical(den, [k for lo, hi in _pairs(gaps) if lo <= hi
                                for k in _overlaps(a, lo, hi)])

    def meets(self, other: "IntervalSet") -> bool:
        """True iff the exact intersection is nonempty, honoring flags."""
        _, a, b = self._aligned(other)
        if len(a) > len(b):
            a, b = b, a
        return any(_overlaps(b, lo, hi) for lo, hi in _pairs(a))

    def subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty

    def complement_within(self, domain: Interval) -> "IntervalSet":
        return IntervalSet((domain,)).subtract(self)

    __or__ = union
    __and__ = intersect
    __sub__ = subtract


def affine_table(pieces) -> tuple[int, int, tuple]:
    """The integer step constants of ``(part, slope, intercept)`` pieces: ``(pden, q, rows)``.

    Each part is a one-part IntervalSet.  pden is the least common
    denominator of the parts, and the image of a set over den lands on the
    lattice lcm(den, pden) * q.  Row i holds part i's two keys over pden,
    then ``m = slope * q`` and ``c0 = 4 * intercept * q``, both integers
    since q is a multiple of each slope's and intercept's denominator.  A
    piece whose slope is None (the preimage of a constant piece) gives its
    intercept, a set, whole: its row holds None and that set's keys over q.
    """
    pieces = list(pieces)
    pden = lcm(*(part.den for part, _, _ in pieces))
    q = lcm(*(intercept.den if slope is None else lcm(slope.denominator, intercept.denominator)
              for _, slope, intercept in pieces))
    rows = []
    for part, slope, intercept in pieces:
        keys = _scaled(part.keys, pden // part.den)
        if slope is None:
            rows.append((*keys, None, tuple(_scaled(intercept.keys, q // intercept.den))))
        else:
            rows.append((*keys, slope.numerator * (q // slope.denominator),
                         4 * intercept.numerator * (q // intercept.denominator)))
    return pden, q, tuple(rows)


def piecewise_affine(s: IntervalSet, table) -> IntervalSet:
    """The union over the pieces of :func:`affine_table` of ``slope*(s ∩ part) + intercept``.

    The :func:`affine_batch` step of a batch of one set.
    """
    t = IntervalSet.__new__(IntervalSet)
    t.den, (t.keys,) = affine_batch(s.den, (s.keys,), table)
    return t


def affine_batch(den: int, batch: Iterable, table) -> tuple[int, list[tuple[int, ...]]]:
    """The union over the pieces of a table of ``slope*(s ∩ part) + intercept``, for each s.

    The table is an :func:`affine_table`, forward or backward.  The batch
    holds each set as its keys over the one den (any common denominator),
    and so does the result: one image per set, in order, over the images'
    least common denominator, so that two images are the same set iff their
    key tuples are equal.  On the common lattice lat of den and the parts, a
    row's part (lo, hi) sends each key k = 4v + o (o the openness) by
    k -> m*k + c - d*o to 4*m*v + c + sign(m)*o over lat * q.  A row that
    misses a set's hull is skipped, one that covers it takes the keys whole,
    and any other finds its overlap by binary search; a constant piece's set
    is taken whole when s meets its part.  Each image's parts are merged,
    and the whole batch is reduced by one gcd.
    """
    pden, q, table_rows = table
    lat = lcm(den, pden)
    f = lat // den
    rows = []
    for lo, hi, m, c0 in table_rows:
        lo, hi = _scaled((lo, hi), lat // pden)
        rows.append((lo, hi, None, _scaled(c0, lat), None) if m is None
                    else (lo, hi, m, lat * c0, m - (m > 0) + (m < 0)))
    out: list[int] = []
    ends = [0]  # image i is out[ends[i]:ends[i + 1]]
    for keys in batch:
        if f > 1:
            keys = _scaled(keys, f)
        got: list[int] = []
        for lo, hi, m, c, d in rows if keys else ():
            if keys[-1] < lo or hi < keys[0]:
                continue
            run = keys if lo <= keys[0] and keys[-1] <= hi else _overlaps(keys, lo, hi)
            if not run:
                continue
            if m is None:
                got += c
            elif len(run) == 2:
                a, b = run
                a, b = m * a + c - d * (((a + 1) & 3) - 1), m * b + c - d * (((b + 1) & 3) - 1)
                got += (a, b) if m >= 0 else (b, a)
            else:
                mapped = [m * k + c - d * (((k + 1) & 3) - 1) for k in run]
                got += mapped if m >= 0 else reversed(mapped)
        out += got if len(got) <= 2 else _merged(_pairs(got))
        ends.append(len(out))
    g = gcd(lat * q, *[(k + 1) >> 2 for k in out])
    out = _coarser(out, g)
    if len(ends) == 2:
        return lat * q // g, [out]
    return lat * q // g, [out[i:j] for i, j in zip(ends, ends[1:])]


EMPTY_SET = IntervalSet(())
