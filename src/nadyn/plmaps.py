"""Piecewise-linear self-maps and time-varying schedules of them.

A :class:`PLMap` is finitely many exact affine pieces tiling a closed
domain interval; construction verifies the tiling (no gaps, no overlaps,
flags honored) and the self-map property, both exactly.  A
:class:`Schedule` realizes a time-varying iteration x_{n+1} = f_n(x_n)
as an eventually-periodic sequence of maps; the orbit map for the first
n steps is the composition of f_0 .. f_{n-1}.

Forward images and preimages of interval sets are exact.  Iterated
preimages can grow their part count exponentially, so every iteration goes
through one walker, :func:`_walk`, which steps a batch of sets together and
raises at the first step where a set passes its :class:`PropagationBudget`,
never truncating.  :func:`propagate`, the chain of one set, is its batch of
one, and the grid walks of :mod:`nadyn.topology` step all their cells in one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterable, Iterator

from .errors import (
    BudgetExceeded,
    MalformedInterval,
    NotSelfMap,
    OutOfDomain,
    PieceGap,
    PieceOverlap,
    UnknownExample,
)
from .intervals import (
    Interval,
    IntervalSet,
    _canonical,
    _quoted,
    _set,
    affine_batch,
    affine_table,
    as_rational,
    piecewise_affine,
)


@dataclass(frozen=True, slots=True)
class Piece:
    on: Interval
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        if not isinstance(self.on, Interval):
            raise MalformedInterval(f"piece interval must be an Interval, got {self.on!r}")
        object.__setattr__(self, "slope", as_rational(self.slope))
        object.__setattr__(self, "intercept", as_rational(self.intercept))

    def __str__(self) -> str:
        return f"{self.on}: {self.slope}*x + {self.intercept}"


@dataclass(frozen=True, slots=True)
class PLMap:
    """Validated piecewise-linear self-map of a closed interval."""

    domain: Interval
    pieces: tuple[Piece, ...]
    # affine_table(...) step constants, forward and backward, built once here
    _forward: tuple = field(init=False, repr=False, compare=False)
    _backward: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.domain
        if d.lo_open or d.hi_open or d.is_point:
            raise MalformedInterval(f"domain must be a closed nondegenerate interval, got {d}")
        pieces = tuple(sorted(self.pieces, key=lambda p: p.on.sort_key()))
        object.__setattr__(self, "pieces", pieces)
        ons = [IntervalSet((p.on,)) for p in pieces]
        forward = affine_table((on, p.slope, p.intercept) for on, p in zip(ons, pieces))
        pden, _, rows = forward
        # in sort_key order, pieces that miss their neighbours miss each other
        for a, b, (_, a_hi, _, _), (b_lo, b_hi, _, _) in zip(pieces, pieces[1:], rows, rows[1:]):
            if b_lo <= a_hi:
                common = _canonical(pden, (b_lo, min(a_hi, b_hi)))
                raise PieceOverlap(f"pieces {a.on} and {b.on} overlap in {common}")
        covered = _canonical(pden, [k for row in rows for k in row[:2]])
        whole = IntervalSet((d,))
        if covered != whole:  # canonical sets are equal iff they are the same point set
            outside = covered.subtract(whole)
            if not outside.is_empty:
                raise PieceOverlap(f"pieces cover {outside} outside the domain {d}")
            gap = whole.subtract(covered)
            raise PieceGap(f"pieces leave a gap: no piece covers {gap} of the domain {d}")
        backward = []
        for p, on in zip(pieces, ons):
            img = piecewise_affine(on, forward)  # on meets no other piece
            if not img.within(d):
                raise NotSelfMap(
                    f"piece {p} maps onto {img}, outside the domain {d}",
                    piece=p,
                    image=img.parts[0],
                )
            # x -> (x - intercept) / slope on the image; a constant piece is all or nothing
            inverse = (1 / p.slope, -p.intercept / p.slope) if p.slope else (None, on)
            backward.append((img, *inverse))
        object.__setattr__(self, "_forward", forward)
        object.__setattr__(self, "_backward", affine_table(backward))

    def eval_point(self, x) -> Fraction:
        """Exact value at a domain point."""
        x = as_rational(x)
        for p in self.pieces:
            if p.on.contains(x):
                return p.slope * x + p.intercept
        check_within(x, self.domain, "x =")  # the pieces tile the domain, so this raises

    def image_set(self, s: IntervalSet) -> IntervalSet:
        """Exact forward image of a subset of the domain."""
        check_within(s, self.domain)
        return piecewise_affine(s, self._forward)

    def preimage_set(self, s: IntervalSet) -> IntervalSet:
        """Exact preimage within the domain; s may be any interval set."""
        return piecewise_affine(s, self._backward)


def make_plmap(domain: Interval, pieces) -> PLMap:
    """Build a validated PLMap from (interval, slope, intercept) triples."""
    built = tuple(
        p if isinstance(p, Piece) else Piece(p[0], p[1], p[2]) for p in pieces
    )
    return PLMap(domain, built)


@dataclass(frozen=True, slots=True)
class Schedule:
    """Eventually-periodic sequence of maps sharing one domain.

    ``map_at(n)`` is ``preamble[n]`` while the preamble lasts, then the
    cycle repeats forever.  A constant schedule (empty preamble, cycle of
    one) recovers an autonomous system.
    """

    preamble: tuple[PLMap, ...]
    cycle: tuple[PLMap, ...]
    domain: Interval
    # the field-wise hash, computed on the first __hash__ (the matrix memo's key)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cycle:
            raise MalformedInterval("schedule cycle must be nonempty")
        for m in self.preamble + self.cycle:
            if m.domain != self.domain:
                raise MalformedInterval(
                    f"all maps must share the domain {self.domain}, got {m.domain}"
                )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.preamble, self.cycle, self.domain)))
        return self._hash

    @classmethod
    def constant(cls, m: PLMap) -> "Schedule":
        return cls((), (m,), m.domain)

    @classmethod
    def cycling(cls, maps) -> "Schedule":
        maps = tuple(maps)
        return cls((), maps, maps[0].domain)

    def phase(self, n: int) -> int:
        """The position of map n in preamble + cycle: n in the preamble, then cycling."""
        if n < 0:
            raise ValueError("map index must be nonnegative")
        p = len(self.preamble)
        return n if n < p else p + (n - p) % len(self.cycle)

    def map_at(self, n: int) -> PLMap:
        i, p = self.phase(n), len(self.preamble)
        return self.preamble[i] if i < p else self.cycle[i - p]

    def shift(self, m: int) -> "Schedule":
        """The schedule as seen from time m: shift.map_at(j) == map_at(m+j)."""
        i, p = self.phase(m), len(self.preamble)
        if i < p:
            return Schedule(self.preamble[i:], self.cycle, self.domain)
        return Schedule((), self.cycle[i - p:] + self.cycle[:i - p], self.domain)


@dataclass(frozen=True, slots=True)
class PropagationBudget:
    """Hard cap on interval-set part counts during iteration."""

    max_parts: int = 1 << 20

    def __post_init__(self):
        if self.max_parts < 1:
            raise ValueError("max_parts must be >= 1")

    def check(self, step: int, parts: int) -> None:
        """Raise BudgetExceeded if parts, the largest part count at this step, is past it."""
        if parts > self.max_parts:
            raise BudgetExceeded(step, parts, self.max_parts)


DEFAULT_BUDGET = PropagationBudget()


def _walk(sch: Schedule, den: int, batch: list, steps: Iterable[int],
          budget: PropagationBudget, inverse: bool = False) -> Iterator[tuple[int, int, list]]:
    """Step a batch of sets through ``sch.map_at(i)`` for each i in steps, all together.

    The batch holds each set as its keys over the one den; each step is one
    :func:`affine_batch` call, taking preimages with ``inverse``.  It yields
    (n, den, groups) for n = 1, 2, ...: groups lists each distinct n-step
    image once, as [keys, members], its keys over den (which every group
    shares) and the batch indices of the sets whose image it is.  Sets with
    equal images at one step share a group from then on, since equal sets
    have equal futures.  The consumer may delete groups from the list it is
    given; they are not stepped again.  Before a step is yielded its largest
    group passes ``budget.check``, so the walk raises BudgetExceeded at the
    first step where any set is past the budget, and every shorter walk fits.
    """
    tables = [m._backward if inverse else m._forward for m in sch.preamble + sch.cycle]
    members = [[i] for i in range(len(batch))]
    for n, i in enumerate(steps, start=1):
        den, images = affine_batch(den, batch, tables[sch.phase(i)])
        merged: dict[tuple, list] = {}
        for keys, sets_in in zip(images, members):
            group = merged.get(keys)
            if group is None:
                merged[keys] = [keys, sets_in]
            else:
                group[1] += sets_in
        budget.check(n, max(map(len, merged)) // 2)  # two keys per part
        groups = list(merged.values())
        yield n, den, groups
        if not groups:
            break
        batch, members = zip(*groups)


def propagate(
    sch: Schedule, s: IntervalSet, steps: Iterable[int], budget: PropagationBudget,
    *, inverse: bool = False,
) -> Iterator[IntervalSet]:
    """Yield s pushed through ``sch.map_at(i)`` for each i in steps, in turn.

    The :func:`_walk` of a batch of one set.  With ``inverse`` each step
    takes the preimage, so a preimage chain lists its map indices last to
    first.  Steps are numbered from 1 along this chain.  A forward chain
    checks that s lies in the domain once, before its first step
    (OutOfDomain); each image after it is in the domain, since every map is
    a self-map.  A chain of zero steps checks nothing.
    """
    steps = iter(steps)
    first = next(steps, None)
    if first is None:
        return
    if not inverse:
        check_within(s, sch.domain)
    for _, den, ((keys, _),) in _walk(sch, s.den, [s.keys], chain((first,), steps), budget,
                                      inverse):
        yield _set(den, keys)


def check_within(
    s: IntervalSet | Fraction | float, domain: Interval, label: str = "set"
) -> None:
    """Raise OutOfDomain unless the set or point s lies in the domain; ``label`` names s.

    A float point is compared exactly, and NaN lies in no domain.
    """
    if not (s.within(domain) if isinstance(s, IntervalSet) else domain.contains(s)):
        raise OutOfDomain(f"{label} {_quoted(str(s))} is not in the domain {domain}")


def prefix_image(
    sch: Schedule, s: IntervalSet, n: int, budget: PropagationBudget = DEFAULT_BUDGET
) -> IntervalSet:
    """Image of s under the first n maps; s must lie in the domain, also for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:  # propagate checks s before its first step, and a chain of none checks nothing
        check_within(s, sch.domain)
    for s in propagate(sch, s, range(n), budget):
        pass
    return s


def prefix_preimage(
    sch: Schedule, s: IntervalSet, n: int, budget: PropagationBudget = DEFAULT_BUDGET
) -> IntervalSet:
    """Preimage of s under the composition of the first n maps; n = 0 gives s ∩ domain."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = s.intersect(IntervalSet([sch.domain]))
    for s in propagate(sch, s, reversed(range(n)), budget, inverse=True):
        pass
    return s


# ---------------------------------------------------------------------------
# bundled example systems
# ---------------------------------------------------------------------------

_UNIT = Interval(0, 1)


def _tent() -> PLMap:
    return make_plmap(
        _UNIT,
        [
            (Interval(0, Fraction(1, 2)), 2, 0),
            (Interval(Fraction(1, 2), 1, lo_open=True), -2, 2),
        ],
    )


def _doubling() -> PLMap:
    return make_plmap(
        _UNIT,
        [
            (Interval(0, Fraction(1, 2), hi_open=True), 2, 0),
            (Interval(Fraction(1, 2), 1), 2, -1),
        ],
    )


def _three_branch() -> PLMap:
    # tent on [0,1] extended by an expanding branch folding (1,3/2] onto (0,1];
    # [0,1] is forward-invariant, so nothing above 1 is ever hit again.
    dom = Interval(0, Fraction(3, 2))
    return make_plmap(
        dom,
        [
            (Interval(0, Fraction(1, 2)), 2, 0),
            (Interval(Fraction(1, 2), 1, lo_open=True), -2, 2),
            (Interval(1, Fraction(3, 2), lo_open=True), 2, -2),
        ],
    )


_EXAMPLES = {
    "tent": lambda: Schedule.constant(_tent()),
    "doubling": lambda: Schedule.constant(_doubling()),
    "example31": lambda: Schedule.constant(_three_branch()),
    "tent_doubling_alternating": lambda: Schedule.cycling([_tent(), _doubling()]),
}


@cache  # a Schedule is frozen, so each name's is built once and shared
def bundled_example(name: str) -> Schedule:
    """Return a documented example schedule by name.

    tent / doubling: the classic expanding maps on [0,1].
    example31: the three-branch map on [0,3/2] that is sensitive but not
    topologically transitive (its left unit interval is invariant).
    tent_doubling_alternating: a genuinely time-varying cycle of two maps.
    """
    try:
        builder = _EXAMPLES[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; choose from {sorted(_EXAMPLES)}"
        ) from None
    return builder()


BUNDLED_EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))
