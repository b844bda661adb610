"""Hitting times, finite-resolution verdicts, and exact certificates.

The asymptotic properties checked here (transitivity, weak mixing,
mixing, sensitivity) cannot be decided by finitely many operations, so
every analysis returns one of three honest outcomes:

* ``WITNESSED_UP_TO`` -- an exhaustive finite witness at the stated grid
  granularity and horizon (every required hitting time was found);
* ``CERTIFIED_FAIL`` -- a machine-checkable certificate that the
  property fails at every horizon (only a forward-invariant separating
  set can justify this);
* ``INCONCLUSIVE`` -- neither, with the unhit pairs listed.

Hitting-time indices start at 1 (the first applied map); correlation
lags elsewhere start at 0.  Both conventions are surfaced in reports.

Both grid walks, the hitting matrix and the sensitivity search, step all
their cells as one batch of the walker :func:`nadyn.plmaps._walk`, in which
cells whose images coincide at a step share one group from then on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from math import lcm
from operator import not_, xor
from typing import Iterator

from .errors import (
    BudgetExceeded,
    DegeneratePair,
    GridMismatch,
    NotInvariant,
    OutOfDomain,
    ScaleMismatch,
)
from .intervals import (
    Interval,
    IntervalSet,
    _cell_keys,
    _ends,
    _part,
    _quoted,
    _span,
    as_rational,
)
from .plmaps import DEFAULT_BUDGET, PropagationBudget, Schedule, _walk, check_within, propagate

CERTIFIED_FAIL = "CERTIFIED_FAIL"
WITNESSED_UP_TO = "WITNESSED_UP_TO"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, slots=True)
class HittingSet:
    """The times n in {1..horizon} at which the n-step image of U meets V."""

    u: IntervalSet
    v: IntervalSet
    horizon: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.members and not (1 <= self.members[0] and self.members[-1] <= self.horizon):
            raise ValueError("hitting times must lie in {1..horizon}")

    @property
    def is_empty(self) -> bool:
        return not self.members

    def least(self) -> int | None:
        return self.members[0] if self.members else None


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")


def hitting_set(
    sch: Schedule,
    u: IntervalSet,
    v: IntervalSet,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> HittingSet:
    """Exact membership for every n in {1..horizon} via forward images."""
    if u.is_empty or v.is_empty:
        raise ValueError("U and V must be nonempty")
    check_within(u, sch.domain, "U =")
    check_within(v, sch.domain, "V =")
    _check_horizon(horizon)
    members = tuple(
        n
        for n, cur in enumerate(propagate(sch, u, range(horizon), budget), start=1)
        if cur.meets(v)
    )
    return HittingSet(u=u, v=v, horizon=horizon, members=members)


@dataclass(frozen=True, slots=True)
class InvariantSetCertificate:
    """Exact proof that no forward image of U ever meets V.

    Verified at construction: the first image of U lands in W, every
    scheduled map sends W into itself, and W misses V.  Together these
    force the n-step image of U inside W for all n >= 1, so the hitting
    set of (U, V) is empty at every horizon -- a sound negative verdict
    for transitivity, weak mixing, and mixing alike.
    """

    w: IntervalSet
    u: IntervalSet
    v: IntervalSet
    checked_maps: int


def invariant_set_certificate(
    sch: Schedule, u: IntervalSet, v: IntervalSet, w: IntervalSet
) -> InvariantSetCertificate:
    """Check the three certificate conditions exactly; raise NotInvariant."""
    if u.is_empty or v.is_empty or w.is_empty:
        raise ValueError("U, V, W must be nonempty")
    check_within(u, sch.domain, "U =")
    check_within(v, sch.domain, "V =")
    check_within(w, sch.domain, "W =")
    first = sch.map_at(0).image_set(u)
    if not first.subset_of(w):
        raise NotInvariant(
            "first_image",
            first,
            f"the first image of U is {first}, not contained in W = {w}",
        )
    maps = sch.preamble + sch.cycle
    for i, m in enumerate(maps):
        img = m.image_set(w)
        if not img.subset_of(w):
            raise NotInvariant(
                "forward_invariance",
                img,
                f"scheduled map #{i} sends W onto {img}, escaping W = {w}",
            )
    common = w.intersect(v)
    if not common.is_empty:
        raise NotInvariant("separation", common, f"W meets V in {common}")
    return InvariantSetCertificate(w=w, u=u, v=v, checked_maps=len(maps))


def recheck_certificate(cert: InvariantSetCertificate, sch: Schedule) -> bool:
    """Re-run the certificate conditions, the domain rule included, from scratch."""
    try:
        invariant_set_certificate(sch, cert.u, cert.v, cert.w)
    except (NotInvariant, OutOfDomain):
        return False
    return True


# ---------------------------------------------------------------------------
# grid verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PairPairs:
    """One side of a grid verdict's listing, kept as a score table and expanded when read.

    The items are the k grid cells, or with ``pairs`` the k^2 cell pairs
    (u, v), u-major.  Item i has the class classes[i], and the row (i, j)
    scores table[classes[i]][classes[j]] (0: none within the horizon).  The
    hit side lists the rows ((i, j), n) with n nonzero, the other side the
    rows (i, j) scoring 0, both i-major and j-minor.  Its length comes from
    the class counts; the rows are built only when read, from one template
    per class (:meth:`templates`).
    """

    k: int
    pairs: bool
    classes: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    hit: bool

    def __len__(self) -> int:
        counts = Counter(self.classes)
        return sum(counts[c1] * counts[c2] for c1, row in enumerate(self.table)
                   for c2, n in enumerate(row) if bool(n) == self.hit)

    def templates(self) -> Iterator[tuple[list, list[int]]]:
        """Each class's row template (keep, scores) in class order: the one source of rows.

        scores[j] is the score of the row (i, j) for every first item i of
        the class, and this side lists that row iff keep[j] is true.  A class
        that lists no row here gets ([], []).  Both lists are built in C.
        """
        for row in self.table:
            if any(row) if self.hit else 0 in row:
                scores = list(map(row.__getitem__, self.classes))
                yield scores if self.hit else list(map(not_, scores)), scores
            else:
                yield [], []

    def rows(self, labels: list) -> Iterator[tuple]:
        """This side's rows (labels[i], labels[j], n), i-major and j-minor; n is 0 when unhit."""
        templates = [(list(compress(labels, keep)), list(compress(scores, keep)))
                     for keep, scores in self.templates()]
        return chain.from_iterable(zip(repeat(first), *templates[c1])
                                   for first, c1 in zip(labels, self.classes))

    def __iter__(self) -> Iterator[tuple]:
        k = self.k
        items = [(u, v) for u in range(k) for v in range(k)] if self.pairs else range(k)
        for i, j, n in self.rows(items):
            yield ((i, j), n) if self.hit else (i, j)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-valued outcome of a finite-resolution property check.

    witnesses maps each tested pair (or pair of pairs) to a concrete
    hitting index; unhit lists the pairs that block a WITNESSED verdict.
    A grid verdict keeps both as PairPairs, a score table whose rows are
    built only when read; they are empty for a CERTIFIED_FAIL verdict,
    which carries the underlying certificate instead.  tail is the mixing
    tail start (mixing property only).
    """

    property_name: str
    kind: str
    grid: Fraction | None
    horizon: int
    tail: int | None = None
    witnesses: tuple | PairPairs = ()
    unhit: tuple | PairPairs = ()
    certificate: InvariantSetCertificate | None = None

    @property
    def witnessed(self) -> bool:
        return self.kind == WITNESSED_UP_TO


def _grid(domain: Interval, g: Fraction, error: type, noun: str) -> tuple[int, int, int, int]:
    """The k cells of exact width g tiling the domain, in integers: (k, den, a0, w).

    Cell i runs from (a0 + i*w)/den to (a0 + (i+1)*w)/den; g must divide the domain.
    """
    length = domain.hi - domain.lo
    if g <= 0 or g > length:
        raise error(f"{noun} width {_quoted(str(g))} does not fit the domain {domain}")
    cells = length / g
    if cells.denominator != 1:
        raise error(f"{noun} width {_quoted(str(g))} does not divide the domain length {length}")
    den = lcm(domain.lo.denominator, g.denominator)
    return cells.numerator, den, int(domain.lo * den), int(g * den)


def _cells(k: int, den: int, a0: int, w: int) -> tuple[IntervalSet, ...]:
    """The k open cells of a _grid, as one-part sets."""
    return tuple(_part(den, a, a + w, True, True) for a in range(a0, a0 + k * w, w))


def _closed_cells(k: int, den: int, a0: int, w: int) -> list[Interval]:
    """The k closed cells of a _grid as Intervals, from their k + 1 ends, each made once."""
    ends = [Fraction(a, den) for a in range(a0, a0 + (k + 1) * w, w)]
    return list(map(Interval._trusted, ends, ends[1:]))


def open_grid(domain: Interval, g: Fraction) -> tuple[IntervalSet, ...]:
    """Open cells of exact width g tiling the domain; g must divide it."""
    return _cells(*_grid(domain, as_rational(g), GridMismatch, "grid"))


def closed_grid(domain: Interval, g: Fraction) -> tuple[Interval, ...]:
    return tuple(_closed_cells(*_grid(domain, as_rational(g), ScaleMismatch, "cell")))


def _charge(budget: PropagationBudget, noun: str, width: Fraction, k: int, power: int,
            what: str) -> None:
    """Refuse at step 0 the k**power items (named by what) of k cells, past the budget.

    It runs before any item is built.  The limit is never below the default
    budget: a smaller budget bounds the sets, not the grid.
    """
    count, cap = k**power, max(budget.max_parts, DEFAULT_BUDGET.max_parts)
    if count <= cap:
        return
    try:
        cells = _quoted(str(k))
    except ValueError:  # past the interpreter's limit on int-to-text conversion
        cells = f"at least 2^{k.bit_length() - 1}"
    raise BudgetExceeded(0, count, cap, f"{noun} width {_quoted(str(width))} gives k = "
                         f"{cells} cells, {what} {cap} parts")


# matrices kept by hitting_matrix: the three verdicts of one (g, H) share one
_MATRIX_MEMO_SIZE = 4


def _cell_cuts(sden: int, keys, k: int, den: int, a0: int, w: int) -> list[int]:
    """The open cells of a _grid that the set of keys over sden meets, as cut indices.

    Cell i is met iff an odd number of the cuts are <= i: the cuts are the
    ends a, b of the merged ranges [a, b) of met cells.  A part with interior
    meets exactly the cells its span overlaps, whatever its flags; a point
    meets a cell only strictly inside it.  Two parts that meet one cell share
    a range, so the cuts toggle each met cell exactly once.
    """
    # an end a/sden lies (a*den - c)/d cells past the first cell's start
    c, d = a0 * sden, w * sden
    cuts: list[int] = []
    for a, b, _, _ in _ends(keys):
        if a < b:
            lo, hi = (a * den - c) // d, -((c - b * den) // d)
            lo, hi = lo if lo > 0 else 0, hi if hi < k else k
        else:
            lo, r = divmod(a * den - c, d)
            hi = lo + 1 if r else lo  # a point on a cell boundary meets no cell
        if lo >= hi:
            continue
        if cuts and lo <= cuts[-1]:
            cuts[-1] = max(cuts[-1], hi)
        else:
            cuts += (lo, hi)
    return cuts


@lru_cache(maxsize=_MATRIX_MEMO_SIZE)
def _hitting_matrix(
    sch: Schedule, g: Fraction, horizon: int, budget: PropagationBudget
) -> tuple[tuple[IntervalSet, ...], tuple[tuple[int, ...], ...]]:
    k, *_ = grid = _grid(sch.domain, g, GridMismatch, "grid")
    _check_horizon(horizon)
    _charge(budget, "grid", g, k, 2, "whose k*k masks exceed")
    cells = _cells(*grid)
    # bit n-1 of togs[u][j] flips at each cut j of the n-step image of cell u
    togs = [[0] * (k + 1) for _ in range(k)]
    for n, den, groups in _walk(sch, grid[1], _cell_keys(*grid, False), range(horizon), budget):
        bit = 1 << (n - 1)
        for keys, members in groups:
            for j in _cell_cuts(den, keys, *grid):
                for u in members:
                    togs[u][j] ^= bit
    # each row is the prefix xor of its toggles
    return cells, tuple(tuple(accumulate(tog[:k], xor)) for tog in togs)


def hitting_matrix(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> tuple[tuple[IntervalSet, ...], tuple[tuple[int, ...], ...]]:
    """The open g-grid cells and masks[u][v], the object all grid verdicts reduce.

    Bit n-1 of masks[u][v] is set iff the n-step image of cell u meets cell
    v, for n in {1..horizon}.  The last few matrices are memoized by
    (schedule, g, horizon, budget), so the three verdicts of one (g, H)
    propagate the cells once; errors are raised afresh, never cached.
    """
    return _hitting_matrix(sch, as_rational(g), horizon, budget)


def _least_bit(mask: int) -> int:
    return (mask & -mask).bit_length()  # 1-based hitting index; 0 for no bit


def _scored(masks, score) -> tuple[tuple[int, ...], ...]:
    """The table score(masks[u][v]), scoring each distinct mask once."""
    scores = {mask: score(mask) for mask in set(chain.from_iterable(masks))}
    return tuple(tuple(map(scores.__getitem__, row)) for row in masks)


def _verdict(name: str, g, horizon: int, k: int, pairs: bool, classes, table,
             tail=None) -> Verdict:
    """WITNESSED_UP_TO with the tail when no pair is unhit, else INCONCLUSIVE."""
    unhit = any(0 in row for row in table)
    return Verdict(
        property_name=name,
        kind=INCONCLUSIVE if unhit else WITNESSED_UP_TO,
        grid=as_rational(g),
        horizon=horizon,
        tail=None if unhit else tail,
        witnesses=PairPairs(k, pairs, classes, table, True),
        unhit=PairPairs(k, pairs, classes, table, False),
    )


def transitivity_verdict(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Witness every ordered cell pair hitting within the horizon.

    Never claims CERTIFIED_FAIL on its own; a negative claim needs an
    invariant-set certificate.
    """
    _, masks = hitting_matrix(sch, g, horizon, budget)
    return _verdict("transitivity", g, horizon, len(masks), False, tuple(range(len(masks))),
                    _scored(masks, _least_bit))


def weakmix_verdict(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Witness a shared hitting time for every two ordered cell pairs.

    Pairs with equal masks have equal rows in the pair-of-pairs listing, so
    the verdict reads the d distinct masks only: each cell pair's class and
    the d x d table of least common hits, k^2 + d^2 work.  It is witnessed
    iff no entry of the table is 0.  The k^4 listing in witnesses and unhit
    is built only when it is iterated or written.
    """
    _, masks = hitting_matrix(sch, g, horizon, budget)
    flat = [mask for row in masks for mask in row]
    distinct = list(dict.fromkeys(flat))
    class_of = {mask: c for c, mask in enumerate(distinct)}
    classes = tuple(map(class_of.__getitem__, flat))
    least = tuple(tuple(_least_bit(m1 & m2) for m2 in distinct) for m1 in distinct)
    return _verdict("weak_mixing", g, horizon, len(masks), True, classes, least)


def mixing_verdict(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Find the least tail start N with every pair hit at all n in {N..horizon}."""
    _, masks = hitting_matrix(sch, g, horizon, budget)
    full = (1 << horizon) - 1

    def tail_start(mask: int) -> int:
        start = (full & ~mask).bit_length() + 1  # first index past the last miss
        return start if start <= horizon else 0

    table = _scored(masks, tail_start)
    return _verdict("mixing", g, horizon, len(masks), False, tuple(range(len(masks))),
                    table, max(map(max, table)))


def certified_fail_verdict(
    property_name: str, cert: InvariantSetCertificate, horizon: int
) -> Verdict:
    """Package an invariant-set certificate as a negative verdict."""
    return Verdict(
        property_name=property_name,
        kind=CERTIFIED_FAIL,
        grid=None,
        horizon=horizon,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def sensitivity_constant(x0, y0) -> Fraction:
    """Separation constant guaranteed by weak mixing: |x0 - y0| / 8.

    Splitting the distance between any two reference points as 8*delta
    leaves every point at least 4*delta from one of them, and steering a
    neighborhood toward both targets costs 2*delta of slack -- hence
    delta survives as a sensitivity constant.
    """
    x0, y0 = as_rational(x0), as_rational(y0)
    if x0 == y0:
        raise DegeneratePair("reference points must differ")
    return abs(x0 - y0) / 8


@dataclass(frozen=True, slots=True)
class CellWitness:
    cell: Interval
    n: int
    diameter: Fraction


@dataclass(frozen=True, slots=True)
class CellFailure:
    cell: Interval
    max_diameter: Fraction


@dataclass(frozen=True, slots=True)
class SensitivityCertificate:
    """Per-cell separation witnesses, re-checkable exactly.

    For every closed width-`scale` cell of the domain grid some time
    n <= horizon has the n-step image exceed diameter 2*delta.  A set of
    diameter > 2*delta leaves, for each of its points, another point more
    than delta away -- so every orbit leaving from anywhere in a cell has
    a companion in that cell separating beyond delta by time n.  This is
    a scale-bounded statement; smaller neighborhoods than `scale` are
    simply not examined.
    """

    delta: Fraction
    scale: Fraction
    horizon: int
    per_cell: tuple[CellWitness, ...]

    @property
    def passed(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class SensitivityFailure:
    """Cells whose images never exceeded diameter 2*delta within the horizon."""

    delta: Fraction
    scale: Fraction
    horizon: int
    failures: tuple[CellFailure, ...]

    @property
    def passed(self) -> bool:
        return False


def sensitivity_certificate(
    sch: Schedule,
    delta,
    scale,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> SensitivityCertificate | SensitivityFailure:
    """Search each grid cell for the least n with image diameter > 2*delta."""
    delta = as_rational(delta)
    scale = as_rational(scale)
    if delta <= 0:
        raise ValueError("delta must be positive")
    _check_horizon(horizon)
    k, cell_den, _, w = grid = _grid(sch.domain, scale, ScaleMismatch, "cell")
    _charge(budget, "cell", scale, k, 1, "which exceed")
    gnum, gden = (2 * delta).as_integer_ratio()
    cells = _closed_cells(*grid)
    found: dict[int, CellWitness] = {}
    widest = [(w, cell_den)] * k  # each chain's widest set so far, as (span, den)
    for n, den, groups in _walk(sch, cell_den, _cell_keys(*grid, True), range(horizon), budget):
        kept = []
        for group in groups:
            keys, members = group
            span = _span(keys)
            if span * gden > gnum * den:  # diameter > 2*delta, in integers
                diameter = Fraction(span, den)
                for u in members:
                    found[u] = CellWitness(cell=cells[u], n=n, diameter=diameter)
                continue
            kept.append(group)
            for u in members:
                if span * widest[u][1] > widest[u][0] * den:
                    widest[u] = (span, den)
        groups[:] = kept
    diameters = {wd: Fraction(*wd) for wd in set(widest)}  # many cells share one
    failed = [CellFailure(cell=cell, max_diameter=diameters[widest[u]])
              for u, cell in enumerate(cells) if u not in found]
    if failed:
        return SensitivityFailure(
            delta=delta, scale=scale, horizon=horizon, failures=tuple(failed)
        )
    return SensitivityCertificate(
        delta=delta, scale=scale, horizon=horizon, per_cell=tuple(found[u] for u in range(k))
    )
