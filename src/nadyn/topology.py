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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, groupby, islice, repeat
from math import lcm
from operator import itemgetter, not_, sub
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
    _set,
    _span,
    as_rational,
)
from .plmaps import DEFAULT_BUDGET, PropagationBudget, Schedule, _walk, check_within

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
    walk = _walk(sch, u.den, [u.keys], range(horizon), budget)  # U is checked once, above
    members = tuple(n for n, den, ((keys, _),) in walk if _set(den, keys).meets(v))
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
class RunListing:
    """A grid verdict's listing, kept as runs of equal values and expanded when read.

    A run ends where the next one starts.  Transitivity and mixing (no
    ``table``) list the k x k cell pairs (u, v): firsts and values give each
    row's runs (v_first, score) in turn, u-major, each row's from v_first 0,
    and the row (u, v) scores the value of the run of row u that holds v.
    Weak mixing lists every two of the k^2 cell pairs, u-major: firsts and
    values give the runs (i_first, class) of the cell pairs, and the row
    (i, j) of two of them scores table[class of i][class of j].  A score of
    0 means no hit within the horizon.  ``Verdict.witnesses`` and
    ``Verdict.unhit`` are its two sides.
    """

    k: int
    firsts: tuple[int, ...]
    values: tuple[int, ...]
    table: tuple[tuple[int, ...], ...] = ()

    @property
    def pairs(self) -> bool:
        return bool(self.table)

    def spans(self) -> Iterator[tuple[int, ...]]:
        """Each run as (u, v_first, v_last, score), or (i_first, i_last, class) for cell pairs."""
        firsts, size = self.firsts, self.k * self.k if self.table else self.k
        lasts = [(b or size) - 1 for b in firsts[1:]] + [size - 1]  # a row starts at a 0
        if self.table:
            return zip(firsts, lasts, self.values)
        rows = accumulate(map(not_, firsts), initial=-1)
        return zip(islice(rows, 1, None), firsts, lasts, self.values)


class ListingSide:
    """One side of a RunListing, read-only: its rows scoring nonzero (``hit``) or 0.

    The witness side yields ((i, j), n), the other (i, j), i-major and
    j-minor; i and j are cells, or for weak mixing cell pairs (u, v).  Its
    length comes from the run lengths, and the rows are built only when read,
    from one template per first item (:meth:`templates`).
    """

    __slots__ = ("listing", "hit")

    def __init__(self, listing: RunListing, hit: bool):
        self.listing, self.hit = listing, hit

    def __len__(self) -> int:
        lst, hit = self.listing, self.hit
        if not lst.table:
            return sum(b - a + 1 for _, a, b, n in lst.spans() if bool(n) == hit)
        counts = [0] * len(lst.table)
        for a, b, c in lst.spans():
            counts[c] += b - a + 1
        return sum(counts[c1] * counts[c2] for c1, row in enumerate(lst.table)
                   for c2, n in enumerate(row) if bool(n) == hit)

    def _picked(self, spans, labels: list, score=None) -> tuple[list, list]:
        """The labels and scores of the second items this side lists, from their runs."""
        picked, scores = [], []
        for a, b, x in spans:
            n = x if score is None else score[x]
            if bool(n) == self.hit:
                picked += labels[a:b + 1]
                scores += repeat(n, b - a + 1)
        return picked, scores

    def templates(self, labels: list) -> Iterator[tuple[list, list]]:
        """Each first item's listed rows as (labels of their second items, scores), in order.

        A cell's template comes from its row's runs.  A weak-mixing class's
        is picked once, at its first item, from the runs, and dropped after
        its last; its items share it.  Both lists are built in C.
        """
        lst = self.listing
        if not lst.table:
            for _, row in groupby(lst.spans(), itemgetter(0)):
                yield self._picked(((a, b, n) for _, a, b, n in row), labels)
            return
        spans = list(lst.spans())
        last = {c: r for r, (_, _, c) in enumerate(spans)}
        built: dict[int, tuple[list, list]] = {}
        for r, (a, b, c) in enumerate(spans):
            template = built.get(c)
            if template is None:
                template = built[c] = self._picked(spans, labels, lst.table[c])
            yield from repeat(template, b - a + 1)
            if last[c] == r:
                del built[c]

    def rows(self, labels: list) -> Iterator[tuple]:
        """This side's rows (labels[i], labels[j], n), i-major and j-minor; n is 0 when unhit."""
        return chain.from_iterable(zip(repeat(first), *template)
                                   for first, template in zip(labels, self.templates(labels)))

    def __iter__(self) -> Iterator[tuple]:
        k = self.listing.k
        items = list(map(divmod, range(k * k), repeat(k))) if self.listing.table else range(k)
        for i, j, n in self.rows(items):
            yield ((i, j), n) if self.hit else (i, j)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-valued outcome of a finite-resolution property check.

    witnesses maps each tested pair (or pair of pairs) to a concrete
    hitting index; unhit lists the pairs that block a WITNESSED verdict.
    A grid verdict keeps its listing once, as a RunListing, and both are
    read-only views of it whose rows are built only when read.  A
    CERTIFIED_FAIL verdict has no listing, so both are empty; it carries
    the underlying certificate instead.  tail is the mixing tail start
    (mixing property only).
    """

    property_name: str
    kind: str
    grid: Fraction | None
    horizon: int
    tail: int | None = None
    listing: RunListing | None = None
    certificate: InvariantSetCertificate | None = None

    @property
    def witnessed(self) -> bool:
        return self.kind == WITNESSED_UP_TO

    @property
    def witnesses(self) -> ListingSide | tuple:
        return () if self.listing is None else ListingSide(self.listing, True)

    @property
    def unhit(self) -> ListingSide | tuple:
        return () if self.listing is None else ListingSide(self.listing, False)


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


def _charge(budget: PropagationBudget, noun: str, width: Fraction, k: int, count: int,
            what: str, step: int = 0) -> None:
    """Refuse the count items (named by what) of a grid of k cells, past the budget.

    At step 0 it runs before any item is built.  The limit is never below
    the default budget: a smaller budget bounds the sets, not the grid.
    """
    cap = max(budget.max_parts, DEFAULT_BUDGET.max_parts)
    if count <= cap:
        return
    try:
        cells = _quoted(str(k))
    except ValueError:  # past the interpreter's limit on int-to-text conversion
        cells = f"at least 2^{k.bit_length() - 1}"
    raise BudgetExceeded(step, count, cap, f"{noun} width {_quoted(str(width))} gives k = "
                         f"{cells} cells, {what} {cap} parts")


# run matrices kept by the memo: the three verdicts of one (g, H) share one
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
) -> tuple[tuple[int, int, int, int], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The _grid and each cell's row of the hitting matrix as maximal runs (firsts, masks).

    Row u holds masks[r] from cell firsts[r] up to the next first; firsts
    starts at 0, and neighbouring runs differ.  The k cells are charged at
    step 0, and the runs once the rows are built.
    """
    k, *_ = grid = _grid(sch.domain, g, GridMismatch, "grid")
    _check_horizon(horizon)
    _charge(budget, "grid", g, k, k, "which exceed")
    # bit n-1 of a row's mask flips at each cut j of the n-step image of its cell
    toggles: list[dict[int, int]] = [{} for _ in range(k)]
    for n, den, groups in _walk(sch, grid[1], _cell_keys(*grid, False), range(horizon), budget):
        bit = 1 << (n - 1)
        for keys, members in groups:
            cuts = _cell_cuts(den, keys, *grid)
            for u in members:
                row = toggles[u]
                for j in cuts:
                    row[j] = row.get(j, 0) ^ bit
    # a cell's cuts at one step are distinct, so each cut flips some bit of the mask
    rows = []
    for row in toggles:
        row.pop(k, None)  # the cut at k ends the last run
        mask = row.pop(0, 0)
        firsts, masks = [0], [mask]
        for j in sorted(row):
            mask ^= row[j]
            firsts.append(j)
            masks.append(mask)
        rows.append((tuple(firsts), tuple(masks)))
    runs = sum(len(firsts) for firsts, _ in rows)
    _charge(budget, "grid", g, k, runs, f"whose {runs} runs exceed", horizon)
    return grid, tuple(rows)


def hitting_matrix(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> tuple[tuple[IntervalSet, ...], tuple[tuple[int, ...], ...]]:
    """The open g-grid cells and masks[u][v], the object all grid verdicts reduce.

    Bit n-1 of masks[u][v] is set iff the n-step image of cell u meets cell
    v, for n in {1..horizon}.  The k*k masks are charged at step 0.  The
    last few matrices are memoized as run rows by (schedule, g, horizon,
    budget), so the three verdicts of one (g, H) propagate the cells once;
    errors are raised afresh, never cached.
    """
    g = as_rational(g)
    k, *_ = grid = _grid(sch.domain, g, GridMismatch, "grid")
    _check_horizon(horizon)
    _charge(budget, "grid", g, k, k * k, "whose k*k masks exceed")
    _, rows = _hitting_matrix(sch, g, horizon, budget)
    return _cells(*grid), tuple(
        tuple(chain.from_iterable(map(repeat, masks, map(sub, (*firsts[1:], k), firsts))))
        for firsts, masks in rows)


def _least_bit(mask: int) -> int:
    return (mask & -mask).bit_length()  # 1-based hitting index; 0 for no bit


def _runs(rows, k: int, value, across: bool = False) -> tuple[tuple[int, ...], ...]:
    """The runs (firsts, values) of value(mask) over the matrix rows, each as long as it holds.

    Each row starts anew at its first 0 (cells), or with ``across`` the rows
    run on as the k^2 cell pairs u*k + v (weak mixing).
    """
    firsts, values = [], []
    for u, (row_firsts, masks) in enumerate(rows):
        base = u * k if across else 0
        for v, mask in zip(row_firsts, masks):
            x = value(mask)
            if not (values and x == values[-1] and (across or v)):
                firsts.append(base + v)
                values.append(x)
    return tuple(firsts), tuple(values)


def _verdict(name: str, g, horizon: int, k: int, firsts, values, table=(),
             tail=None) -> Verdict:
    """WITNESSED_UP_TO with the tail when no row scores 0, else INCONCLUSIVE."""
    unhit = any(0 in row for row in table) if table else 0 in values
    return Verdict(
        property_name=name,
        kind=INCONCLUSIVE if unhit else WITNESSED_UP_TO,
        grid=as_rational(g),
        horizon=horizon,
        tail=None if unhit else tail,
        listing=RunListing(k, firsts, values, table),
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
    (k, *_), rows = _hitting_matrix(sch, as_rational(g), horizon, budget)
    return _verdict("transitivity", g, horizon, k, *_runs(rows, k, _least_bit))


def weakmix_verdict(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Witness a shared hitting time for every two ordered cell pairs.

    Pairs with equal masks have equal rows in the pair-of-pairs listing, so
    the verdict reads the d distinct masks off the runs: the runs of the
    cell pairs' classes and the d x d table of least common hits, runs + d^2
    work.  It is witnessed iff no entry of the table is 0.  The k^4 listing
    in witnesses and unhit is built only when it is iterated or written.
    """
    (k, *_), rows = _hitting_matrix(sch, as_rational(g), horizon, budget)
    class_of: dict[int, int] = {}
    firsts, classes = _runs(rows, k, lambda mask: class_of.setdefault(mask, len(class_of)),
                           across=True)
    least = tuple(tuple(_least_bit(m1 & m2) for m2 in class_of) for m1 in class_of)
    return _verdict("weak_mixing", g, horizon, k, firsts, classes, least)


def mixing_verdict(
    sch: Schedule,
    g: Fraction,
    horizon: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Find the least tail start N with every pair hit at all n in {N..horizon}."""
    (k, *_), rows = _hitting_matrix(sch, as_rational(g), horizon, budget)
    full = (1 << horizon) - 1

    def tail_start(mask: int) -> int:
        start = (full & ~mask).bit_length() + 1  # first index past the last miss
        return start if start <= horizon else 0

    firsts, scores = _runs(rows, k, tail_start)
    return _verdict("mixing", g, horizon, k, firsts, scores, tail=max(scores))


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

    @classmethod
    def _trusted(cls, cell: Interval, n: int, diameter: Fraction) -> "CellWitness":
        """A CellWitness from fields that are valid by construction, as Interval._trusted."""
        w = object.__new__(cls)
        _SET_W_CELL(w, cell), _SET_W_N(w, n), _SET_W_DIAMETER(w, diameter)
        return w


@dataclass(frozen=True, slots=True)
class CellFailure:
    cell: Interval
    max_diameter: Fraction

    @classmethod
    def _trusted(cls, cell: Interval, max_diameter: Fraction) -> "CellFailure":
        """A CellFailure from fields that are valid by construction, as Interval._trusted."""
        f = object.__new__(cls)
        _SET_F_CELL(f, cell), _SET_F_MAX_DIAMETER(f, max_diameter)
        return f


# the slots' own setters, which a frozen dataclass's __init__ reaches through the slower
# object.__setattr__: a sensitivity result builds one cell per grid cell with them
_SET_W_CELL, _SET_W_N, _SET_W_DIAMETER = (
    CellWitness.cell.__set__, CellWitness.n.__set__, CellWitness.diameter.__set__)
_SET_F_CELL, _SET_F_MAX_DIAMETER = CellFailure.cell.__set__, CellFailure.max_diameter.__set__


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
    _charge(budget, "cell", scale, k, k, "which exceed")
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
                    found[u] = CellWitness._trusted(cells[u], n, diameter)
                continue
            kept.append(group)
            for u in members:
                if span * widest[u][1] > widest[u][0] * den:
                    widest[u] = (span, den)
        groups[:] = kept
    diameters = {wd: Fraction(*wd) for wd in set(widest)}  # many cells share one
    failed = [CellFailure._trusted(cell, diameters[widest[u]])
              for u, cell in enumerate(cells) if u not in found]
    if failed:
        return SensitivityFailure(
            delta=delta, scale=scale, horizon=horizon, failures=tuple(failed)
        )
    return SensitivityCertificate(
        delta=delta, scale=scale, horizon=horizon, per_cell=tuple(found[u] for u in range(k))
    )
