"""Exact correlation sequences, Cesàro deviations, and natural densities.

The correlation of two sets A, B at lag i is the normalized measure of
A intersected with the i-step preimage of B; its deviation from the
product of the measures is what a measure-theoretically mixing system
drives to zero in Cesàro mean.  Everything here is exact rational
arithmetic; all asymptotic notions (limsup densities, decay of averages)
are reported as finite-horizon proxies with the horizon attached, never
as limits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import HorizonExceeded, NotExtractable
from .intervals import IntervalSet, _quoted
from .plmaps import DEFAULT_BUDGET, PropagationBudget, Schedule, check_within, propagate

#: Default threshold ladder for exceptional-set extraction: 1/2 .. 1/256.
DEFAULT_THRESHOLDS = tuple(Fraction(1, 2**k) for k in range(1, 9))


@dataclass(frozen=True, slots=True)
class IndexSet:
    """A set of integer times inside {0, ..., horizon-1}."""

    horizon: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        if self.members and not (0 <= self.members[0] and self.members[-1] < self.horizon):
            raise ValueError(f"members must lie in [0, {self.horizon})")


@dataclass(frozen=True, slots=True)
class DensityStats:
    """Finite-horizon stand-ins for the upper and lower density.

    upper/lower are the max/min of |S ∩ {0..n-1}|/n over a tail window of
    n; they bracket, but never claim, the limsup/liminf.
    """

    upper: Fraction
    lower: Fraction

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError("need 0 <= lower <= upper <= 1")


def density_stats(s: IndexSet, tail_start: int) -> DensityStats:
    """Exact max/min of the counting ratio over n in [tail_start, horizon]."""
    if not (1 <= tail_start <= s.horizon):
        raise ValueError("need 1 <= tail_start <= horizon")
    # members are sorted and distinct, so count is |S ∩ {0..n-1}| as n runs
    members = s.members
    count = bisect_left(members, tail_start)
    best_hi = best_lo = Fraction(count, tail_start)
    for n in range(tail_start + 1, s.horizon + 1):
        if count < len(members) and members[count] < n:
            count += 1
        r = Fraction(count, n)
        if r > best_hi:
            best_hi = r
        if r < best_lo:
            best_lo = r
    return DensityStats(upper=best_hi, lower=best_lo)


@dataclass(frozen=True, slots=True)
class CorrelationSeries:
    """Exact lag correlations of (A, B) under a schedule, with deviations.

    values[i] is the normalized measure of A ∩ (i-step preimage of B);
    product is the product of the normalized measures of A and B;
    deviations[i] = |values[i] - product|.  raw_values are unnormalized.
    """

    horizon: int
    values: tuple[Fraction, ...]
    product: Fraction
    deviations: tuple[Fraction, ...]
    mu_a: Fraction
    mu_b: Fraction
    raw_values: tuple[Fraction, ...]
    domain_measure: Fraction

    def __post_init__(self):
        if self.horizon != len(self.values) or self.horizon < 1:
            raise ValueError("horizon must equal len(values) and be >= 1")
        if self.product != self.mu_a * self.mu_b:
            raise ValueError("product must equal mu_a * mu_b")
        # A ∩ preimage(B) can only be capped by mu_a: without measure
        # preservation a preimage may be far larger than B itself (a
        # constant piece pulls a single point back to positive measure),
        # so min(mu_a, mu_b) is NOT a valid bound here.
        for c, d in zip(self.values, self.deviations):
            if not (0 <= c <= self.mu_a):
                raise ValueError(f"correlation {c} outside [0, mu_a]")
            if d != abs(c - self.product):
                raise ValueError("deviations must equal |value - product|")


def correlation_series(
    sch: Schedule,
    a: IntervalSet,
    b: IntervalSet,
    n: int,
    budget: PropagationBudget = DEFAULT_BUDGET,
) -> CorrelationSeries:
    """Exact correlations for lags 0 .. n-1.

    The measure is Lebesgue on the domain normalized to a probability, so
    the product term behaves as a mixing deviation should; raw values are
    kept alongside.

    Preimages through the cyclic part repeat with the cycle, so lag i+L
    reuses lag i instead of recomputing the whole chain.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = sch.domain
    check_within(a, dom, "A =")
    check_within(b, dom, "B =")
    length = dom.hi - dom.lo
    mu_a = a.measure() / length
    mu_b = b.measure() / length
    product = mu_a * mu_b

    pre = len(sch.preamble)
    cyc = len(sch.cycle)
    raw: list[Fraction] = []

    def pull(s: IntervalSet, lo: int, hi: int) -> IntervalSet:
        """Preimage of s under the composition of maps lo .. hi-1."""
        for s in propagate(sch, s, reversed(range(lo, hi)), budget, inverse=True):
            pass
        return s

    # window[j] holds the preimage of b under maps pre .. i-1 for the oldest
    # pending lag; rolling it by one cycle multiplies the chain in front.
    window: list[IntervalSet] = []
    for i in range(n):
        if i < pre:
            cur = pull(b, 0, i)
        else:
            k = i - pre
            if k < cyc:
                cur = pull(b, pre, i)
                window.append(cur)
            else:
                cur = window[k % cyc] = pull(window[k % cyc], pre, pre + cyc)
            cur = pull(cur, 0, pre)
        raw.append(a.intersect(cur).measure())

    values = tuple(v / length for v in raw)
    deviations = tuple(abs(c - product) for c in values)
    return CorrelationSeries(
        horizon=n,
        values=values,
        product=product,
        deviations=deviations,
        mu_a=mu_a,
        mu_b=mu_b,
        raw_values=tuple(raw),
        domain_measure=length,
    )


def cesaro_deviation(series: CorrelationSeries, n: int) -> Fraction:
    """Exact average of the first n deviations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > series.horizon:
        raise HorizonExceeded(
            f"n = {_quoted(str(n))} exceeds the series horizon {series.horizon}")
    return sum(series.deviations[:n], Fraction(0)) / n


@dataclass(frozen=True, slots=True)
class ExceptionalSetReport:
    """Outcome of a density-zero exceptional-set extraction.

    exceptional collects, window by window, the times where the sequence
    sits above the window's threshold; breakpoints are where each
    threshold's counting ratio is verified to stay under 1/k through the
    horizon.  tail_max is the largest off-exceptional value at or past
    the last breakpoint (certified < the final threshold); off_max is the
    largest off-exceptional value anywhere, which is what the Cesàro
    bound cesaro <= off_max + density.upper * sup_value needs.  All
    fields are finite-horizon facts; nothing here is a limit.
    """

    horizon: int
    thresholds: tuple[Fraction, ...]
    breakpoints: tuple[int, ...]
    exceptional: IndexSet
    density: DensityStats
    tail_density: DensityStats
    tail_start: int
    tail_max: Fraction
    off_max: Fraction
    sup_value: Fraction
    cesaro: Fraction


def extract_exceptional_set(
    a: Sequence[Fraction],
    thresholds: Sequence[Fraction] = DEFAULT_THRESHOLDS,
) -> ExceptionalSetReport:
    """Constructive finite-horizon Koopman-von Neumann extraction.

    For the k-th threshold let J_k be the times with a_n >= threshold_k
    (the J_k are nested increasing).  A greedy scan picks breakpoints
    n_1 < n_2 < ... with |J_k ∩ {0..n-1}|/n < 1/k for every n from n_k
    through the horizon; the exceptional set takes J_k on the window
    [n_{k-1}, n_k) and J_K on the tail [n_K, horizon).

    Raises :class:`NotExtractable` when some threshold admits no valid
    breakpoint within the horizon -- the averages are not decaying yet at
    this horizon.  That is a reportable verdict, not a crash.
    """
    values = [Fraction(v) if not isinstance(v, Fraction) else v for v in a]
    horizon = len(values)
    if horizon < 1:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("need at least one threshold")
    if any(t <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    if any(t1 <= t2 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly decreasing")

    breakpoints: list[int] = []
    for k, t in enumerate(thresholds, start=1):
        # n_k is the least n > n_{k-1} past the last m with |J_k ∩ {0..m-1}|*k >= m
        hits = worst = 0
        for m, v in enumerate(values, start=1):
            if v >= t:
                hits += 1
            if hits * k >= m:
                worst = m
        n_k = max(worst, breakpoints[-1] if breakpoints else 0) + 1
        if n_k > horizon:
            raise NotExtractable(
                f"threshold {t} (level {k}) admits no breakpoint: "
                f"the counting ratio reaches 1/{k} at n = {worst} and no later "
                f"start fits inside horizon {horizon}",
                threshold_index=k - 1,
            )
        breakpoints.append(n_k)

    # time i lies in the window [n_k, n_{k+1}) that uses J_{k+1}; the tail uses J_K
    last = len(thresholds) - 1
    tail_start = breakpoints[-1]
    zero = Fraction(0)
    members: list[int] = []
    tail_max = off_max = zero
    for i, v in enumerate(values):
        if v >= thresholds[min(bisect_right(breakpoints, i), last)]:
            members.append(i)
        else:
            off_max = max(off_max, v)
            if i >= tail_start:
                tail_max = max(tail_max, v)

    exceptional = IndexSet(horizon, tuple(members))
    return ExceptionalSetReport(
        horizon=horizon,
        thresholds=thresholds,
        breakpoints=tuple(breakpoints),
        exceptional=exceptional,
        density=density_stats(exceptional, tail_start=horizon),
        tail_density=density_stats(exceptional, tail_start=tail_start),
        tail_start=tail_start,
        tail_max=tail_max,
        off_max=off_max,
        sup_value=max(values),
        cesaro=sum(values, zero) / horizon,
    )


def intersection_witness(
    j1: IndexSet, j2: IndexSet, cutoff: int
) -> tuple[int | None, Fraction]:
    """Least common member above a cutoff, plus the inclusion-exclusion bound.

    The bound |J1 ∩ N|/N + |J2 ∩ N|/N - 1 evaluated at the shared horizon
    is an exact lower bound for the intersection's counting ratio; two
    sets with ratios close to one are forced to intersect, which is why a
    witness must exist once both densities are high enough.
    """
    if j1.horizon != j2.horizon:
        raise ValueError("index sets must share a horizon")
    if cutoff >= j1.horizon:
        raise ValueError("cutoff must be below the horizon")
    common = sorted(set(j1.members) & set(j2.members))
    witness = next((m for m in common if m > cutoff), None)
    n = j1.horizon
    bound = Fraction(len(j1.members), n) + Fraction(len(j2.members), n) - 1
    return witness, bound
