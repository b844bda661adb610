"""Floating-point Monte Carlo cross-check of the exact engine.

Orbits are simulated directly in doubles; correlations become hit
fractions of uniform samples, separations become sampled maxima.  The
point is cross-validation (exact values must land within a few standard
errors) and rough analysis of non-PL maps the exact engine rejects.
Estimates from non-PL maps carry an estimate-only flag downstream.

Same seed, same estimate: sampling is deterministic given the config.
Samples are drawn, propagated and counted in blocks of ``_BLOCK``, so one
block stays in cache across every step and memory does not grow with the
sample count.  Each estimate allocates its block buffers once, and every
block and every step runs through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import MalformedInput
from .intervals import Interval, IntervalSet, _quoted
from .plmaps import PLMap, Schedule, check_within

_BLOCK = 1 << 15  # samples per block: 256 KB of doubles


@dataclass(frozen=True, slots=True)
class SampleConfig:
    sample_count: int
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True, slots=True)
class QuadraticMap:
    """Closed-form map c0 + c1*x + c2*x**2, evaluated in doubles only."""

    c0: float
    c1: float
    c2: float

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        # in place; IEEE + and * commute, so these are the doubles of
        # c0 + xs*(c1 + xs*c2)
        ys = xs * self.c2
        ys += self.c1
        ys *= xs
        ys += self.c0
        return ys


def _double(value, name: str) -> float:
    """float(value), or MalformedInput naming a value that has no double.

    A text may be no number, and a valid exact system may hold one past 1.8e308.
    """
    try:
        return float(value)
    except (ValueError, OverflowError):
        raise MalformedInput(f"{name} {_quoted(str(value))} is not a number in the range "
                             "of a double") from None


class _Buffers:
    """The scratch arrays of one estimate, each ``size`` long.

    A call allocates them once, at block size, and every block runs through
    them: the draw, the orbit, the gather scratch and the piece index, and the
    mask with its two comparison arrays.  They belong to the call, never to a
    map, so concurrent estimates on one schedule share nothing.
    """

    __slots__ = ("draw", "orbit", "gather", "index", "mask", "above", "below")

    def __init__(self, size: int):
        self.draw, self.orbit, self.gather = (np.empty(size) for _ in range(3))
        self.index = np.empty(size, dtype=np.intp)
        self.mask, self.above, self.below = (np.empty(size, dtype=bool) for _ in range(3))


class _PLStep:
    """A PLMap's step in doubles, compiled once.

    ``step(xs, out, buffers)`` writes the images of xs into out, which may be
    xs itself, through the index and gather arrays of ``buffers``; ``step(xs)``
    writes them into fresh arrays.
    """

    __slots__ = ("uppers", "slopes", "intercepts")

    def __init__(self, m: PLMap):
        # a breakpoint goes to the piece whose end is closed there, as in the exact
        # engine (doubling sends 1/2 to 0, not 1): an open end is compared as the
        # double just below it, so the breakpoint itself counts as past it
        self.uppers = []
        for p in m.pieces[:-1]:
            hi = _double(p.on.hi, "piece end")
            self.uppers.append(np.nextafter(hi, -np.inf) if p.on.hi_open else hi)
        self.slopes = np.array([_double(p.slope, "slope") for p in m.pieces])
        self.intercepts = np.array([_double(p.intercept, "intercept") for p in m.pieces])

    def __call__(self, xs: np.ndarray, out: np.ndarray | None = None,
                 buffers: _Buffers | None = None) -> np.ndarray:
        if out is None:
            out, buffers = np.empty_like(xs), _Buffers(len(xs))
        m = len(xs)
        gathered = buffers.gather[:m]
        # the piece index is the number of interior ends below x: one
        # comparison pass per end beats a binary search at the few pieces
        # real maps have, and equals searchsorted(side="left") on finite xs;
        # a one-piece map keeps the scalar index 0
        idx = 0
        if self.uppers:
            idx = np.greater(xs, self.uppers[0], out=buffers.index[:m])
            for u in self.uppers[1:]:
                idx += np.greater(xs, u, out=buffers.above[:m])
        np.multiply(_gather(self.slopes, idx, gathered), xs, out=gathered)
        # out may be xs, which is read no more
        return np.add(gathered, _gather(self.intercepts, idx, out), out=out)


def _gather(values: np.ndarray, idx, out: np.ndarray):
    # mode="raise" would copy out first; every index is in range
    return values[idx] if isinstance(idx, int) else np.take(values, idx, out=out, mode="clip")


@dataclass(frozen=True, slots=True)
class FloatSchedule:
    """Float-evaluated schedule; the estimate-only twin of Schedule.

    ``domain`` keeps the ends exact, as given, for the set checks; ``lo`` and
    ``hi`` are their doubles, between which the samples are drawn.
    """

    lo: float
    hi: float
    preamble: tuple[Callable[[np.ndarray], np.ndarray], ...]
    cycle: tuple[Callable[[np.ndarray], np.ndarray], ...]
    estimate_only: bool = False
    domain: Interval = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "domain", Interval(Fraction(self.lo), Fraction(self.hi)))
        object.__setattr__(self, "lo", _double(self.lo, "domain end"))
        object.__setattr__(self, "hi", _double(self.hi, "domain end"))

    @classmethod
    def from_schedule(cls, sch: Schedule) -> "FloatSchedule":
        return cls.from_steps(sch.domain.lo, sch.domain.hi, sch.preamble, sch.cycle)

    @classmethod
    def from_steps(cls, lo, hi, preamble, cycle) -> "FloatSchedule":
        """Compile the ``PLMap`` steps; estimate-only iff some step is not one."""
        preamble, cycle = tuple(preamble), tuple(cycle)
        steps = preamble + cycle
        compiled = tuple(_PLStep(m) if isinstance(m, PLMap) else m for m in steps)
        return cls(
            lo=lo,
            hi=hi,
            preamble=compiled[: len(preamble)],
            cycle=compiled[len(preamble) :],
            estimate_only=not all(isinstance(m, PLMap) for m in steps),
        )

    phase, map_at = Schedule.phase, Schedule.map_at  # the same eventually-periodic indexing

    def orbit(self, xs: np.ndarray, n: int, buffers: _Buffers | None = None) -> np.ndarray:
        """The doubles n steps along the orbits of xs.

        Each PL step writes into ``buffers.orbit``, which xs may be; without
        ``buffers`` they are fresh, and xs is left as it is.  Any other step
        returns its own array.
        """
        if buffers is None:
            buffers = _Buffers(len(xs))
        out = buffers.orbit[: len(xs)]
        for i in range(n):
            m = self.map_at(i)
            xs = m(xs, out, buffers) if isinstance(m, _PLStep) else m(xs)
        return xs


def _as_float_schedule(system: Schedule | FloatSchedule) -> FloatSchedule:
    if isinstance(system, FloatSchedule):
        return system
    return FloatSchedule.from_schedule(system)


def _samples(cfg: SampleConfig, lo: float, hi: float,
             draw: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The samples in blocks, each written over the last in ``draw`` (a new array if None)."""
    # each double takes one draw of the generator, and lo + (hi - lo) * u is
    # uniform()'s own formula, so the blocks are exactly the doubles of one
    # uniform(lo, hi, cfg.sample_count)
    width = hi - lo
    if not math.isfinite(width):  # uniform() refuses it too
        raise MalformedInput(f"the samples' range [{lo!r}, {hi!r}] is wider than the "
                             "largest double")
    if draw is None:
        draw = np.empty(min(_BLOCK, cfg.sample_count))
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.sample_count, _BLOCK):
        xs = rng.random(out=draw[: min(_BLOCK, cfg.sample_count - start)])
        # random() gives doubles in [0, 1), never -0.0: x * 1.0 and x + 0.0 are x
        if width != 1.0:
            xs *= width
        if lo != 0.0:
            xs += lo
        yield xs


def _member_mask(s: IntervalSet, xs: np.ndarray, buffers: _Buffers | None = None) -> np.ndarray:
    """Which of xs lie in s, written into ``buffers.mask`` (new buffers if None)."""
    if buffers is None:
        buffers = _Buffers(len(xs))
    m = len(xs)
    mask, at_lo, at_hi = buffers.mask[:m], buffers.above[:m], buffers.below[:m]
    mask.fill(False)
    # openness flags matter even here: a constant piece parks positive
    # mass exactly on an endpoint, so strict/non-strict cannot be fudged;
    # a / den is correctly rounded, the same double as float(Fraction(a, den))
    for a, b, lo_open, hi_open in s.ends():
        (np.greater if lo_open else np.greater_equal)(xs, a / s.den, out=at_lo)
        (np.less if hi_open else np.less_equal)(xs, b / s.den, out=at_hi)
        at_lo &= at_hi
        mask |= at_lo
    return mask


def _compact(xs: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """xs[mask], written into the front of out.

    Only the index array is new, and it is freed on return, before the orbit
    runs; np.compress(out=) would also copy out first, as take's mode="raise"
    does.
    """
    where = np.flatnonzero(mask)
    return np.take(xs, where, out=out[: len(where)], mode="clip")


def mc_correlation(
    system: Schedule | FloatSchedule,
    a: IntervalSet,
    b: IntervalSet,
    n: int,
    cfg: SampleConfig,
) -> tuple[float, float]:
    """Estimate the lag-n normalized correlation of (A, B) by simulation.

    Returns (estimate, stderr) where the estimate is the fraction of
    uniform domain samples that start in A and land in B after n steps,
    an unbiased estimator of the exact normalized value; stderr is the
    binomial sqrt(p*(1-p)/m).  A and B must lie in the domain, as for
    ``correlation_series``: OutOfDomain otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    fs = _as_float_schedule(system)
    check_within(a, fs.domain, "A =")
    check_within(b, fs.domain, "B =")
    buffers = _Buffers(min(_BLOCK, cfg.sample_count))
    hits = 0
    for xs in _samples(cfg, fs.lo, fs.hi, buffers.draw):
        # only a sample that starts in A can count; orbits are elementwise, so each
        # orbit is the one it has in the whole block
        starts = _compact(xs, _member_mask(a, xs, buffers), buffers.orbit)
        hits += np.count_nonzero(_member_mask(b, fs.orbit(starts, n, buffers), buffers))
    p_hat = float(hits) / cfg.sample_count
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / cfg.sample_count)
    return p_hat, stderr


def mc_separation(
    system: Schedule | FloatSchedule,
    x: float,
    epsilon: float,
    n: int,
    cfg: SampleConfig,
) -> float:
    """Sampled maximum of |orbit(x) - orbit(y)| over y near x.

    y is drawn uniformly from the epsilon-ball around x clipped to the
    domain; the result is a lower bound on the true supremum.  x must lie
    in the domain, as for ``eval_point``: OutOfDomain otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not epsilon > 0:  # NaN included
        raise ValueError("epsilon must be positive")
    fs = _as_float_schedule(system)
    check_within(x, fs.domain, "x =")
    fx = fs.orbit(np.array([x]), n)[0]
    buffers = _Buffers(min(_BLOCK, cfg.sample_count))
    widest = -np.inf
    for ys in _samples(cfg, max(fs.lo, x - epsilon), min(fs.hi, x + epsilon), buffers.draw):
        gaps = np.subtract(fs.orbit(ys, n, buffers), fx, out=buffers.orbit[: len(ys)])
        # np.maximum, like np.max, propagates a NaN
        widest = np.maximum(widest, np.max(np.abs(gaps, out=gaps)))
    return float(widest)
