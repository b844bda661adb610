import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadyn import (
    EMPTY_SET,
    HorizonExceeded,
    IndexSet,
    IntervalSet,
    NotExtractable,
    OutOfDomain,
    bundled_example,
    cesaro_deviation,
    correlation_series,
    density_stats,
    extract_exceptional_set,
    intersection_witness,
)
from randgen import interval_sets_in, schedules

TENT = bundled_example("tent")
HALF = IntervalSet.parse("[0,1/2]")
UNIT_SET = IntervalSet.parse("[0,1]")


class TestCorrelationSeries:
    def test_tent_half_values(self):
        s = correlation_series(TENT, HALF, HALF, 3)
        assert s.values == (F(1, 2), F(1, 4), F(1, 4))
        assert s.product == F(1, 4)
        assert s.deviations == (F(1, 4), 0, 0)

    def test_empty_a_gives_zeros(self):
        s = correlation_series(TENT, EMPTY_SET, HALF, 5)
        assert all(v == 0 for v in s.values) and s.product == 0

    def test_full_sets_give_ones(self):
        s = correlation_series(TENT, UNIT_SET, UNIT_SET, 4)
        assert all(v == 1 for v in s.values) and s.product == 1

    def test_normalization_on_wide_domain(self):
        e31 = bundled_example("example31")
        s = correlation_series(e31, IntervalSet.parse("[0,3/2]"), IntervalSet.parse("[0,3/2]"), 2)
        assert all(v == 1 for v in s.values)
        assert s.raw_values[0] == F(3, 2) and s.domain_measure == F(3, 2)

    def test_rejects_sets_outside_domain(self):
        with pytest.raises(OutOfDomain):
            correlation_series(TENT, IntervalSet.parse("[0,3/2]"), HALF, 2)

    def test_preamble_schedule_matches_direct_chain(self):
        # rolling reuse across the cycle must agree with the naive chain
        from nadyn import prefix_preimage

        doubling = bundled_example("doubling").cycle[0]
        tent = TENT.cycle[0]
        sch_alt = bundled_example("tent_doubling_alternating")
        schedule = type(sch_alt)
        a = IntervalSet.parse("[1/8,5/8]")
        b = IntervalSet.parse("(1/4,7/8]")
        # 1-map preamble, 2-map cycle; then 2-map preamble, 3-map cycle with
        # N >= 2 * (pre + cyc), so every window slot rolls more than once
        for sch, n in (
            (schedule((doubling,), sch_alt.cycle, sch_alt.domain), 9),
            (schedule((doubling, tent), (tent, doubling, tent), sch_alt.domain), 12),
        ):
            series = correlation_series(sch, a, b, n)
            for i in range(n):
                expected = a.intersect(prefix_preimage(sch, b, i)).measure()
                assert series.raw_values[i] == expected

    def test_one_map_cycle_matches_direct_chain(self):
        from nadyn import prefix_preimage

        a = IntervalSet.parse("[1/8,5/8]")
        b = IntervalSet.parse("(1/4,7/8]")
        series = correlation_series(TENT, a, b, 9)
        for i in range(9):
            expected = a.intersect(prefix_preimage(TENT, b, i)).measure()
            assert series.raw_values[i] == expected


class TestCesaro:
    def test_tent_prefix_averages(self):
        s = correlation_series(TENT, HALF, HALF, 17)
        assert cesaro_deviation(s, 8) == F(1, 32)
        assert cesaro_deviation(s, 1) == F(1, 4)

    def test_full_domain_zero(self):
        s = correlation_series(TENT, UNIT_SET, UNIT_SET, 6)
        assert cesaro_deviation(s, 6) == 0

    def test_horizon_guard(self):
        s = correlation_series(TENT, HALF, HALF, 4)
        with pytest.raises(HorizonExceeded):
            cesaro_deviation(s, 5)


SQUARES_10K = tuple(i * i for i in range(100))


class TestDensityStats:
    def test_evens_tail_100(self):
        evens = IndexSet(10_000, tuple(range(0, 10_000, 2)))
        ds = density_stats(evens, 100)
        assert ds.lower == F(1, 2)
        assert ds.upper == F(51, 101) <= F(101, 200)

    def test_squares_at_horizon(self):
        squares = IndexSet(10_000, SQUARES_10K)
        ds = density_stats(squares, 10_000)
        assert ds.upper == ds.lower == F(1, 100)

    def test_full_set(self):
        full = IndexSet(50, tuple(range(50)))
        ds = density_stats(full, 1)
        assert ds.upper == ds.lower == 1


class TestExceptionalSetExtraction:
    def test_squares_indicator(self):
        values = [F(1) if math.isqrt(i) ** 2 == i else F(0) for i in range(10_000)]
        rep = extract_exceptional_set(values, (F(1, 2), F(1, 4), F(1, 8)))
        assert rep.exceptional.members == SQUARES_10K
        assert rep.density.upper == rep.density.lower == F(1, 100)
        assert rep.tail_max == 0 and rep.off_max == 0

    def test_zero_sequence(self):
        rep = extract_exceptional_set([F(0)] * 64)
        assert rep.exceptional.members == ()
        assert rep.off_max == 0

    def test_constant_one_not_extractable(self):
        with pytest.raises(NotExtractable):
            extract_exceptional_set([F(1)] * 64)

    def test_tail_max_alone_can_undercount(self):
        # early sub-threshold mass sits outside the exceptional set and
        # below every window threshold: only off_max sees it
        values = [F(3, 10)] + [F(0)] * 99
        rep = extract_exceptional_set(values, (F(1, 2), F(1, 4)))
        assert rep.exceptional.members == ()
        assert rep.tail_max == 0
        assert rep.off_max == F(3, 10)
        assert rep.cesaro <= rep.off_max + rep.density.upper * rep.sup_value

    def test_mixing_tail_bridge(self):
        series = correlation_series(TENT, HALF, HALF, 16)
        rep = extract_exceptional_set(series.deviations)
        for n in range(rep.tail_start, rep.horizon):
            if n not in rep.exceptional.members:
                assert series.deviations[n] < rep.thresholds[-1]


@settings(max_examples=60)
@given(st.lists(st.integers(0, 8).map(lambda k: F(k, 8)), min_size=1, max_size=200))
def test_extraction_coherence_inequality(values):
    try:
        rep = extract_exceptional_set(values)
    except NotExtractable:
        return
    assert rep.cesaro <= rep.off_max + rep.density.upper * rep.sup_value
    assert rep.density.upper == F(len(rep.exceptional.members), rep.horizon)


def reference_extraction(values, thresholds):
    """extract_exceptional_set straight from its definition, by direct counting.

    n_k is the least n > n_{k-1} with |J_k ∩ {0..m-1}|*k < m for every m in
    [n, N], where J_k holds the times with a value >= thresholds[k-1].
    """
    horizon = len(values)

    def hits(t, m):
        return sum(1 for v in values[:m] if v >= t)

    breakpoints = []
    for k, t in enumerate(thresholds, start=1):
        prev = breakpoints[-1] if breakpoints else 0
        n_k = next((n for n in range(prev + 1, horizon + 1)
                    if all(hits(t, m) * k < m for m in range(n, horizon + 1))), None)
        if n_k is None:
            worst = max([m for m in range(1, horizon + 1) if hits(t, m) * k >= m], default=0)
            raise NotExtractable(
                f"threshold {t} (level {k}) admits no breakpoint: the counting ratio "
                f"reaches 1/{k} at n = {worst} and no later start fits inside horizon "
                f"{horizon}", threshold_index=k - 1)
        breakpoints.append(n_k)
    bounds = [0] + breakpoints + [horizon]
    windows = [(bounds[j], bounds[j + 1], thresholds[min(j, len(thresholds) - 1)])
               for j in range(len(bounds) - 1)]
    members = [i for lo, hi, t in windows for i in range(lo, hi) if values[i] >= t]
    ratios = [F(sum(1 for i in members if i < n), n) for n in range(breakpoints[-1], horizon + 1)]
    off = [i for i in range(horizon) if i not in members]
    return {
        "breakpoints": tuple(breakpoints),
        "members": tuple(members),
        "density": (F(len(members), horizon),) * 2,
        "tail_density": (max(ratios), min(ratios)),
        "tail_max": max([values[i] for i in off if i >= breakpoints[-1]], default=F(0)),
        "off_max": max([values[i] for i in off], default=F(0)),
    }


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([F(0)] * 4 + [F(k, 8) for k in range(1, 9)]),
                min_size=1, max_size=40),
       st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True)
       .map(lambda js: tuple(F(j, 16) for j in sorted(js, reverse=True))))
def test_extraction_matches_its_definition(values, thresholds):
    try:
        expected = reference_extraction(values, thresholds)
    except NotExtractable as e:
        with pytest.raises(NotExtractable) as got:
            extract_exceptional_set(values, thresholds)
        assert (str(got.value), got.value.threshold_index) == (str(e), e.threshold_index)
        return
    rep = extract_exceptional_set(values, thresholds)
    assert {
        "breakpoints": rep.breakpoints,
        "members": rep.exceptional.members,
        "density": (rep.density.upper, rep.density.lower),
        "tail_density": (rep.tail_density.upper, rep.tail_density.lower),
        "tail_max": rep.tail_max,
        "off_max": rep.off_max,
    } == expected


@settings(max_examples=200)
@given(st.integers(1, 60).flatmap(lambda horizon: st.tuples(
    st.lists(st.integers(0, horizon - 1), unique=True),
    st.integers(1, horizon),
    st.just(horizon))))
def test_density_stats_match_directly_counted_ratios(case):
    members, tail_start, horizon = case
    ratios = [F(sum(1 for m in members if m < n), n) for n in range(tail_start, horizon + 1)]
    ds = density_stats(IndexSet(horizon, tuple(members)), tail_start)
    assert (ds.upper, ds.lower) == (max(ratios), min(ratios))


@settings(max_examples=25, deadline=None)
@given(schedules(), interval_sets_in(max_parts=2), interval_sets_in(max_parts=2))
def test_series_invariants_hold_for_random_systems(sch, a, b):
    series = correlation_series(sch, a, b, 6)
    assert all(0 <= v <= series.mu_a for v in series.values)
    top = max(series.deviations)
    for n in range(1, 7):
        assert 0 <= cesaro_deviation(series, n) <= top


@settings(max_examples=25)
@given(interval_sets_in(max_parts=2), interval_sets_in(max_parts=2))
def test_measure_preserving_maps_also_cap_by_mu_b(a, b):
    # with Lebesgue preserved the classical two-sided cap does hold
    for name in ("tent", "doubling"):
        series = correlation_series(bundled_example(name), a, b, 5)
        cap = min(series.mu_a, series.mu_b)
        assert all(0 <= v <= cap for v in series.values)


class TestIntersectionWitness:
    def test_evens_and_multiples_of_three(self):
        j1 = IndexSet(100, tuple(range(0, 100, 2)))
        j2 = IndexSet(100, tuple(range(3, 100, 3)))
        witness, bound = intersection_witness(j1, j2, 10)
        assert witness == 12
        assert bound == F(1, 2) + F(33, 100) - 1 < 0

    def test_full_sets(self):
        full = IndexSet(100, tuple(range(100)))
        witness, bound = intersection_witness(full, full, 50)
        assert witness == 51 and bound == 1

    def test_disjoint_parity_classes(self):
        evens = IndexSet(100, tuple(range(0, 100, 2)))
        odds = IndexSet(100, tuple(range(1, 100, 2)))
        witness, bound = intersection_witness(evens, odds, 0)
        assert witness is None and bound == 0


@given(
    st.sets(st.integers(0, 99)),
    st.sets(st.integers(0, 99)),
    st.integers(0, 98),
)
def test_inclusion_exclusion_bound_is_exact_lower_bound(m1, m2, cutoff):
    j1 = IndexSet(100, tuple(m1))
    j2 = IndexSet(100, tuple(m2))
    witness, bound = intersection_witness(j1, j2, cutoff)
    actual = F(len(set(m1) & set(m2)), 100)
    assert actual >= bound
    if witness is not None:
        assert witness > cutoff and witness in m1 and witness in m2
