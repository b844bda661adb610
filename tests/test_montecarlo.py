import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings

from nadyn import (
    BUNDLED_EXAMPLE_NAMES,
    EMPTY_SET,
    FloatSchedule,
    Interval,
    IntervalSet,
    MalformedInput,
    OutOfDomain,
    PLMap,
    QuadraticMap,
    SampleConfig,
    Schedule,
    bundled_example,
    correlation_series,
    make_plmap,
    mc_correlation,
    mc_separation,
    prefix_image,
    write_system_file,
)
from nadyn.montecarlo import _BLOCK, _PLStep, _member_mask, _samples
from nadyn.sysio import parse_mc_system_file
from randgen import UNIT, interval_sets_in, plmaps, rand_schedule

TENT = bundled_example("tent")
HALF = IntervalSet.parse("[0,1/2]")
BIG = F(10**400)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        cfg = SampleConfig(sample_count=5000, seed=99)
        a = mc_correlation(TENT, HALF, HALF, 3, cfg)
        b = mc_correlation(TENT, HALF, HALF, 3, cfg)
        assert a == b

    def test_different_seed_differs(self):
        a = mc_correlation(TENT, HALF, HALF, 3, SampleConfig(50_000, seed=1))
        b = mc_correlation(TENT, HALF, HALF, 3, SampleConfig(50_000, seed=2))
        assert a != b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            SampleConfig(0)


class TestCorrelation:
    def test_tent_lag_one_near_exact(self):
        estimate, stderr = mc_correlation(TENT, HALF, HALF, 1, SampleConfig(100_000, seed=7))
        assert stderr > 0
        assert abs(estimate - 0.25) <= 4 * stderr

    def test_empty_a(self):
        estimate, stderr = mc_correlation(TENT, EMPTY_SET, HALF, 2, SampleConfig(1000, seed=0))
        assert estimate == 0.0 and stderr == 0.0

    def test_full_sets(self):
        full = IntervalSet.parse("[0,1]")
        estimate, stderr = mc_correlation(TENT, full, full, 2, SampleConfig(1000, seed=0))
        assert estimate == 1.0 and stderr == 0.0


class TestBreakpoints:
    def test_float_step_gives_each_breakpoint_to_the_piece_that_owns_it(self):
        # doubling owns 1/2 on its right piece: 1/2 -> 0, not 1
        rng = random.Random(53)
        systems = [bundled_example(name) for name in BUNDLED_EXAMPLE_NAMES]
        systems += [rand_schedule(rng, mixing_bias=True) for _ in range(40)]
        for sch in systems:
            fs = FloatSchedule.from_schedule(sch)
            for i in range(len(sch.preamble) + len(sch.cycle)):
                m = sch.map_at(i)
                for x in sorted({e for p in m.pieces for e in (p.on.lo, p.on.hi)}):
                    got = fs.map_at(i)(np.array([float(x)]))[0]
                    want = float(m.eval_point(x))
                    assert got == pytest.approx(want, abs=1e-12), (m, x)


def searchsorted_step(m):
    """Reference PL step: each sample's piece found by binary search."""
    uppers = np.array([
        np.nextafter(float(p.on.hi), -np.inf) if p.on.hi_open else float(p.on.hi)
        for p in m.pieces[:-1]
    ])
    slopes = np.array([float(p.slope) for p in m.pieces])
    intercepts = np.array([float(p.intercept) for p in m.pieces])

    def step(xs):
        idx = np.searchsorted(uppers, xs, side="left")
        return slopes[idx] * xs + intercepts[idx]

    return step


def assert_step_matches_searchsorted(m, seed=0):
    ends = np.array(sorted({float(e) for p in m.pieces for e in (p.on.lo, p.on.hi)}))
    xs = np.concatenate([
        np.random.default_rng(seed).uniform(float(m.domain.lo), float(m.domain.hi), 100_000),
        ends,
        np.nextafter(ends, -np.inf),
        np.nextafter(ends, np.inf),
    ])
    got, want = _PLStep(m)(xs), searchsorted_step(m)(xs)
    assert np.array_equal(got, want), m


class TestStepKernel:
    @pytest.mark.parametrize("name", BUNDLED_EXAMPLE_NAMES)
    def test_bundled_maps_match_searchsorted_bit_for_bit(self, name):
        sch = bundled_example(name)
        for i, m in enumerate(sch.preamble + sch.cycle):
            assert_step_matches_searchsorted(m, seed=i)

    @settings(max_examples=80, deadline=None)
    @given(plmaps())
    @example(make_plmap(UNIT, [(UNIT, F(-3, 4), F(7, 8))]))  # one piece: no ends to count
    def test_random_maps_match_searchsorted_bit_for_bit(self, m):
        assert_step_matches_searchsorted(m)

    def test_many_piece_map(self):
        # 50 chords between grid values, open and closed upper ends alternating
        rng, k = random.Random(48), 50
        pieces = []
        for i in range(k):
            p, q = F(i, k), F(i + 1, k)
            u, v = F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64)
            slope = (v - u) / (q - p)
            iv = Interval(p, q, lo_open=i > 0 and i % 2 == 0, hi_open=i % 2 == 0 and i < k - 1)
            pieces.append((iv, slope, u - slope * p))
        assert_step_matches_searchsorted(make_plmap(UNIT, pieces))

    def test_in_place_quadratic_matches_the_nested_form(self):
        xs = np.random.default_rng(5).uniform(0.0, 1.0, 100_000)
        for c0, c1, c2 in [(0.0, 4.0, -4.0), (0.1, 3.7, -3.7), (1 / 3, -0.7, 0.29)]:
            want = c0 + xs * (c1 + xs * c2)
            assert np.array_equal(QuadraticMap(c0, c1, c2)(xs), want)


def reference_mask(s, xs):
    """Membership by the doubles of each Interval's ends, with its flags."""
    mask = np.zeros(xs.shape, dtype=bool)
    for p in s.parts:
        lo, hi = float(p.lo), float(p.hi)
        at_lo = (xs > lo) if p.lo_open else (xs >= lo)
        at_hi = (xs < hi) if p.hi_open else (xs <= hi)
        mask |= at_lo & at_hi
    return mask


class TestMemberMask:
    @settings(max_examples=80, deadline=None)
    @given(interval_sets_in(F(-3), F(2), max_parts=4, den=15))
    @example(IntervalSet.parse(["[-7/3,-2)", "[-1,-1]", "(-1/2,1/3]", "(5/7,1)"]))
    @example(IntervalSet.parse(["(1/3,%d/%d]" % (10**30 + 1, 10**30), "[10/7,10/7]"]))
    def test_equals_the_interval_reference_bit_for_bit(self, s):
        ends = np.array([float(e) for p in s.parts for e in (p.lo, p.hi)])
        xs = np.concatenate([
            np.random.default_rng(0).uniform(-3.5, 2.5, 1000),
            ends,
            np.nextafter(ends, -np.inf),
            np.nextafter(ends, np.inf),
        ])
        assert np.array_equal(_member_mask(s, xs), reference_mask(s, xs))


class TestSeparation:
    def test_identity_bounded_by_epsilon(self):
        got = mc_separation(TENT, 1 / 3, 1 / 16, 0, SampleConfig(1000, seed=3))
        assert got <= 1 / 16

    def test_tent_spreads(self):
        got = mc_separation(TENT, 1 / 3, 1 / 16, 8, SampleConfig(1000, seed=3))
        assert got > 0.25

    @pytest.mark.parametrize("x, text", [(5.0, "5.0"), (-0.5, "-0.5"), (math.nan, "nan")])
    def test_a_point_outside_the_domain_is_worded_like_eval(self, x, text):
        with pytest.raises(OutOfDomain) as exc:
            mc_separation(TENT, x, 0.1, 1, SampleConfig(10))
        assert str(exc.value) == f'x = "{text}" is not in the domain [0,1]'

    def test_the_domain_ends_are_in_the_domain(self):
        for x in (0.0, 1.0):
            assert mc_separation(TENT, x, 0.1, 1, SampleConfig(10)) >= 0

    def test_isometry_never_spreads(self):
        flip = make_plmap(UNIT, [(UNIT, -1, 1)])
        sch = Schedule.constant(flip)
        for n in (1, 10, 100):
            got = mc_separation(sch, 0.5, 0.125, n, SampleConfig(500, seed=5))
            assert got <= 0.125 + 1e-12

    def test_never_exceeds_exact_diameter(self):
        rng = random.Random(2024)
        for _ in range(25):
            sch = rand_schedule(rng)
            x = F(rng.randint(1, 15), 16)
            eps = F(1, 16)
            n = rng.randint(0, 6)
            ball = IntervalSet(
                (Interval(max(F(0), x - eps), min(F(1), x + eps)),)
            )
            exact = prefix_image(sch, ball, n).diameter()
            got = mc_separation(sch, float(x), float(eps), n, SampleConfig(400, seed=rng.randint(0, 9999)))
            assert got <= float(exact) + 1e-9


class TestQuadraticMaps:
    def test_logistic_schedule_runs(self):
        logistic = QuadraticMap(0.0, 4.0, -4.0)
        fs = FloatSchedule.from_steps(0.0, 1.0, (), (logistic,))
        assert fs.estimate_only
        cfg = SampleConfig(20_000, seed=11)
        estimate, stderr = mc_correlation(fs, HALF, HALF, 3, cfg)
        assert 0.0 <= estimate <= 1.0 and stderr > 0
        assert mc_correlation(fs, HALF, HALF, 3, cfg) == (estimate, stderr)

    def test_exact_schedule_wrapper_not_estimate_only(self):
        assert not FloatSchedule.from_schedule(TENT).estimate_only


class TestDomain:
    LOGISTIC = FloatSchedule.from_steps(0.0, 1.0, (), (QuadraticMap(0.0, 4.0, -4.0),))

    @pytest.mark.parametrize("a,b", [("[1/2,3]", "[0,1]"), ("[0,1]", "(1,2]")], ids=["A", "B"])
    def test_sets_outside_the_domain_raise_as_for_the_exact_series(self, a, b):
        a, b = IntervalSet.parse(a), IntervalSet.parse(b)
        with pytest.raises(OutOfDomain) as exact:
            correlation_series(TENT, a, b, 2)
        for system in (TENT, FloatSchedule.from_schedule(TENT), self.LOGISTIC):
            with pytest.raises(OutOfDomain) as estimated:
                mc_correlation(system, a, b, 1, SampleConfig(10))
            assert str(estimated.value) == str(exact.value)

    def test_the_exact_domain_outlives_its_doubles(self):
        third = Interval(0, F(1, 3))
        sch = Schedule.constant(make_plmap(third, [(third, 1, 0)]))
        fs = FloatSchedule.from_schedule(sch)
        assert fs.domain == third and fs.hi == float(F(1, 3)) < F(1, 3)
        whole = IntervalSet((third,))
        assert mc_correlation(fs, whole, whole, 1, SampleConfig(100)) == (1.0, 0.0)

    @pytest.mark.parametrize("domain,pieces,name", [
        (Interval(0, BIG), [(Interval(0, BIG), 1, 0)], "domain end"),
        (UNIT, [(Interval(0, 1 / BIG), BIG, 0), (Interval(1 / BIG, 1, lo_open=True), 1, 0)],
         "slope"),
    ], ids=["domain_end", "slope"])
    def test_an_exact_number_past_a_double_is_malformed_input(self, domain, pieces, name):
        sch = Schedule.constant(make_plmap(domain, pieces))
        whole = IntervalSet((domain,))
        assert correlation_series(sch, whole, whole, 1).values  # the exact engine runs it
        with pytest.raises(MalformedInput) as exc:
            mc_correlation(sch, whole, whole, 1, SampleConfig(10))
        assert str(exc.value) == f'{name} "{"1" + "0" * 59}…" (401 characters) ' \
                                 "is not a number in the range of a double"


def assert_same_orbits(a: FloatSchedule, b: FloatSchedule, n: int = 12) -> None:
    xs = np.random.default_rng(5).uniform(a.lo, a.hi, 2000)
    assert (a.lo, a.hi) == (b.lo, b.hi)
    assert np.array_equal(a.orbit(xs.copy(), n), b.orbit(xs.copy(), n))


# the bundled systems have no preamble; the random ones here do, some of them
SCHEDULES = [bundled_example(name) for name in BUNDLED_EXAMPLE_NAMES] + [
    rand_schedule(random.Random(seed)) for seed in range(6)
]


class TestFloatScheduleConstructor:
    """from_steps is the one constructor: it compiles PL steps and sets estimate_only."""

    @pytest.mark.parametrize("sch", SCHEDULES)
    def test_from_steps_and_from_schedule_agree_bit_for_bit(self, sch):
        fs = FloatSchedule.from_steps(sch.domain.lo, sch.domain.hi, sch.preamble, sch.cycle)
        assert not fs.estimate_only
        assert_same_orbits(fs, FloatSchedule.from_schedule(sch))
        # the reference: every step compiled by hand, field by field
        by_hand = FloatSchedule(
            float(sch.domain.lo),
            float(sch.domain.hi),
            tuple(_PLStep(m) for m in sch.preamble),
            tuple(_PLStep(m) for m in sch.cycle),
        )
        assert_same_orbits(fs, by_hand)

    def test_a_pl_step_beside_a_quadratic_one_is_compiled_and_estimate_only(self):
        fs = FloatSchedule.from_steps(0, 1, (TENT.cycle[0],), (QuadraticMap(0.0, 4.0, -4.0),))
        assert fs.estimate_only
        # tent sends 1/4 to 1/2, the logistic map sends 1/2 to 1
        assert fs.orbit(np.array([0.25]), 2).tolist() == [1.0]

    @pytest.mark.parametrize("sch", SCHEDULES)
    def test_pl_system_file_loads_like_from_schedule(self, tmp_path, sch):
        path = tmp_path / "system.json"
        write_system_file(str(path), sch)
        fs = parse_mc_system_file(str(path))
        assert not fs.estimate_only
        assert_same_orbits(fs, FloatSchedule.from_schedule(sch))


def whole_array_correlation(fs, a, b, n, cfg):
    """Reference estimate: every sample drawn and propagated in one array."""
    xs = np.random.default_rng(cfg.seed).uniform(fs.lo, fs.hi, cfg.sample_count)
    hits = _member_mask(a, xs) & _member_mask(b, fs.orbit(xs, n))
    p_hat = float(np.count_nonzero(hits)) / cfg.sample_count
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / cfg.sample_count)


def whole_array_separation(fs, x, epsilon, n, cfg):
    """Reference separation: one array of samples, one maximum."""
    rng = np.random.default_rng(cfg.seed)
    ys = rng.uniform(max(fs.lo, x - epsilon), min(fs.hi, x + epsilon), cfg.sample_count)
    fx = fs.orbit(np.array([x]), n)[0]
    return float(np.max(np.abs(fs.orbit(ys, n) - fx)))


STREAMED = [FloatSchedule.from_schedule(sch) for sch in SCHEDULES] + [TestDomain.LOGISTIC]


class TestStreaming:
    """Blocks of samples give the doubles, estimates and maxima of one whole array."""

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("fs", STREAMED)
    def test_equals_the_whole_array_bit_for_bit(self, fs, count):
        cfg = SampleConfig(count, seed=count)
        a, b = IntervalSet.parse("[0,1/2]"), IntervalSet.parse(["(1/8,1/4]", "[1/3,3/4)"])
        for n in (0, 1, 7):
            assert mc_correlation(fs, a, b, n, cfg) == whole_array_correlation(fs, a, b, n, cfg)
            got = mc_separation(fs, 0.3, 0.1, n, cfg)
            assert got == whole_array_separation(fs, 0.3, 0.1, n, cfg)

    @pytest.mark.parametrize("fs", STREAMED)
    def test_orbiting_only_the_samples_in_a_counts_the_hits_of_every_orbit(self, fs):
        cfg = SampleConfig(2 * _BLOCK + 5, seed=11)
        b = IntervalSet.parse(["(1/8,1/4]", "[1/3,3/4)"])
        for a in (EMPTY_SET, IntervalSet.parse(["[0,1/8]", "(1/4,1/2)"]), IntervalSet.parse("[0,1]")):
            for n in (0, 1, 5):
                # the old formula: every sample's orbit, then the mask of A
                hits = sum(np.count_nonzero(_member_mask(a, xs) & _member_mask(b, fs.orbit(xs, n)))
                           for xs in _samples(cfg, fs.lo, fs.hi))
                p_hat = float(hits) / cfg.sample_count
                stderr = math.sqrt(p_hat * (1.0 - p_hat) / cfg.sample_count)
                assert mc_correlation(fs, a, b, n, cfg) == (p_hat, stderr)

    def test_only_the_samples_in_a_are_orbited(self):
        seen = []

        def step(xs):
            seen.append(xs)
            return xs

        fs = FloatSchedule.from_steps(0.0, 1.0, (), (step,))
        a = IntervalSet.parse("[0,1/4]")
        estimate, _ = mc_correlation(fs, a, a, 2, SampleConfig(1000, seed=3))
        assert len(seen) == 2 and len(seen[0]) == round(estimate * 1000)
        assert all(np.all(xs <= 0.25) for xs in seen)

    def test_a_nan_orbit_is_a_nan_separation(self):
        # 1e300 * x**2 overflows to inf, and inf - inf is NaN
        fs = FloatSchedule.from_steps(0.0, 1.0, (), (QuadraticMap(0.0, 1e300, 1e300),))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(mc_separation(fs, 0.5, 0.25, 2, SampleConfig(_BLOCK + 1)))

    def test_blocks_are_the_doubles_of_one_draw(self):
        count = 3 * _BLOCK + 7
        whole = np.random.default_rng(4).uniform(-0.5, 2.0, count)
        blocks = [xs.copy() for xs in _samples(SampleConfig(count, seed=4), -0.5, 2.0)]
        assert [len(xs) for xs in blocks] == [_BLOCK] * 3 + [7]
        assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("lo,hi", [(0.0, 2.5), (-0.5, 0.5)])
    def test_a_skipped_scale_or_shift_keeps_the_doubles_of_one_draw(self, lo, hi):
        # lo = 0 skips only the shift, width 1 only the scale
        count = _BLOCK + 7
        whole = np.random.default_rng(5).uniform(lo, hi, count)
        blocks = [xs.copy() for xs in _samples(SampleConfig(count, seed=5), lo, hi)]
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_a_huge_sample_count_yields_its_first_block_at_once(self):
        # a whole draw of 10**12 doubles would need 8 TB
        first = next(_samples(SampleConfig(10**12, seed=9), 0.0, 1.0))
        assert np.array_equal(first, np.random.default_rng(9).uniform(0.0, 1.0, 2 * _BLOCK)[:_BLOCK])


def test_matches_exact_engine_on_the_desk_instance():
    series = correlation_series(TENT, HALF, HALF, 9)
    for n in (0, 1, 4, 8):
        estimate, stderr = mc_correlation(TENT, HALF, HALF, n, SampleConfig(200_000, seed=n))
        exact = float(series.values[n])
        tolerance = 4 * stderr if stderr else 1e-12
        assert abs(estimate - exact) <= tolerance


class AllocatingPLStep:
    """The PL step as it was before the buffered lane: fresh arrays on every call."""

    def __init__(self, m):
        self.uppers = [np.nextafter(float(p.on.hi), -np.inf) if p.on.hi_open else float(p.on.hi)
                       for p in m.pieces[:-1]]
        self.slopes = np.array([float(p.slope) for p in m.pieces])
        self.intercepts = np.array([float(p.intercept) for p in m.pieces])

    def __call__(self, xs):
        idx = 0
        for u in self.uppers:
            idx += xs > u
        ys = self.slopes.take(idx)
        ys *= xs
        ys += self.intercepts.take(idx)
        return ys


def allocating_orbit(fs, xs, n):
    for i in range(n):
        xs = fs.map_at(i)(xs)
    return xs


def allocating_blocks(cfg, lo, hi):
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.sample_count, _BLOCK):
        yield rng.uniform(lo, hi, min(_BLOCK, cfg.sample_count - start))


def allocating_correlation(fs, a, b, n, cfg):
    """The estimate's loop before the buffered lane: every block and step allocates."""
    hits = 0
    for xs in allocating_blocks(cfg, fs.lo, fs.hi):
        starts = xs[reference_mask(a, xs)]
        hits += np.count_nonzero(reference_mask(b, allocating_orbit(fs, starts, n)))
    p_hat = float(hits) / cfg.sample_count
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / cfg.sample_count)


def allocating_separation(fs, x, epsilon, n, cfg):
    fx = allocating_orbit(fs, np.array([x]), n)[0]
    widest = -np.inf
    for ys in allocating_blocks(cfg, max(fs.lo, x - epsilon), min(fs.hi, x + epsilon)):
        widest = np.maximum(widest, np.max(np.abs(allocating_orbit(fs, ys, n) - fx)))
    return float(widest)


def both_lanes(lo, hi, preamble, cycle):
    """The schedule of the buffered lane, and its twin whose PL steps allocate."""
    def twin(steps):
        return tuple(AllocatingPLStep(m) if isinstance(m, PLMap) else m for m in steps)
    return (FloatSchedule.from_steps(lo, hi, preamble, cycle),
            FloatSchedule(F(lo), F(hi), twin(preamble), twin(cycle)))


class CountingStep:
    """A foreign step that keeps the length of every array it is given."""

    def __init__(self):
        self.lengths = []

    def __call__(self, xs):
        self.lengths.append(len(xs))
        return xs


WIDE = Interval(F(-1, 2), 2)
WIDE_TENT = make_plmap(WIDE, [(Interval(F(-1, 2), F(3, 4)), 2, F(1, 2)),
                              (Interval(F(3, 4), 2, lo_open=True), -2, F(7, 2))])
LANES = {
    **{name: bundled_example(name) for name in BUNDLED_EXAMPLE_NAMES},
    **{f"random{seed}": rand_schedule(random.Random(seed)) for seed in range(4)},
    "preamble": Schedule((TENT.cycle[0], bundled_example("doubling").cycle[0]),
                         (TENT.cycle[0],), UNIT),
    "one_piece": Schedule.constant(make_plmap(UNIT, [(UNIT, F(-3, 4), F(7, 8))])),
    "quadratic": (0, 1, (TENT.cycle[0],), (QuadraticMap(0.0, 4.0, -4.0),)),
    "nan_orbit": (0, 1, (), (QuadraticMap(0.0, 1e300, 1e300),)),  # inf at step 2: NaN gaps
    "wide_domain": Schedule.constant(WIDE_TENT),
}


def lane_steps(case):
    if isinstance(case, Schedule):
        return case.domain.lo, case.domain.hi, case.preamble, case.cycle
    return case


def same_float(got, want):
    return got == want or math.isnan(got) and math.isnan(want)


class TestBufferedLane:
    """Per-call buffers give every estimate of the allocating loop, bit for bit."""

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("name", LANES)
    def test_equals_the_allocating_loop_bit_for_bit(self, name, count):
        buffered, allocating = both_lanes(*lane_steps(LANES[name]))
        cfg = SampleConfig(count, seed=count + 3)
        if buffered.lo < 0:
            a, b = IntervalSet.parse("[-1/2,1/2]"), IntervalSet.parse(["(0,1]", "[3/2,2]"])
        else:
            a, b = IntervalSet.parse("[0,1/2]"), IntervalSet.parse(["(1/8,1/4]", "[1/3,3/4)"])
        with np.errstate(over="ignore", invalid="ignore"):
            for n in (0, 1, 7):
                assert mc_correlation(buffered, a, b, n, cfg) == \
                    allocating_correlation(allocating, a, b, n, cfg)
                for x, epsilon in ((0.3, 0.1), (float(buffered.hi), 0.25)):
                    assert same_float(mc_separation(buffered, x, epsilon, n, cfg),
                                      allocating_separation(allocating, x, epsilon, n, cfg))

    def test_a_foreign_step_sees_the_same_arrays_in_both_lanes(self):
        a = IntervalSet.parse("[0,1/4]")
        cfg = SampleConfig(2 * _BLOCK + 9, seed=3)
        results, lengths = [], []
        for lane in (0, 1):
            step = CountingStep()
            fs = both_lanes(0, 1, (TENT.cycle[0],), (step, TENT.cycle[0]))[lane]
            run = mc_correlation if lane == 0 else allocating_correlation
            results.append(run(fs, a, a, 5, cfg))
            lengths.append(step.lengths)
        assert results[0] == results[1] and lengths[0] == lengths[1]
        # two calls per block (steps 1 and 3), each on the block's samples in A
        in_a = reference_mask(a, np.random.default_rng(3).uniform(0, 1, cfg.sample_count))
        assert len(lengths[0]) == 3 * 2 and sum(lengths[0][::2]) == np.count_nonzero(in_a)

    def test_the_draw_is_uniform_bit_for_bit(self):
        rng = random.Random(61)
        for _ in range(60):
            seed, count = rng.randrange(2**32), rng.randint(1, 5000)
            lo = rng.choice([0.0, -0.5, rng.uniform(-1e6, 1e6), -1e300, 5e-324])
            hi = lo + rng.choice([0.0, 1.0, 2.5, rng.uniform(0, 1e6), 1e300, 5e-324])
            blocks = _samples(SampleConfig(count, seed), lo, hi)
            draws = np.concatenate([xs.copy() for xs in blocks])
            assert np.array_equal(draws, np.random.default_rng(seed).uniform(lo, hi, count)), \
                (seed, lo, hi)

    def test_a_range_past_the_largest_double_is_malformed_input(self):
        fs = FloatSchedule.from_steps(-10**308, 10**308, (), (QuadraticMap(0.0, 1.0, 0.0),))
        with pytest.raises(MalformedInput) as exc:
            mc_correlation(fs, HALF, HALF, 1, SampleConfig(10))
        assert "wider than the largest double" in str(exc.value)
        assert mc_separation(fs, 0.0, 1.0, 1, SampleConfig(10)) <= 1.0

    def test_two_threads_on_one_schedule_get_the_sequential_estimates(self):
        fs = FloatSchedule.from_schedule(LANES["preamble"])
        a, b = HALF, IntervalSet.parse(["(1/8,1/4]", "[1/3,3/4)"])
        jobs = [(n, SampleConfig(_BLOCK * 2 + 1 + n, seed=n)) for n in range(8)]

        def run(job):
            n, cfg = job
            return mc_correlation(fs, a, b, n, cfg), mc_separation(fs, 0.3, 0.1, n, cfg)

        sequential = [run(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                assert list(pool.map(run, jobs)) == sequential
