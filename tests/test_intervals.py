from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nadyn import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    MalformedInterval,
    MalformedRational,
    canonicalize,
    format_rational,
    parse_rational,
)
from nadyn.intervals import _part
from randgen import interval_sets_in, intervals_in

UNIT = Interval(0, 1)


def iset(text):
    return IntervalSet.parse(text)


class TestRationals:
    def test_parse(self):
        assert parse_rational("1/2") == F(1, 2)
        assert parse_rational("-3") == -3
        assert parse_rational("  7/4 ") == F(7, 4)

    def test_decimal_rejected_with_suggestion(self):
        with pytest.raises(MalformedRational, match='"1/2"'):
            parse_rational("0.5")

    def test_garbage_rejected(self):
        for bad in ("", "one", "1/0", "1//2"):
            with pytest.raises(MalformedRational):
                parse_rational(bad)

    def test_format_round_trip(self):
        for q in (F(0), F(-7, 3), F(4), F(1, 2)):
            assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("parse,text,detail", [
        (parse_rational, "x" * 10_000,
         'cannot parse "%s…" (10000 characters) as a rational "p/q"' % ("x" * 60)),
        (parse_rational, "1/" + "0" * 100,
         'zero denominator in "1/%s…" (102 characters)' % ("0" * 58)),
        (parse_rational, "0." + "3" * 100,  # the hint is 33...3/10^100, 202 characters
         'float literal "0.%s…" (102 characters) not accepted; write the exact rational '
         '"%s…" (202 characters)' % ("3" * 58, "3" * 60)),
        (Interval.parse, "(" * 61,
         'cannot parse "%s…" (61 characters) as an interval literal' % ("(" * 60)),
        (Interval.parse, "(" * 60, 'cannot parse "%s" as an interval literal' % ("(" * 60)),
        (Interval.parse, "[%s,1]" % ("9" * 200),
         'lo > hi in "[%s…" (204 characters)' % ("9" * 59)),
        (Interval.parse, "(%s,%s)" % (10**200, 10**200),  # 1e200 as 201-digit integers
         'degenerate interval "(1%s…" (405 characters) must be closed on both ends'
         % ("0" * 58)),
    ], ids=["rational", "zero_denominator", "float_literal", "interval", "interval_at_60",
            "lo_above_hi", "degenerate"])
    def test_an_echoed_argument_is_cut_after_60_characters(self, parse, text, detail):
        with pytest.raises((MalformedRational, MalformedInterval)) as exc:
            parse(text)
        assert str(exc.value) == detail


class TestIntervalLiterals:
    def test_parse_flags(self):
        iv = Interval.parse("(1,3/2]")
        assert iv.lo == 1 and iv.hi == F(3, 2)
        assert iv.lo_open and not iv.hi_open

    def test_round_trip(self):
        for text in ("[0,1/4]", "(1,3/2)", "[1/2,1/2]", "(0,1]"):
            assert str(Interval.parse(text)) == text

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(MalformedInterval):
            Interval(1, 0)

    def test_open_point_rejected(self):
        with pytest.raises(MalformedInterval):
            Interval(F(1, 2), F(1, 2), lo_open=True)

    def test_float_endpoint_rejected(self):
        with pytest.raises(MalformedRational):
            Interval(0.5, 1)


class TestCanonicalize:
    def test_touching_closed_open_merge(self):
        got = canonicalize([Interval.parse("(0,1/2]"), Interval.parse("[1/2,1)")])
        assert got == iset("(0,1)")

    def test_double_open_touch_does_not_merge(self):
        got = canonicalize([Interval.parse("(0,1/2)"), Interval.parse("(1/2,1)")])
        assert got == IntervalSet.parse(["(0,1/2)", "(1/2,1)"])

    def test_sorting(self):
        got = canonicalize([Interval.parse("[3/4,1]"), Interval.parse("[0,1/4]")])
        assert got == IntervalSet.parse(["[0,1/4]", "[3/4,1]"])

    def test_point_fills_open_gap(self):
        got = canonicalize(
            [Interval.parse("[0,1/2)"), Interval.parse("[1/2,1/2]"), Interval.parse("(1/2,1]")]
        )
        assert got == iset("[0,1]")

    def test_noncanonical_direct_construction_rejected(self):
        for texts, why in [
            (("[0,1/2]", "[1/4,1]"), "overlap or touch"),
            (("[0,1/2)", "[1/2,1]"), "overlap or touch"),
            (("[0,1/2]", "(1/2,1]"), "overlap or touch"),
            (("[3/4,1]", "[0,1/4]"), "not sorted"),
            (("(1/2,1)", "(0,1/2)"), "not sorted"),
        ]:
            with pytest.raises(MalformedInterval, match=why):
                IntervalSet(tuple(Interval.parse(t) for t in texts))
        assert IntervalSet((Interval.parse("(0,1/2)"), Interval.parse("(1/2,1)"))).den == 2


class TestSetOps:
    def test_intersect(self):
        assert iset("[0,1/2]").intersect(iset("[1/4,3/4]")) == iset("[1/4,1/2]")

    def test_intersect_disjoint_by_flag(self):
        assert iset("[0,1]").intersect(iset("(1,3/2)")) == EMPTY_SET

    def test_subtract(self):
        assert iset("[0,1]").subtract(iset("(1/4,3/4)")) == IntervalSet.parse(
            ["[0,1/4]", "[3/4,1]"]
        )

    def test_subtract_leaves_endpoints(self):
        got = iset("[0,1]").subtract(iset("[0,1)"))
        assert got == iset("[1,1]")

    def test_measure(self):
        assert IntervalSet.parse(["[0,1/4]", "[3/4,1]"]).measure() == F(1, 2)
        assert EMPTY_SET.measure() == 0
        assert iset("(0,1)").measure() == 1

    def test_meets_flag_cases(self):
        assert not iset("[0,1]").meets(iset("(1,3/2)"))
        assert iset("[0,1]").meets(iset("[1,3/2]"))
        assert iset("(0,1/2)").meets(iset("(1/4,3/4)"))

    def test_contains_point(self):
        s = IntervalSet.parse(["[0,1/4)", "(1/2,1]"])
        assert s.contains_point(0)
        assert not s.contains_point(F(1, 4))
        assert not s.contains_point(F(1, 2))
        assert s.contains_point(1)


def _sample_points(a: IntervalSet, b: IntervalSet):
    ends = set()
    for s in (a, b):
        for p in s.parts:
            ends.add(p.lo)
            ends.add(p.hi)
    pts = set(ends)
    ends = sorted(ends)
    for i, x in enumerate(ends):
        for y in ends[i:]:
            pts.add((x + y) / 2)
    return pts


@given(interval_sets_in(), interval_sets_in())
def test_meets_agrees_with_sample_point_oracle(a, b):
    # any nonempty intersection of interval unions contains an endpoint of
    # one operand or a midpoint of two endpoints, so this oracle is exact
    oracle = any(a.contains_point(x) and b.contains_point(x) for x in _sample_points(a, b))
    assert a.meets(b) == oracle
    assert a.meets(b) == (not a.intersect(b).is_empty)


@given(interval_sets_in())
def test_canonicalize_idempotent(a):
    assert canonicalize(a.parts) == a


# ends that are negative, integral or thirds, points, and both flags
WIDE_SETS = interval_sets_in(F(-3), F(2), max_parts=4, den=15)
MIXED = IntervalSet.parse(["[-7/3,-2)", "[-1,-1]", "(-1/2,1/3]", "(5/7,1)", "[4/3,4/3]"])


@given(WIDE_SETS)
@example(MIXED)
@example(EMPTY_SET)
def test_text_and_parts_read_the_same_ends(s):
    # the Interval renderer is the reference for the text built from the numerators
    assert s.to_json() == [str(p) for p in s.parts]
    assert str(s) == (" ∪ ".join(str(p) for p in s.parts) or "∅")
    rebuilt = IntervalSet(Interval(F(a, s.den), F(b, s.den), lo_open, hi_open)
                          for a, b, lo_open, hi_open in s.ends())
    assert rebuilt == s


@given(st.integers(1, 24), st.integers(-48, 48), st.integers(0, 48), st.booleans(),
       st.booleans())
@example(6, -4, 6, True, False)  # -2/3 to 1/3 over 6: reducible to thirds
@example(4, 8, 0, False, False)  # the point 2 over 4
def test_part_inverts_ends(den, a, width, lo_open, hi_open):
    b = a + width
    if a == b:  # a point is closed
        lo_open = hi_open = False
    s = _part(den, a, b, lo_open, hi_open)
    ((a2, b2, lo2, hi2),) = s.ends()
    assert (F(a2, s.den), F(b2, s.den), lo2, hi2) == (F(a, den), F(b, den), lo_open, hi_open)
    assert s == IntervalSet((Interval(F(a, den), F(b, den), lo_open, hi_open),))
    assert s.span() == s.diameter() * s.den


@given(st.lists(intervals_in(), max_size=4))
def test_canonicalize_preserves_the_point_set(raw):
    got = canonicalize(raw)
    for x in PROBES:
        assert got.contains_point(x) == any(iv.contains(x) for iv in raw)


@given(interval_sets_in(), interval_sets_in())
def test_measure_additivity(a, b):
    assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()


@given(interval_sets_in(), interval_sets_in())
def test_de_morgan(a, b):
    ca, cb = a.complement_within(UNIT), b.complement_within(UNIT)
    assert a.union(b).complement_within(UNIT) == ca.intersect(cb)
    assert a.intersect(b).complement_within(UNIT) == ca.union(cb)


@given(interval_sets_in(), interval_sets_in(), interval_sets_in())
def test_distributivity(a, b, c):
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
    assert a.union(b.intersect(c)) == a.union(b).intersect(a.union(c))


@given(interval_sets_in())
def test_complement_partition(a):
    ca = a.complement_within(UNIT)
    assert a.union(ca) == IntervalSet((UNIT,))
    assert a.intersect(ca) == EMPTY_SET


@given(interval_sets_in(), interval_sets_in())
def test_subtract_semantics(a, b):
    d = a.subtract(b)
    assert d.intersect(b) == EMPTY_SET
    assert d.union(a.intersect(b)) == a


# sets generated with endpoints on the 1/16 grid differ, if at all, at a
# 1/32-grid point: grid points catch flag differences, midpoints catch
# interior ones -- so membership over all of {k/32} decides equality
PROBES = [F(k, 32) for k in range(33)]


@given(interval_sets_in(), interval_sets_in())
def test_ops_against_pointwise_membership_oracle(a, b):
    cases = [
        (a.union(b), lambda x: a.contains_point(x) or b.contains_point(x)),
        (a.intersect(b), lambda x: a.contains_point(x) and b.contains_point(x)),
        (a.subtract(b), lambda x: a.contains_point(x) and not b.contains_point(x)),
        (
            a.complement_within(UNIT),
            lambda x: UNIT.contains(x) and not a.contains_point(x),
        ),
    ]
    for result, truth in cases:
        for x in PROBES:
            assert result.contains_point(x) == truth(x)
