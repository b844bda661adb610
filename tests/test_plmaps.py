from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nadyn import (
    BudgetExceeded,
    Interval,
    IntervalSet,
    NotSelfMap,
    OutOfDomain,
    PieceGap,
    PieceOverlap,
    PropagationBudget,
    Schedule,
    UnknownExample,
    bundled_example,
    canonicalize,
    correlation_series,
    hitting_set,
    make_plmap,
    mixing_verdict,
    prefix_image,
    prefix_preimage,
    propagate,
    sensitivity_certificate,
    transitivity_verdict,
    weakmix_verdict,
)
from nadyn.intervals import _canonical, _scaled, affine_batch
from nadyn.plmaps import check_within
from randgen import UNIT, interval_sets_in, intervals_in, maps_with_sets, plmaps, schedules

TENT = bundled_example("tent")
DOUBLING = bundled_example("doubling")
E31 = bundled_example("example31")
ALT = bundled_example("tent_doubling_alternating")


def iset(spec):
    return IntervalSet.parse(spec)


class TestConstruction:
    def test_bundled_examples_valid(self):
        assert len(E31.cycle[0].pieces) == 3
        assert E31.domain == Interval(0, F(3, 2))
        assert len(TENT.cycle[0].pieces) == 2
        assert len(ALT.cycle) == 2

    def test_unknown_example(self):
        with pytest.raises(UnknownExample):
            bundled_example("lorenz")

    def test_not_self_map_reports_exact_image(self):
        with pytest.raises(NotSelfMap) as exc:
            make_plmap(UNIT, [(UNIT, 2, 0)])
        assert exc.value.image == Interval(0, 2)

    def test_gap_rejected(self):
        with pytest.raises(PieceGap):
            make_plmap(
                UNIT,
                [(Interval(0, F(1, 4)), 1, 0), (Interval(F(1, 2), 1, lo_open=True), 1, 0)],
            )

    def test_point_gap_rejected(self):
        with pytest.raises(PieceGap):
            make_plmap(
                UNIT,
                [
                    (Interval(0, F(1, 2), hi_open=True), 1, 0),
                    (Interval(F(1, 2), 1, lo_open=True), 1, 0),
                ],
            )

    def test_overlap_rejected(self):
        with pytest.raises(PieceOverlap):
            make_plmap(
                UNIT,
                [(Interval(0, F(1, 2)), 1, 0), (Interval(F(1, 2), 1), 1, 0)],
            )

    def test_degenerate_point_piece_allowed(self):
        m = make_plmap(
            UNIT,
            [
                (Interval(0, 0), 0, F(1, 2)),
                (Interval(0, 1, lo_open=True), 1, 0),
            ],
        )
        assert m.eval_point(0) == F(1, 2)


@st.composite
def piece_layouts(draw):
    """Pieces with ends on the 1/8 grid of [-1/8, 9/8]; half are near-tilings of [0,1].

    A near-tiling gives each cut to the left piece, the right piece, a point
    piece, both or neither; its ends may be open or miss the domain's; and
    a free piece may be added on top.
    """
    free = draw(st.lists(intervals_in(F(-1, 8), F(9, 8), den=10), max_size=5))
    if draw(st.booleans()):
        return free
    cuts = [F(c, 8) for c in sorted(draw(st.sets(st.integers(2, 6), max_size=3)))]
    ends = [draw(st.sampled_from([F(0), F(0), F(-1, 8), F(1, 8)])), *cuts,
            draw(st.sampled_from([F(1), F(1), F(9, 8), F(7, 8)]))]
    who = st.sampled_from(["left", "right", "point", "left", "right", "both", "neither"])
    owners = [draw(who) for _ in cuts]
    opens = [draw(st.sampled_from([False, False, True]))]
    for owner in owners:
        opens += [owner not in ("left", "both"), owner not in ("right", "both")]
    opens.append(draw(st.sampled_from([False, False, True])))
    tiles = [Interval(lo, hi, opens[2 * i], opens[2 * i + 1])
             for i, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    points = [Interval(c, c) for c, owner in zip(cuts, owners) if owner == "point"]
    return tiles + points + free[: draw(st.integers(0, 1))]


@settings(max_examples=300, deadline=None)
@given(piece_layouts())
def test_tiling_verdict_matches_sampled_coverage(layout):
    """Every multiple of 1/16 in [-1/8, 9/8] samples a distinct atom of the layout."""
    samples = [F(k, 16) for k in range(-2, 19)]
    cover = {x: sum(iv.contains(x) for iv in layout) for x in samples}
    inside = [x for x in samples if 0 <= x <= 1]
    twice = any(cover[x] > 1 for x in inside) or any(
        cover[x] for x in samples if not 0 <= x <= 1
    )
    gap = any(cover[x] == 0 for x in inside)
    pieces = [(iv, 0, 0) for iv in layout]
    if twice:
        with pytest.raises(PieceOverlap):
            make_plmap(UNIT, pieces)
    elif gap:
        with pytest.raises(PieceGap):
            make_plmap(UNIT, pieces)
    else:
        assert make_plmap(UNIT, pieces).eval_point(F(1, 2)) == 0


class TestEvalPoint:
    @pytest.mark.parametrize(
        "x,expected",
        [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)), (F(5, 4), F(1, 2))],
    )
    def test_three_branch_values(self, x, expected):
        assert E31.cycle[0].eval_point(x) == expected

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            TENT.cycle[0].eval_point(F(3, 2))


class TestCheckWithin:
    """One rule decides and words every out-of-domain error, for points and sets."""

    @pytest.mark.parametrize("point", [F(0), F(1, 2), F(1)])
    def test_a_point_in_the_closed_domain_passes(self, point):
        check_within(point, UNIT, "x =")

    @pytest.mark.parametrize("point,text", [(F(3, 2), "3/2"), (F(-1, 3), "-1/3")])
    def test_a_point_outside(self, point, text):
        with pytest.raises(OutOfDomain) as exc:
            check_within(point, UNIT, "x =")
        assert str(exc.value) == f'x = "{text}" is not in the domain [0,1]'

    @pytest.mark.parametrize("point,text", [(1.5, "1.5"), (float("nan"), "nan"),
                                            (float("-inf"), "-inf")])
    def test_a_float_point_outside(self, point, text):
        with pytest.raises(OutOfDomain) as exc:
            check_within(point, UNIT, "x =")
        assert str(exc.value) == f'x = "{text}" is not in the domain [0,1]'

    def test_a_float_point_is_compared_exactly(self):
        check_within(1.0, UNIT, "x =")
        with pytest.raises(OutOfDomain):  # the double 0.1 lies just above 1/10
            check_within(0.1, Interval(0, F(1, 10)), "x =")

    def test_a_set_outside(self):
        with pytest.raises(OutOfDomain) as exc:
            check_within(IntervalSet.parse(["[0,1/4]", "(3/4,3/2]"]), UNIT, "A =")
        assert str(exc.value) == 'A = "[0,1/4] ∪ (3/4,3/2]" is not in the domain [0,1]'

    def test_a_long_echo_is_cut_after_60_characters(self):
        big = F(2 * 10 ** 299)
        with pytest.raises(OutOfDomain) as exc:
            check_within(big, UNIT, "x =")
        assert str(exc.value) == (
            f'x = "2{"0" * 59}…" (300 characters) is not in the domain [0,1]')
        with pytest.raises(OutOfDomain, match=r"^x = .* \(300 characters\)"):
            TENT.cycle[0].eval_point(big)


class TestImages:
    def test_tent_folds(self):
        assert TENT.cycle[0].image_set(iset("[1/4,3/4]")) == iset("[1/2,1]")

    def test_three_branch_open_unit(self):
        assert E31.cycle[0].image_set(iset("(0,1)")) == iset("(0,1]")

    def test_doubling_merges(self):
        assert DOUBLING.cycle[0].image_set(iset("[1/4,3/4]")) == iset("[0,1)")

    def test_rejects_escaping_set(self):
        with pytest.raises(OutOfDomain):
            TENT.cycle[0].image_set(iset("[0,3/2]"))


class TestPreimages:
    def test_tent_half(self):
        got = TENT.cycle[0].preimage_set(iset("[0,1/2]"))
        assert got == IntervalSet.parse(["[0,1/4]", "[3/4,1]"])

    def test_full_set(self):
        assert TENT.cycle[0].preimage_set(iset("[0,1]")) == iset("[0,1]")

    def test_constant_piece_all_or_nothing(self):
        m = make_plmap(UNIT, [(UNIT, 0, F(1, 2))])
        assert m.preimage_set(iset("[1/4,3/4]")) == iset("[0,1]")
        assert m.preimage_set(iset("[3/4,1]")).is_empty

    def test_a_round_trip_through_finer_lattices_lands_on_the_least_den(self):
        # slope 3/2 takes [1/4,1/2] (den 4) to [3/8,3/4] (den 8); its inverse
        # works over den 24, and the result must come back as the same set
        m = make_plmap(UNIT, [(Interval(0, F(2, 3)), F(3, 2), 0),
                              (Interval(F(2, 3), 1, lo_open=True), -3, 3)])
        s = iset("[1/4,1/2]")
        img = m.image_set(s)
        assert img == iset("[3/8,3/4]") and img.den == 8
        back = m.preimage_set(img).intersect(iset("[0,2/3]"))
        assert back == s and hash(back) == hash(s) and back.den == s.den == 4
        halves = IntervalSet.parse(["[0,1/3)", "[1/3,2/3]"]).union(iset("(2/3,1]"))
        assert halves == iset("[0,1]") and hash(halves) == hash(iset("[0,1]")) and halves.den == 1


class TestPrefixOps:
    def test_prefix_image_tent(self):
        assert prefix_image(TENT, iset("(0,1/4)"), 2) == iset("(0,1)")

    def test_prefix_image_identity_at_zero(self):
        s = iset("(1/8,1/3]")
        assert prefix_image(ALT, s, 0) == s

    def test_prefix_image_three_branch(self):
        assert prefix_image(E31, iset("(0,1)"), 2) == iset("[0,1]")

    def test_prefix_preimage_tent_two_steps(self):
        got = prefix_preimage(TENT, iset("[0,1/2]"), 2)
        assert got == IntervalSet.parse(["[0,1/8]", "[3/8,5/8]", "[7/8,1]"])

    def test_prefix_preimage_zero_steps(self):
        assert prefix_preimage(TENT, iset("[0,1/2]"), 0) == iset("[0,1/2]")

    @pytest.mark.parametrize("n", [0, 1])
    def test_prefix_image_outside_the_domain_for_any_step_count(self, n):
        with pytest.raises(OutOfDomain, match=r'^set "\[2,3\]" is not in the domain \[0,1\]$'):
            prefix_image(TENT, iset("[2,3]"), n)

    def test_prefix_preimage_zero_steps_keeps_only_the_domain_part(self):
        got = prefix_preimage(TENT, iset("[1/2,3]"), 0)
        assert got == iset("[1/2,1]") and got.measure() == F(1, 2)
        # every longer chain already ignores the part outside the domain
        assert prefix_preimage(TENT, iset("[1/2,3]"), 2) == prefix_preimage(
            TENT, iset("[1/2,1]"), 2)

    def test_prefix_preimage_full_set(self):
        assert prefix_preimage(TENT, iset("[0,1]"), 10) == iset("[0,1]")

    def test_budget_exceeded_carries_step_and_parts(self):
        budget = PropagationBudget(max_parts=8)
        with pytest.raises(BudgetExceeded) as exc:
            prefix_preimage(ALT, iset("[0,1/2]"), 16, budget)
        assert exc.value.parts > 8
        assert 1 <= exc.value.step <= 16

    def test_alternating_schedule_is_time_varying(self):
        a = prefix_image(ALT, iset("[1/2,5/8]"), 1)
        b = prefix_image(ALT.shift(1), iset("[1/2,5/8]"), 1)
        assert a == iset("[3/4,1]") and b == iset("[0,1/4]")  # tent, then doubling


class TestPropagate:
    def test_yields_every_forward_step(self):
        s = iset("[1/2,5/8]")
        got = list(propagate(ALT, s, range(4), PropagationBudget()))
        assert got == [prefix_image(ALT, s, n) for n in range(1, 5)]

    def test_inverse_walks_indices_as_given(self):
        s = iset("(1/4,7/8]")
        chain = propagate(ALT, s, reversed(range(3)), PropagationBudget(), inverse=True)
        assert list(chain)[-1] == prefix_preimage(ALT, s, 3)

    def test_steps_numbered_from_one_along_the_chain(self):
        # map indices 5.. are deep in the schedule; the step count is not
        with pytest.raises(BudgetExceeded) as exc:
            list(propagate(TENT, iset("[0,1/2]"), range(5, 9), PropagationBudget(2),
                           inverse=True))
        assert (exc.value.step, exc.value.parts) == (2, 3)

    def test_a_forward_chain_checks_its_start_once_at_its_first_step(self, monkeypatch):
        checked = []
        monkeypatch.setattr("nadyn.plmaps.check_within",
                            lambda s, domain, label="set": checked.append(s) or
                            check_within(s, domain, label))
        s = iset("[1/2,5/8]")
        chain = propagate(ALT, s, range(5), PropagationBudget())
        assert not checked  # nothing runs before the first next()
        assert len(list(chain)) == 5 and checked == [s]
        list(propagate(ALT, s, range(5), PropagationBudget(), inverse=True))
        assert checked == [s]  # a preimage chain takes any set

    def test_an_out_of_domain_start_raises_at_the_first_next(self):
        chain = propagate(TENT, iset("[2,3]"), range(3), PropagationBudget())
        with pytest.raises(OutOfDomain, match=r'^set "\[2,3\]" is not in the domain \[0,1\]$'):
            next(chain)
        assert list(propagate(TENT, iset("[2,3]"), range(0), PropagationBudget())) == []
        assert list(propagate(TENT, iset("[2,3]"), range(2), PropagationBudget(),
                              inverse=True)) == [iset([])] * 2

    def test_computes_only_the_steps_taken(self):
        # a third preimage would hold 5 parts; stopping after two never makes it
        chain = propagate(TENT, iset("[0,1/2]"), range(10), PropagationBudget(3),
                          inverse=True)
        assert [len(s.parts) for s in islice(chain, 2)] == [2, 3]


class TestSchedule:
    def test_map_at_preamble_then_cycle(self):
        sch = Schedule((TENT.cycle[0],), (DOUBLING.cycle[0],), UNIT)
        assert sch.map_at(0) is TENT.cycle[0]
        for n in (1, 2, 5):
            assert sch.map_at(n) is DOUBLING.cycle[0]

    def test_phase_names_the_map_at_each_index(self):
        sch = Schedule((TENT.cycle[0],), ALT.cycle, UNIT)
        assert [sch.phase(n) for n in range(6)] == [0, 1, 2, 1, 2, 1]
        maps = sch.preamble + sch.cycle
        assert all(sch.map_at(n) is maps[sch.phase(n)] for n in range(6))
        with pytest.raises(ValueError):
            sch.phase(-1)

    def test_shift_matches_map_at(self):
        sch = Schedule((TENT.cycle[0],), ALT.cycle, UNIT)
        for m in range(4):
            shifted = sch.shift(m)
            for j in range(6):
                assert shifted.map_at(j) is sch.map_at(m + j)


# -- properties ---------------------------------------------------------------


@given(plmaps(), interval_sets_in(), interval_sets_in())
def test_adjunction(m, a, b):
    assert m.image_set(a).meets(b) == a.meets(m.preimage_set(b))


@given(plmaps(), interval_sets_in(), interval_sets_in())
def test_galois_containments(m, a, b):
    assert a.subset_of(m.preimage_set(m.image_set(a)))
    assert m.image_set(m.preimage_set(b)).subset_of(b)


# negative, non-dyadic ends: set keys go below zero and lattices mix denominators
_DOMAINS = (UNIT, Interval(F(-3, 2), F(1, 3)))


def _affine_parts(s, on, slope, intercept):
    """Each part of s ∩ on sent through x -> slope*x + intercept, in Fraction arithmetic."""
    out = []
    for iv in s.intersect(IntervalSet((on,))).parts:
        if slope == 0:  # a constant piece gives its point
            out.append(Interval(intercept, intercept))
            continue
        lo, hi = slope * iv.lo + intercept, slope * iv.hi + intercept
        flags = (iv.lo_open, iv.hi_open)
        if slope < 0:  # the ends and their flags swap
            lo, hi, flags = hi, lo, flags[::-1]
        out.append(Interval(lo, hi, *flags))
    return out


def reference_image(m, s):
    return canonicalize(iv for p in m.pieces
                        for iv in _affine_parts(s, p.on, p.slope, p.intercept))


def reference_preimage(m, s):
    parts = []
    for p in m.pieces:
        img = reference_image(m, IntervalSet((p.on,)))  # the piece meets no other piece
        if p.slope == 0:  # all of the piece, or nothing
            parts += [p.on] if s.meets(img) else []
        else:
            parts += _affine_parts(s, img.parts[0], 1 / p.slope, -p.intercept / p.slope)
    return canonicalize(parts)


@given(maps_with_sets(_DOMAINS), interval_sets_in(F(-2), F(2)))
def test_steps_equal_the_fraction_reference(case, wide):
    m, s = case
    assert m.image_set(s) == reference_image(m, s)
    assert m.preimage_set(s) == reference_preimage(m, s)
    assert m.preimage_set(wide) == reference_preimage(m, wide)


@settings(max_examples=60)
@given(schedules(), interval_sets_in(), interval_sets_in(F(-1), F(2)))
def test_chains_equal_the_fraction_reference(sch, s, wide):
    forward = list(propagate(sch, s, range(4), PropagationBudget()))
    backward = list(propagate(sch, wide, reversed(range(4)), PropagationBudget(), inverse=True))
    for i in range(4):
        s = reference_image(sch.map_at(i), s)
        wide = reference_preimage(sch.map_at(3 - i), wide)
        assert (forward[i], backward[i]) == (s, wide)


@given(maps_with_sets(_DOMAINS))
def test_preimage_agrees_with_pointwise_evaluation(case):
    # independent route: x lies in the preimage iff its exact orbit value
    # lies in b, checked on a grid finer than every endpoint involved
    m, b = case
    pre = m.preimage_set(b)
    for k in range(0, 129):
        x = m.domain.lo + (m.domain.hi - m.domain.lo) * F(k, 128)
        assert pre.contains_point(x) == b.contains_point(m.eval_point(x))


@given(maps_with_sets(_DOMAINS))
def test_image_membership_of_evaluated_points(case):
    m, a = case
    img = m.image_set(a)
    for k in range(0, 65):
        x = m.domain.lo + (m.domain.hi - m.domain.lo) * F(k, 64)
        if a.contains_point(x):
            assert img.contains_point(m.eval_point(x))


_CONSTANT_PIECE = make_plmap(UNIT, [(Interval(0, F(1, 2)), 0, F(1, 3)),
                                    (Interval(F(1, 2), 1, lo_open=True), 2, -1)])


@given(st.sampled_from(_DOMAINS).flatmap(lambda d: st.tuples(
    plmaps(domain=d),
    st.lists(st.one_of(st.just(IntervalSet()), interval_sets_in(d.lo, d.hi)), max_size=6),
    st.booleans())))
@example((TENT.cycle[0], [], False))
@example((_CONSTANT_PIECE, [], True))
@example((_CONSTANT_PIECE, [IntervalSet(), iset("[1/4,1/3]"), iset("[0,1]")], True))
def test_a_batched_step_equals_each_sets_step(case):
    m, sets, backward = case
    table, step = (m._backward, m.preimage_set) if backward else (m._forward, m.image_set)
    lattice = lcm(*(s.den for s in sets))  # any common denominator
    den, images = affine_batch(lattice, [_scaled(s.keys, lattice // s.den) for s in sets], table)
    steps = [step(s) for s in sets]
    assert [_canonical(den, keys) for keys in images] == steps
    assert den == lcm(1, *(s.den for s in steps))  # the least common denominator
    assert all((a == b) == (s == t) for a, s in zip(images, steps)
               for b, t in zip(images, steps))


@given(interval_sets_in())
def test_tent_and_doubling_preserve_measure_under_preimage(b):
    for sch in (TENT, DOUBLING):
        assert sch.cycle[0].preimage_set(b).measure() == b.measure()


@given(interval_sets_in(max_parts=1))
def test_continuous_maps_send_intervals_to_intervals(s):
    if s.is_empty:
        return
    assert len(TENT.cycle[0].image_set(s).parts) == 1


@given(interval_sets_in(hi=F(3, 2), max_parts=1))
def test_three_branch_continuity(s):
    if s.is_empty:
        return
    assert len(E31.cycle[0].image_set(s).parts) == 1


@settings(max_examples=40)
@given(schedules(), interval_sets_in(max_parts=2), st.integers(0, 3), st.integers(0, 3))
def test_composition_coherence(sch, s, m, n):
    whole = prefix_image(sch, s, m + n)
    staged = prefix_image(sch.shift(m), prefix_image(sch, s, m), n)
    assert whole == staged


# A schedule whose second map splits intervals at 1/3, so images gain parts.
_SPLIT = make_plmap(UNIT, [(Interval(0, F(1, 3)), F(1, 2), 0),
                           (Interval(F(1, 3), 1, lo_open=True), 1, 0)])
_PRE1 = Schedule((TENT.cycle[0],), (_SPLIT, TENT.cycle[0]), UNIT)
_PRE2 = Schedule((DOUBLING.cycle[0], TENT.cycle[0]),
                 (TENT.cycle[0], DOUBLING.cycle[0], TENT.cycle[0]), UNIT)
_THREE = IntervalSet.parse(["[0,1/16]", "[1/8,3/16]", "(1/4,5/16)"])


@pytest.mark.parametrize(
    "walk, max_parts, step, parts",
    [
        (lambda b: prefix_image(_PRE1, _THREE, 8, b), 3, 2, 4),
        (lambda b: prefix_preimage(ALT, iset("[0,1/2]"), 16, b), 8, 4, 13),
        # each sub-chain of a lag restarts the count: the 1-map preamble's
        # chain overflows at its step 1, the 2-map preamble's at its step 2
        (lambda b: correlation_series(_PRE1, iset("[0,1/2]"), iset("(1/4,7/8]"), 12, b),
         14, 1, 22),
        (lambda b: correlation_series(_PRE2, iset("[0,1/2]"), iset("(1/4,7/8]"), 12, b),
         16, 2, 32),
        (lambda b: hitting_set(_PRE1, _THREE, iset("(3/4,1)"), 8, b), 3, 2, 4),
        (lambda b: transitivity_verdict(_PRE1, F(1, 8), 8, b), 1, 2, 2),
        (lambda b: weakmix_verdict(_PRE1, F(1, 8), 8, b), 1, 2, 2),
        (lambda b: mixing_verdict(_PRE1, F(1, 8), 8, b), 1, 2, 2),
        (lambda b: sensitivity_certificate(_PRE1, F(1, 2), F(1, 8), 8, b), 1, 2, 2),
    ],
    ids=["prefix_image", "prefix_preimage", "correlation_preamble1",
         "correlation_preamble2", "hitting_set", "transitivity", "weakmix", "mixing",
         "sensitivity"],
)
def test_every_walker_raises_at_the_recorded_step(walk, max_parts, step, parts):
    with pytest.raises(BudgetExceeded) as exc:
        walk(PropagationBudget(max_parts))
    assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (step, parts, max_parts)
