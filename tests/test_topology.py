from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadyn import (
    CERTIFIED_FAIL,
    INCONCLUSIVE,
    WITNESSED_UP_TO,
    DegeneratePair,
    GridMismatch,
    Interval,
    IntervalSet,
    InvariantSetCertificate,
    NotInvariant,
    OutOfDomain,
    ScaleMismatch,
    Schedule,
    bundled_example,
    certified_fail_verdict,
    closed_grid,
    hitting_set,
    invariant_set_certificate,
    make_plmap,
    mixing_verdict,
    open_grid,
    prefix_image,
    prefix_preimage,
    recheck_certificate,
    sensitivity_certificate,
    sensitivity_constant,
    transitivity_verdict,
    weakmix_verdict,
)
from nadyn.plmaps import check_within
from randgen import UNIT, interval_sets_in, schedules

TENT = bundled_example("tent")
E31 = bundled_example("example31")


def iset(spec):
    return IntervalSet.parse(spec)


class TestHittingSet:
    def test_tent_low_to_high(self):
        hs = hitting_set(TENT, iset("(0,1/4)"), iset("(3/4,1)"), 5)
        assert hs.members == (2, 3, 4, 5)
        assert hs.least() == 2

    def test_three_branch_never_up(self):
        hs = hitting_set(E31, iset("(0,1)"), iset("(1,3/2)"), 30)
        assert hs.is_empty

    def test_domain_hits_itself(self):
        full = iset("[0,1]")
        assert hitting_set(TENT, full, full, 3).members == (1, 2, 3)

    @pytest.mark.parametrize("u,v,label", [("[2,3]", "[0,1]", "U"), ("[0,1/2]", "[2,3]", "V")])
    def test_u_and_v_must_lie_in_the_domain(self, u, v, label):
        with pytest.raises(OutOfDomain, match=rf'^{label} = "\[2,3\]" is not in the domain'):
            hitting_set(TENT, iset(u), iset(v), 3)

    def test_u_and_v_are_each_checked_once(self, monkeypatch):
        checked = []

        def counting(s, domain, label="set"):
            checked.append((s, label))
            check_within(s, domain, label)

        monkeypatch.setattr("nadyn.topology.check_within", counting)
        monkeypatch.setattr("nadyn.plmaps.check_within", counting)
        u, v = iset("[1/2,5/8]"), iset("[0,1/8]")
        assert hitting_set(TENT, u, v, 5).members == (2, 3, 4, 5)
        assert checked == [(u, "U ="), (v, "V =")]


class TestGrids:
    def test_open_cells(self):
        cells = open_grid(Interval(0, F(3, 2)), F(1, 4))
        assert len(cells) == 6
        assert str(cells[0].parts[0]) == "(0,1/4)"
        assert str(cells[5].parts[0]) == "(5/4,3/2)"

    @pytest.mark.parametrize("lo, hi, k", [(0, 1, 8), (F(1, 3), F(7, 3), 6), (F(-1, 2), F(1, 4), 3),
                                           (F(1, 6), F(5, 6), 4)])
    def test_cells_equal_their_rational_ends(self, lo, hi, k):
        domain, g = Interval(lo, hi), (F(hi) - lo) / k
        ends = [(lo + i * g, lo + (i + 1) * g) for i in range(k)]
        assert open_grid(domain, g) == tuple(IntervalSet((Interval(a, b, True, True),))
                                             for a, b in ends)
        assert closed_grid(domain, g) == tuple(Interval(a, b) for a, b in ends)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            open_grid(UNIT, F(1, 3) + F(1, 100))
        with pytest.raises(GridMismatch):
            transitivity_verdict(TENT, F(3, 7), 4)


class TestTransitivity:
    def test_tent_witnessed(self):
        v = transitivity_verdict(TENT, F(1, 4), 8)
        assert v.kind == WITNESSED_UP_TO
        assert len(v.witnesses) == 16 and not v.unhit

    def test_three_branch_inconclusive_with_unhit_pair(self):
        v = transitivity_verdict(E31, F(1, 4), 30)
        assert v.kind == INCONCLUSIVE
        # cells are (0,1/4).. (5/4,3/2); pair 0 -> 5 can never hit
        assert (0, 5) in v.unhit

    def test_single_cell_grid(self):
        for name in ("tent", "doubling", "example31", "tent_doubling_alternating"):
            sch = bundled_example(name)
            v = transitivity_verdict(sch, sch.domain.hi - sch.domain.lo, 1)
            assert v.kind == WITNESSED_UP_TO


class TestWeakMixing:
    def test_tent_witnessed(self):
        v = weakmix_verdict(TENT, F(1, 4), 10)
        assert v.kind == WITNESSED_UP_TO
        assert len(v.witnesses) == 16 * 16

    def test_three_branch_inconclusive(self):
        assert weakmix_verdict(E31, F(1, 4), 30).kind == INCONCLUSIVE

    def test_single_cell(self):
        assert weakmix_verdict(TENT, 1, 1).kind == WITNESSED_UP_TO


class TestMixing:
    def test_tent_witnessed_with_tail(self):
        # narrow cells miss distant cells at n=1; every image covers (0,1)
        # from n=2 on, so the certified tail starts exactly there
        v = mixing_verdict(TENT, F(1, 4), 10)
        assert v.kind == WITNESSED_UP_TO and v.tail == 2

    def test_three_branch_inconclusive(self):
        v = mixing_verdict(E31, F(1, 4), 30)
        assert v.kind == INCONCLUSIVE and v.unhit and v.tail is None

    def test_single_cell_tail_one(self):
        v = mixing_verdict(TENT, 1, 1)
        assert v.kind == WITNESSED_UP_TO and v.tail == 1


class TestHorizonValidation:
    @pytest.mark.parametrize(
        "verdict", [transitivity_verdict, weakmix_verdict, mixing_verdict]
    )
    @pytest.mark.parametrize("horizon", [0, -1])
    def test_verdicts_reject_horizon_below_one(self, verdict, horizon):
        with pytest.raises(ValueError, match="horizon"):
            verdict(TENT, F(1, 4), horizon)

    def test_hitting_set_rejects_horizon_below_one(self):
        with pytest.raises(ValueError, match="horizon"):
            hitting_set(TENT, iset("(0,1/4)"), iset("(3/4,1)"), 0)


class TestInvariantSetCertificate:
    def test_three_branch_certificate(self):
        cert = invariant_set_certificate(E31, iset("(0,1)"), iset("(1,3/2)"), iset("[0,1]"))
        assert cert.checked_maps == 1
        assert recheck_certificate(cert, E31)

    def test_soundness_against_direct_hitting(self):
        cert = invariant_set_certificate(E31, iset("(0,1)"), iset("(1,3/2)"), iset("[0,1]"))
        assert hitting_set(E31, cert.u, cert.v, 50).is_empty

    def test_not_invariant_w(self):
        with pytest.raises(NotInvariant) as exc:
            invariant_set_certificate(TENT, iset("(0,1/4)"), iset("(3/4,1)"), iset("[0,1/2]"))
        assert exc.value.condition == "forward_invariance"
        assert exc.value.offending == iset("[0,1]")

    def test_w_meeting_v_rejected(self):
        with pytest.raises(NotInvariant) as exc:
            invariant_set_certificate(TENT, iset("(0,1/4)"), iset("(3/4,1)"), iset("[0,1]"))
        assert exc.value.condition == "separation"

    @pytest.mark.parametrize("label", ["U", "V", "W"])
    def test_every_set_must_lie_in_the_domain(self, label):
        sets = {"U": iset("(0,1)"), "V": iset("(1,3/2)"), "W": iset("[0,1]"), label: iset("[2,3]")}
        with pytest.raises(OutOfDomain, match=rf'^{label} = "\[2,3\]" is not in the domain'):
            invariant_set_certificate(E31, sets["U"], sets["V"], sets["W"])
        forged = InvariantSetCertificate(w=sets["W"], u=sets["U"], v=sets["V"], checked_maps=1)
        assert not recheck_certificate(forged, E31)

    def test_certified_fail_verdict_wrapper(self):
        cert = invariant_set_certificate(E31, iset("(0,1)"), iset("(1,3/2)"), iset("[0,1]"))
        v = certified_fail_verdict("transitivity", cert, 30)
        assert v.kind == CERTIFIED_FAIL and v.certificate is cert


class TestSensitivityConstant:
    def test_values(self):
        assert sensitivity_constant(0, 1) == F(1, 8)
        assert sensitivity_constant(0, F(3, 2)) == F(3, 16)

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePair):
            sensitivity_constant(F(1, 3), F(1, 3))


class TestSensitivityCertificate:
    def test_tent_certificate(self):
        res = sensitivity_certificate(TENT, F(1, 8), F(1, 16), 8)
        assert res.passed
        assert all(w.n <= 4 for w in res.per_cell)

    def test_three_branch_certificate(self):
        res = sensitivity_certificate(E31, F(1, 4), F(1, 64), 30)
        assert res.passed and len(res.per_cell) == 96

    def test_isometries_fail(self):
        ident = make_plmap(UNIT, [(UNIT, 1, 0)])
        flip = make_plmap(UNIT, [(UNIT, -1, 1)])
        res = sensitivity_certificate(Schedule.cycling([ident, flip]), F(1, 8), F(1, 4), 100)
        assert not res.passed
        assert len(res.failures) == 4
        assert all(f.max_diameter == F(1, 4) for f in res.failures)

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatch):
            sensitivity_certificate(TENT, F(1, 8), F(3, 7), 8)

    @pytest.mark.parametrize("sch, scale", [(TENT, F(1, 64)), (E31, F(3, 128))],
                             ids=["tent", "example31"])
    def test_reported_cells_are_the_closed_grid(self, sch, scale):
        grid = closed_grid(sch.domain, scale)
        k = (sch.domain.hi - sch.domain.lo) / scale
        # built through the checking constructor, from the domain and the scale alone
        checked = [Interval(sch.domain.lo + i * scale, sch.domain.lo + (i + 1) * scale)
                   for i in range(int(k))]
        passed = sensitivity_certificate(sch, F(1, 8), scale, 30)
        failed = sensitivity_certificate(sch, sch.domain.hi - sch.domain.lo, scale, 1)
        assert passed.passed and not failed.passed
        for cells in ([w.cell for w in passed.per_cell], [f.cell for f in failed.failures]):
            assert cells == list(grid) == checked
            assert [str(c) for c in cells] == [str(c) for c in checked]
            assert {type(e) for c in cells for e in (c.lo, c.hi)} == {F}
            assert not any(c.lo_open or c.hi_open for c in cells)

    def test_reverification_exact(self):
        res = sensitivity_certificate(TENT, F(1, 8), F(1, 16), 8)
        for w in res.per_cell:
            img = prefix_image(TENT, IntervalSet((w.cell,)), w.n)
            assert img.diameter() == w.diameter > 2 * res.delta


# -- cross-cutting invariants -------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(schedules())
def test_verdict_lattice(sch):
    g, horizon = F(1, 4), 8
    mix = mixing_verdict(sch, g, horizon)
    weak = weakmix_verdict(sch, g, horizon)
    trans = transitivity_verdict(sch, g, horizon)
    if mix.kind == WITNESSED_UP_TO:
        assert weak.kind == WITNESSED_UP_TO
    if weak.kind == WITNESSED_UP_TO:
        assert trans.kind == WITNESSED_UP_TO


@settings(max_examples=25, deadline=None)
@given(schedules(), interval_sets_in(max_parts=2), interval_sets_in(max_parts=2))
def test_hitting_agrees_with_preimage_route(sch, u, v):
    if u.is_empty or v.is_empty:
        return
    horizon = 6
    hs = hitting_set(sch, u, v, horizon)
    for n in range(1, horizon + 1):
        backward = u.meets(prefix_preimage(sch, v, n))
        assert (n in hs.members) == backward


@settings(max_examples=25, deadline=None)
@given(schedules())
def test_transitivity_witnesses_are_real(sch):
    v = transitivity_verdict(sch, F(1, 4), 6)
    cells = open_grid(sch.domain, F(1, 4))
    for (ui, vi), n in v.witnesses:
        assert prefix_image(sch, cells[ui], n).meets(cells[vi])
    for ui, vi in v.unhit:
        assert hitting_set(sch, cells[ui], cells[vi], 6).is_empty
