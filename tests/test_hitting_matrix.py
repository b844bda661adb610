"""The two grid walks against plain references: the hitting matrix and its
memo, the sensitivity certificate, and the budget rule of their batched walk.

The matrix reference is the k-target loop the verdicts used before the
matrix existed: every image step asks every cell ``meets``.  The
sensitivity reference walks each cell's chain with ``propagate``, one cell
after another, and compares ``Fraction`` diameters.  The budget reference
walks every cell's chain the same way and reports the least step at which
one overflows, as a walk of all the chains in lockstep meets it.
"""

import dataclasses
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nadyn import (
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    WITNESSED_UP_TO,
    BudgetExceeded,
    GridMismatch,
    Interval,
    IntervalSet,
    PropagationBudget,
    Schedule,
    bundled_example,
    closed_grid,
    hitting_matrix,
    make_plmap,
    mixing_verdict,
    open_grid,
    propagate,
    sensitivity_certificate,
    transitivity_verdict,
    weakmix_verdict,
)
from nadyn.intervals import affine_batch
from nadyn.topology import _hitting_matrix
from randgen import schedules

VERDICTS = [transitivity_verdict, weakmix_verdict, mixing_verdict]


def reference_matrix(sch, g, horizon):
    cells = open_grid(sch.domain, g)
    masks = []
    for cell in cells:
        row = [0] * len(cells)
        for n, cur in enumerate(propagate(sch, cell, range(horizon), DEFAULT_BUDGET), start=1):
            for j, target in enumerate(cells):
                if cur.meets(target):
                    row[j] |= 1 << (n - 1)
        masks.append(tuple(row))
    return cells, tuple(masks)


def reference_weakmix_listing(masks):
    """Every two ordered cell pairs, p1-major and p2-minor, as the verdict lists them."""
    k = len(masks)
    pairs = [(u, v) for u in range(k) for v in range(k)]
    witnesses, unhit = [], []
    for p1 in pairs:
        for p2 in pairs:
            common = masks[p1[0]][p1[1]] & masks[p2[0]][p2[1]]
            if common:
                witnesses.append(((p1, p2), (common & -common).bit_length()))
            else:
                unhit.append((p1, p2))
    return tuple(witnesses), tuple(unhit)


def reference_cell_listing(masks, score):
    """Every ordered cell pair, u-major and v-minor, split by a nonzero score."""
    k = len(masks)
    witnesses, unhit = [], []
    for u in range(k):
        for v in range(k):
            n = score(masks[u][v])
            if n:
                witnesses.append(((u, v), n))
            else:
                unhit.append((u, v))
    return tuple(witnesses), tuple(unhit)


def reference_transitivity_listing(masks):
    """Each cell pair's least hitting time, by scanning its bits."""
    return reference_cell_listing(
        masks, lambda mask: next((n for n in range(1, mask.bit_length() + 1)
                                  if mask >> (n - 1) & 1), 0))


def reference_mixing_listing(masks, horizon):
    """Each cell pair's least N hit at every n in {N..horizon}, by scanning down."""
    def tail_start(mask):
        n = horizon
        while n >= 1 and mask >> (n - 1) & 1:
            n -= 1
        return n + 1 if n < horizon else 0
    return reference_cell_listing(masks, tail_start)


# domains: the unit interval, one not starting at 0, example31's, a negative one
DOMAINS = [(F(0), F(1)), (F(1, 3), F(7, 3)), (F(0), F(3, 2)), (F(-1, 2), F(1, 4))]


@st.composite
def grid_systems(draw):
    """(schedule, g, horizon) whose breakpoints and piece values lie on the half-grid.

    Constant pieces then park points either on a cell boundary (an even
    half-grid index) or strictly inside a cell (an odd one), and each shared
    breakpoint is owned by a randomly chosen side, so images carry both flags.
    """
    lo, hi = draw(st.sampled_from(DOMAINS))
    k = draw(st.integers(1, 6))
    g = (hi - lo) / k
    half = 2 * k

    def at(i):
        return lo + g * F(i, 2)

    def one_map():
        n_pieces = draw(st.integers(1, min(3, half)))
        cuts = draw(st.lists(st.integers(1, half - 1), unique=True,
                             min_size=n_pieces - 1, max_size=n_pieces - 1))
        bounds = [0] + sorted(cuts) + [half]
        owners = [draw(st.booleans()) for _ in range(n_pieces - 1)]  # True: left piece
        pieces = []
        for i in range(n_pieces):
            p, q = at(bounds[i]), at(bounds[i + 1])
            lo_open = i > 0 and owners[i - 1]
            hi_open = i < n_pieces - 1 and not owners[i]
            u = at(draw(st.integers(0, half)))
            v = u if draw(st.booleans()) else at(draw(st.integers(0, half)))
            slope = (v - u) / (q - p)
            pieces.append((Interval(p, q, lo_open, hi_open), slope, u - slope * p))
        return make_plmap(Interval(lo, hi), pieces)

    preamble = tuple(one_map() for _ in range(draw(st.integers(0, 1))))
    cycle = tuple(one_map() for _ in range(draw(st.integers(1, 2))))
    return Schedule(preamble, cycle, Interval(lo, hi)), g, draw(st.integers(1, 6))


def reference_sensitivity(sch, delta, scale, horizon):
    """Each closed cell's (cell, n, diameter) witness or (cell, max diameter) failure,
    and the (phase, set) states each chain steps."""
    witnesses, failures, states = [], [], []
    for cell in closed_grid(sch.domain, scale):
        s = IntervalSet((cell,))
        best = s.diameter()
        for i, cur in enumerate(propagate(sch, s, range(horizon), DEFAULT_BUDGET)):
            states.append((sch.phase(i), s))
            s, d = cur, cur.diameter()
            if d > 2 * delta:
                witnesses.append((cell, i + 1, d))
                break
            best = max(best, d)
        else:
            failures.append((cell, best))
    return witnesses, failures, states


def assert_sensitivity_equals_reference(sch, delta, scale, horizon):
    witnesses, failures, _ = reference_sensitivity(sch, delta, scale, horizon)
    res = sensitivity_certificate(sch, delta, scale, horizon)
    if failures:
        assert not res.passed
        assert [(f.cell, f.max_diameter) for f in res.failures] == failures
    else:
        assert res.passed
        assert [(w.cell, w.n, w.diameter) for w in res.per_cell] == witnesses


@settings(max_examples=150, deadline=None)
@given(grid_systems(), st.integers(1, 16), st.booleans())
def test_sensitivity_equals_propagate_reference(system, sixteenths, halve):
    sch, g, horizon = system
    delta = (sch.domain.hi - sch.domain.lo) * F(sixteenths, 32)
    assert_sensitivity_equals_reference(sch, delta, g / 2 if halve else g, horizon)


_UNIT = Interval(0, 1)
_HALF_THEN_TENT = Schedule((make_plmap(_UNIT, [(_UNIT, F(1, 2), 0)]),),
                           bundled_example("tent").cycle, _UNIT)


@pytest.mark.parametrize("sch, delta, scale, horizon", [
    (bundled_example("tent_doubling_alternating"), F(1, 2), F(1, 3), 8),
    # [0,1/2] is a cell at the halving phase and the image of one at the tent phase
    (_HALF_THEN_TENT, F(1, 4), F(1, 2), 3),
], ids=["alternating", "preamble"])
def test_sensitivity_steps_a_set_by_the_map_of_each_phase_it_recurs_at(
        sch, delta, scale, horizon):
    *_, states = reference_sensitivity(sch, delta, scale, horizon)
    phases = defaultdict(set)
    for phase, s in states:
        phases[s].add(phase)
    assert any(sch.map_at(p).image_set(s) != sch.map_at(q).image_set(s)
               for s, ps in phases.items() for p in ps for q in ps)
    assert_sensitivity_equals_reference(sch, delta, scale, horizon)


@pytest.mark.parametrize("delta, passed", [(F(1, 8), False), (F(1, 2**12), True)])
def test_reported_cells_equal_their_dataclass_construction(delta, passed):
    # each reported cell is built with its slots' own setters, not the dataclass __init__
    res = sensitivity_certificate(bundled_example("tent"), delta, F(1, 64), 3)
    assert res.passed == passed
    for cell in res.per_cell if passed else res.failures:
        cls = type(cell)
        built = cls(*(getattr(cell, f.name) for f in dataclasses.fields(cls)))
        assert cell == built and hash(cell) == hash(built) and repr(cell) == repr(built)
        assert dataclasses.astuple(cell) == dataclasses.astuple(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.cell = None


def test_a_failing_cell_reports_its_widest_set():
    # each chain is the cell, then [0,1/2] or [1/2,1], then the cell again: the widest
    # set is neither the first nor the last, and is over halves, not quarters
    tent_then_half = Schedule((), (bundled_example("tent").cycle[0],
                                   make_plmap(_UNIT, [(_UNIT, F(1, 2), 0)])), _UNIT)
    res = sensitivity_certificate(tent_then_half, F(1, 4), F(1, 4), 4)
    assert [f.max_diameter for f in res.failures] == [F(1, 2)] * 4
    assert_sensitivity_equals_reference(tent_then_half, F(1, 4), F(1, 4), 4)


def first_overflow(sch, cells, horizon, budget, done=lambda s: False):
    """The (step, parts) of the first overflow met when the cells' chains are walked in
    lockstep with propagate, each until done(set) ends it: the least step at which any
    chain overflows, and the most parts a chain holds at that step; None if none does."""
    overflows = []
    for cell in cells:
        try:
            for cur in propagate(sch, cell, range(horizon), budget):
                if done(cur):
                    break
        except BudgetExceeded as exc:
            overflows.append((exc.step, -exc.parts))
    if not overflows:
        return None
    step, parts = min(overflows)
    return step, -parts


def raised(walk):
    try:
        walk()
    except BudgetExceeded as exc:
        return exc.step, exc.parts
    return None


@settings(max_examples=150, deadline=None)
@given(grid_systems(), st.integers(1, 3), st.integers(1, 16), st.booleans())
def test_a_walk_raises_iff_a_cell_chain_overflows_and_as_it_does(system, max_parts,
                                                                 sixteenths, halve):
    sch, g, horizon = system
    budget = PropagationBudget(max_parts)
    assert (raised(lambda: hitting_matrix(sch, g, horizon, budget))
            == first_overflow(sch, open_grid(sch.domain, g), horizon, budget))
    delta, scale = (sch.domain.hi - sch.domain.lo) * F(sixteenths, 32), g / 2 if halve else g
    cells = [IntervalSet((cell,)) for cell in closed_grid(sch.domain, scale)]
    assert (raised(lambda: sensitivity_certificate(sch, delta, scale, horizon, budget))
            == first_overflow(sch, cells, horizon, budget, lambda s: s.diameter() > 2 * delta))


_HALVE = make_plmap(_UNIT, [(Interval(0, F(7, 8)), F(1, 2), 0),
                            (Interval(F(7, 8), 1, lo_open=True), F(1, 2), F(1, 2))])
# cuts every set that straddles 1/16 or 1/2 into apart parts
_LIFT = make_plmap(_UNIT, [(Interval(0, F(1, 16)), 1, 0),
                           (Interval(F(1, 16), F(1, 2), lo_open=True), 1, F(1, 2)),
                           (Interval(F(1, 2), 1, lo_open=True), 1, F(-1, 2))])
# the identity, so that a preamble delays _HALVE and _LIFT by one step
_IDENTITY = make_plmap(_UNIT, [(_UNIT, 1, 0)])
GRID_WALKS = [
    lambda sch, budget, horizon=4: hitting_matrix(sch, F(1, 4), horizon, budget),
    lambda sch, budget, horizon=4: sensitivity_certificate(sch, F(1, 2), F(1, 4), horizon,
                                                           budget),
]


class TestBudgetRule:
    """A walk past the budget raises at the first step at which any cell overflows, with
    the most parts a cell holds at that step, as a walk of the cells in lockstep would."""

    @pytest.mark.parametrize("walk", GRID_WALKS, ids=["matrix", "sensitivity"])
    def test_a_higher_cell_overflowing_first_is_reported(self, walk):
        # the last cell splits at step 1, since (3/4, 1) meets both pieces of _HALVE;
        # the first cell splits at step 2, when _LIFT cuts its image (0, 1/8) at 1/16
        sch = Schedule((), (_HALVE, _LIFT), _UNIT)
        budget = PropagationBudget(1)
        assert first_overflow(sch, open_grid(_UNIT, F(1, 4))[:1], 4, budget) == (2, 2)
        assert first_overflow(sch, open_grid(_UNIT, F(1, 4)), 4, budget) == (1, 2)
        assert raised(lambda: walk(sch, budget)) == (1, 2)

    @pytest.mark.parametrize("walk", GRID_WALKS, ids=["matrix", "sensitivity"])
    def test_the_reported_step_less_one_is_a_horizon_that_fits(self, walk):
        # behind the preamble the last cell splits at step 2 and the first at step 3
        sch = Schedule((_IDENTITY,), (_HALVE, _LIFT), _UNIT)
        budget = PropagationBudget(1)
        assert raised(lambda: walk(sch, budget, 5)) == (2, 2)
        assert raised(lambda: walk(sch, budget, 1)) is None

    @pytest.mark.parametrize("walk", GRID_WALKS, ids=["matrix", "sensitivity"])
    def test_a_merged_group_overflows_at_its_step(self, walk, monkeypatch):
        # tent sends the first and the last cell onto one set, which _LIFT then splits
        sch = Schedule((), (bundled_example("tent").cycle[0], _LIFT), _UNIT)
        batches = []
        monkeypatch.setattr("nadyn.plmaps.affine_batch", lambda den, batch, table:
                            batches.append(batch := list(batch)) or affine_batch(den, batch, table))
        assert raised(lambda: walk(sch, PropagationBudget(1))) == (2, 2)
        assert list(map(len, batches)) == [4, 2]  # 4 cells, then 2 groups; none past step 2


@settings(max_examples=150, deadline=None)
@given(grid_systems(), st.integers(1, 3), st.integers(1, 16), st.booleans())
@example((Schedule((_IDENTITY,), (_HALVE, _LIFT), _UNIT), F(1, 4), 5), 1, 16, False)
def test_a_walk_refused_at_a_step_fits_the_horizon_before_it(system, max_parts, sixteenths,
                                                             halve):
    sch, g, horizon = system
    budget = PropagationBudget(max_parts)
    delta, scale = (sch.domain.hi - sch.domain.lo) * F(sixteenths, 32), g / 2 if halve else g
    for walk in (lambda h: hitting_matrix(sch, g, h, budget),
                 lambda h: sensitivity_certificate(sch, delta, scale, h, budget)):
        over = raised(lambda: walk(horizon))
        if over is not None and over[0] > 1:
            assert raised(lambda: walk(over[0] - 1)) is None


class TestMerge:
    def test_tent_steps_far_fewer_sets_than_cells_times_steps(self, monkeypatch):
        stepped = []
        monkeypatch.setattr("nadyn.plmaps.affine_batch", lambda den, batch, table:
                            stepped.append(len(batch := list(batch))) or
                            affine_batch(den, batch, table))
        tent = bundled_example("tent")
        cells, masks = hitting_matrix(tent, F(1, 1024), 30)
        assert len(stepped) == 30 and stepped[0] == 1024
        # cells u and 1023 - u share their image from step 1, and the groups keep halving
        assert stepped[1] == 512 and sum(stepped) < 30 * 1024 // 10
        assert masks[0] == masks[1023] and masks[0] != masks[1]


@settings(max_examples=150, deadline=None)
@given(grid_systems())
def test_matrix_equals_meets_reference(system):
    sch, g, horizon = system
    assert hitting_matrix(sch, g, horizon) == reference_matrix(sch, g, horizon)


def assert_run_rows_expand_to_the_reference(sch, g, horizon):
    """The memo's run rows are maximal and expand to the reference matrix."""
    _, masks = reference_matrix(sch, g, horizon)
    (k, *_), rows = _hitting_matrix(sch, g, horizon, DEFAULT_BUDGET)
    assert len(rows) == k == len(masks)
    for (firsts, run_masks), want in zip(rows, masks):
        assert firsts[0] == 0 and list(firsts) == sorted(set(firsts)) and firsts[-1] < k
        assert all(a != b for a, b in zip(run_masks, run_masks[1:]))
        ends = (*firsts[1:], k)
        assert tuple(m for a, b, m in zip(firsts, ends, run_masks) for _ in range(a, b)) == want


@settings(max_examples=150, deadline=None)
@given(schedules(), st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 8), F(1, 12)]),
       st.integers(1, 6))
def test_run_rows_expand_to_the_meets_reference(sch, g, horizon):
    assert_run_rows_expand_to_the_reference(sch, g, horizon)


@settings(max_examples=150, deadline=None)
@given(grid_systems())
def test_run_rows_on_half_grid_systems_expand_to_the_meets_reference(system):
    assert_run_rows_expand_to_the_reference(*system)


@pytest.mark.parametrize("g", [F(3, 2), F(3, 4), F(1, 2), F(3, 8), F(1, 4), F(1, 8)])
def test_example31_matrix_equals_meets_reference(g):
    sch = bundled_example("example31")
    assert hitting_matrix(sch, g, 8) == reference_matrix(sch, g, 8)


class TestPointImages:
    def constant(self, value):
        return Schedule.constant(make_plmap(Interval(0, 1), [(Interval(0, 1), 0, value)]))

    def test_point_on_a_cell_boundary_meets_no_cell(self):
        _, masks = hitting_matrix(self.constant(F(1, 4)), F(1, 4), 3)
        assert masks == ((0,) * 4,) * 4

    def test_point_on_the_domain_end_meets_no_cell(self):
        _, masks = hitting_matrix(self.constant(1), F(1, 4), 3)
        assert masks == ((0,) * 4,) * 4

    def test_point_inside_a_cell_meets_only_that_cell(self):
        _, masks = hitting_matrix(self.constant(F(5, 8)), F(1, 4), 3)
        assert masks == ((0, 0, 0b111, 0),) * 4


def test_matrix_is_immutable_and_exposes_the_open_cells():
    tent = bundled_example("tent")
    cells, masks = hitting_matrix(tent, "1/4", 4)
    assert cells == open_grid(tent.domain, F(1, 4))
    assert isinstance(masks, tuple) and all(isinstance(row, tuple) for row in masks)


@pytest.mark.parametrize(
    "name, g", [("tent", F(1, 8)), ("example31", F(1, 8)),
                ("tent_doubling_alternating", F(1, 8))],
)
def test_weakmix_listing_equals_brute_force_in_order(name, g):
    sch = bundled_example(name)
    _, masks = reference_matrix(sch, g, 10)
    v = weakmix_verdict(sch, g, 10)
    assert (tuple(v.witnesses), tuple(v.unhit)) == reference_weakmix_listing(masks)


@settings(max_examples=150, deadline=None)
@given(grid_systems())
def test_weakmix_by_class_expands_to_the_brute_force_listing(system):
    sch, g, horizon = system
    _, masks = reference_matrix(sch, g, horizon)
    v = weakmix_verdict(sch, g, horizon)
    witnesses, unhit = reference_weakmix_listing(masks)
    assert (tuple(v.witnesses), tuple(v.unhit)) == (witnesses, unhit)
    assert (len(v.witnesses), len(v.unhit)) == (len(witnesses), len(unhit))
    assert v.witnessed == (not unhit)
    # one run per stretch of one class, over the k^2 cell pairs, and one class per mask
    runs = list(v.listing.spans())
    assert runs[0][0] == 0 and runs[-1][1] == len(masks) ** 2 - 1
    assert all(a[1] + 1 == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert len(v.listing.table) == len({m for row in masks for m in row})
    assert all(row in v.unhit for row in unhit[:3])
    assert all(row in v.witnesses for row in witnesses[:3])


@settings(max_examples=150, deadline=None)
@given(grid_systems())
@example((bundled_example("tent"), F(1), 3))  # one cell: as many cells as cell pairs
def test_cell_listings_equal_the_brute_force_listings(system):
    sch, g, horizon = system
    _, masks = reference_matrix(sch, g, horizon)
    for v, (witnesses, unhit) in [
        (transitivity_verdict(sch, g, horizon), reference_transitivity_listing(masks)),
        (mixing_verdict(sch, g, horizon), reference_mixing_listing(masks, horizon)),
    ]:
        assert (tuple(v.witnesses), tuple(v.unhit)) == (witnesses, unhit)
        assert (len(v.witnesses), len(v.unhit)) == (len(witnesses), len(unhit))
        assert v.kind == (INCONCLUSIVE if unhit else WITNESSED_UP_TO)
        # each row's runs tile it, and neighbouring runs score differently
        runs = list(v.listing.spans())
        assert [u for u, first, *_ in runs if first == 0] == list(range(len(masks)))
        assert all(a[2] + 1 == b[1] and a[3] != b[3] for a, b in zip(runs, runs[1:])
                   if a[0] == b[0])
        assert all(a[2] == len(masks) - 1 for a, b in zip(runs, runs[1:]) if a[0] != b[0])
        tail = None if unhit or v.property_name != "mixing" else max(n for _, n in witnesses)
        assert v.tail == tail


def test_weakmix_at_256_cells_is_decided_without_its_listing():
    v = weakmix_verdict(bundled_example("tent"), F(1, 256), 24)
    assert v.kind == WITNESSED_UP_TO
    assert len(v.witnesses) == 256**4 and not v.unhit


class TestCellCap:
    """hitting_matrix charges its k*k masks against the part budget before any cell is
    built; the verdicts charge the k cells, then the runs of the rows they read."""

    def test_1024_cells_fit_the_default_budget_and_1025_do_not(self):
        tent = bundled_example("tent")
        cells, masks = hitting_matrix(tent, F(1, 1024), 1)
        assert len(cells) == len(masks) == 1024
        with pytest.raises(BudgetExceeded) as exc:
            hitting_matrix(tent, F(1, 1025), 1)
        assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (0, 1025**2, 1 << 20)

    def test_a_larger_budget_allows_more_cells(self):
        _, masks = hitting_matrix(bundled_example("tent"), F(1, 1025), 1,
                                  PropagationBudget(1025**2))
        assert len(masks) == 1025

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_a_smaller_budget_bounds_the_sets_not_the_grid(self, verdict, monkeypatch):
        # 1/64 gives 64 cells and some hundred runs, past a budget of 8 parts but within
        # the default's
        assert verdict(bundled_example("tent"), F(1, 64), 2, PropagationBudget(8)).horizon == 2

        def unreached(*args, **kwargs):
            raise AssertionError("a cell was stepped")

        monkeypatch.setattr("nadyn.plmaps.affine_batch", unreached)
        with pytest.raises(BudgetExceeded) as exc:
            verdict(bundled_example("tent"), F(1, 2**20 + 1), 1, PropagationBudget(64))
        assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (0, 2**20 + 1, 1 << 20)
        assert str(exc.value) == ('grid width "1/1048577" gives k = "1048577" cells, '
                                  'which exceed 1048576 parts')

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_a_verdict_finer_than_1024_cells_fits(self, verdict):
        tent = bundled_example("tent")
        # 11 steps stretch each of the 2048 cells over the domain, 10 do not
        for horizon, kind in [(10, INCONCLUSIVE), (12, WITNESSED_UP_TO)]:
            v = verdict(tent, F(1, 2048), horizon)
            assert v.kind == kind and v.listing.k == 2048
            assert len(v.witnesses) + len(v.unhit) == 2048 ** (4 if v.listing.pairs else 2)

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_a_verdict_is_refused_past_the_budget_at_its_runs(self, verdict, monkeypatch):
        # with the floor at 64 parts, tent's 32 cells fit and the runs of their rows at 8
        # steps do not; the refusal names the horizon, after which the runs are counted
        tent = bundled_example("tent")
        _, masks = reference_matrix(tent, F(1, 32), 8)
        runs = sum(1 + sum(a != b for a, b in zip(row, row[1:])) for row in masks)
        assert runs > 64
        monkeypatch.setattr("nadyn.topology.DEFAULT_BUDGET", PropagationBudget(64))
        _hitting_matrix.cache_clear()
        with pytest.raises(BudgetExceeded) as exc:
            verdict(tent, F(1, 32), 8, PropagationBudget(64))
        assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (8, runs, 64)
        assert str(exc.value) == (f'grid width "1/32" gives k = "32" cells, '
                                  f'whose {runs} runs exceed 64 parts')

    def test_a_sensitivity_walk_past_the_budget_is_refused_before_any_cell(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("a cell was stepped")

        monkeypatch.setattr("nadyn.plmaps.affine_batch", unreached)
        with pytest.raises(BudgetExceeded) as exc:
            sensitivity_certificate(bundled_example("tent"), F(1, 8), F(1, 10**7), 1,
                                    PropagationBudget(64))
        assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (0, 10**7, 1 << 20)
        assert str(exc.value) == ('cell width "1/10000000" gives k = "10000000" cells, '
                                  'which exceed 1048576 parts')

    @pytest.mark.parametrize("budget, k", [(DEFAULT_BUDGET, 1 << 20),
                                           (PropagationBudget(1 << 21), 1 << 21)])
    def test_a_sensitivity_walk_within_the_budget_reaches_its_cells(self, monkeypatch, budget, k):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("nadyn.plmaps.affine_batch", reached)
        with pytest.raises(Reached):
            sensitivity_certificate(bundled_example("tent"), F(1, 8), F(1, k), 1, budget)
        with pytest.raises(BudgetExceeded):
            sensitivity_certificate(bundled_example("tent"), F(1, 8), F(1, k + 1), 1, budget)


class TestMemo:
    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_success_under_default_budget_does_not_mask_a_small_budget(self, verdict):
        # 1-map preamble, then a cycle whose first map splits sets at 1/3
        tent = bundled_example("tent").cycle[0]
        split = make_plmap(Interval(0, 1), [(Interval(0, F(1, 3)), F(1, 2), 0),
                                            (Interval(F(1, 3), 1, lo_open=True), 1, 0)])
        sch = Schedule((tent,), (split, tent), Interval(0, 1))
        assert verdict(sch, F(1, 8), 8).horizon == 8
        for _ in range(2):  # a raised error is raised again, never cached
            with pytest.raises(BudgetExceeded) as exc:
                verdict(sch, F(1, 8), 8, PropagationBudget(1))
            assert (exc.value.step, exc.value.parts, exc.value.max_parts) == (2, 2, 1)

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_errors_are_not_cached(self, verdict):
        tent = bundled_example("tent")
        for _ in range(2):
            with pytest.raises(ValueError, match="horizon"):
                verdict(tent, F(1, 4), 0)
            with pytest.raises(GridMismatch):
                verdict(tent, F(3, 7), 4)

    def test_equal_schedules_built_separately_give_equal_verdicts(self):
        def build():
            return Schedule.cycling([
                make_plmap(Interval(0, 1), [(Interval(0, F(1, 2)), 2, 0),
                                            (Interval(F(1, 2), 1, lo_open=True), -2, 2)]),
                make_plmap(Interval(0, 1), [(Interval(0, F(1, 2), hi_open=True), 2, 0),
                                            (Interval(F(1, 2), 1), 2, -1)]),
            ])

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        for verdict in VERDICTS:
            assert verdict(a, F(1, 8), 9) == verdict(b, F(1, 8), 9)
        before = _hitting_matrix.cache_info()
        matrix = hitting_matrix(b, F(1, 8), 9)
        after = _hitting_matrix.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)  # a's entry
        assert matrix == reference_matrix(a, F(1, 8), 9)

    def test_different_schedules_do_not_share_a_matrix(self):
        g, horizon = F(1, 4), 3
        for name in ("tent", "doubling", "tent", "doubling"):
            sch = bundled_example(name)
            assert hitting_matrix(sch, g, horizon) == reference_matrix(sch, g, horizon)
        tent = bundled_example("tent")
        assert hitting_matrix(tent, g, horizon) != hitting_matrix(tent, g, horizon + 1)
