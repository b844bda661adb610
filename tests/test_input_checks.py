"""Every input check of the library and the CLI: its exception type and its message.

One parametrized test per module.  The CLI cases also check exit code 2 and
a diagnostic of one line of strict JSON.
"""

import json
from fractions import Fraction as F

import pytest

from nadyn import (
    EMPTY_SET,
    IndexSet,
    Interval,
    IntervalSet,
    MalformedInterval,
    MalformedRational,
    MalformedSystemFile,
    Piece,
    PLMap,
    SampleConfig,
    Schedule,
    as_rational,
    bundled_example,
    cesaro_deviation,
    correlation_series,
    density_stats,
    extract_exceptional_set,
    hitting_set,
    intersection_witness,
    invariant_set_certificate,
    make_plmap,
    mc_correlation,
    prefix_image,
    prefix_preimage,
    sensitivity_certificate,
)
from nadyn.cli import main
from nadyn.sysio import parse_mc_system_file, parse_system_file

TENT = bundled_example("tent")
UNIT = Interval(0, 1)
HALF = IntervalSet.parse("[0,1/2]")
IDENTITY = make_plmap(UNIT, [(UNIT, 1, 0)])
WIDE = make_plmap(Interval(0, F(3, 2)), [(Interval(0, F(3, 2)), 1, 0)])
PIECE = {"on": "[0,1]", "slope": "1", "intercept": "0"}


def system(*pieces, **fields):
    return {"domain": "[0,1]", "cycle": [{"pieces": list(pieces)}], **fields}


@pytest.mark.parametrize("doc,loader,detail", [
    (system({"on": "[0,1]", "intercept": "0"}), parse_system_file,
     'cycle[0].pieces[0]: missing field "slope"'),
    (system({"on": "[0,1]", "slope": "1"}), parse_system_file,
     'cycle[0].pieces[0]: missing field "intercept"'),
    ({"domain": "[0,1]", "cycle": [{"pieces": []}]}, parse_system_file,
     'cycle[0]: "pieces" must be a nonempty list'),
    (system("[0,1]"), parse_system_file, "cycle[0].pieces[0]: expected a piece object"),
    (system({"slope": "1", "intercept": "0"}), parse_system_file,
     'cycle[0].pieces[0]: missing interval field "on" (e.g. "[0,1/2]")'),
    (system({**PIECE, "on": "[0;1]"}), parse_system_file,
     'cycle[0].pieces[0].on: cannot parse "[0;1]" as an interval literal'),
    ({**system(PIECE), "domain": "0..1"}, parse_system_file,
     'domain: cannot parse "0..1" as an interval literal'),
    (None, parse_system_file, "file not found"),
    ({"domain": "[0,1]", "cycle": [{"quadratic": [0, 4]}]}, parse_mc_system_file,
     'cycle[0]: "quadratic" must be a list of three numbers [c0, c1, c2]'),
], ids=["no_slope", "no_intercept", "no_pieces", "piece_not_object", "no_on", "bad_on",
        "bad_domain", "missing_path", "quadratic_not_three"])
def test_sysio(tmp_path, doc, loader, detail):
    path = tmp_path / "system.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    with pytest.raises(MalformedSystemFile) as e:
        loader(str(path))
    assert str(e.value) == f"{path}: {detail}"


@pytest.mark.parametrize("argv,detail", [
    (["density", "--members", '[1, "2"]', "--horizon", "3", "--tail-start", "1"],
     "expected a JSON list of integers"),
    (["kvn", "--system", "tent", "--A", "[0,1/2]", "--N", "3"],
     "kvn with --system needs --A, --B and --N"),
    (["kvn"], "kvn needs either --values or --system/--A/--B/--N"),
], ids=["members_item", "kvn_system_without_series", "kvn_neither_mode"])
def test_cli(capsys, argv, detail):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err, parse_constant=lambda token: pytest.fail(token))
    assert err == {"command": argv[0], "error": "malformed_input", "detail": detail}


SERIES = correlation_series(TENT, HALF, HALF, 2)


@pytest.mark.parametrize("call,detail", [
    (lambda: extract_exceptional_set([]), "need at least one value"),
    (lambda: extract_exceptional_set([F(1), F(-1)]), "values must be nonnegative"),
    (lambda: extract_exceptional_set([F(1)], ()), "need at least one threshold"),
    (lambda: extract_exceptional_set([F(1)], (F(1), F(0))), "thresholds must be positive"),
    (lambda: extract_exceptional_set([F(1)], (F(1, 2), F(1, 2))),
     "thresholds must be strictly decreasing"),
    (lambda: correlation_series(TENT, HALF, HALF, 0), "n must be >= 1"),
    (lambda: cesaro_deviation(SERIES, 0), "n must be >= 1"),
    (lambda: density_stats(IndexSet(4, (1,)), 0), "need 1 <= tail_start <= horizon"),
    (lambda: density_stats(IndexSet(4, (1,)), 5), "need 1 <= tail_start <= horizon"),
    (lambda: intersection_witness(IndexSet(4, ()), IndexSet(5, ()), 1),
     "index sets must share a horizon"),
    (lambda: intersection_witness(IndexSet(4, ()), IndexSet(4, ()), 4),
     "cutoff must be below the horizon"),
], ids=["no_values", "negative_value", "no_thresholds", "zero_threshold",
        "equal_thresholds", "series_n", "cesaro_n", "tail_start_0", "tail_start_past",
        "horizons", "cutoff"])
def test_mixing(call, detail):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == detail


@pytest.mark.parametrize("call,error,detail", [
    (lambda: Piece((0, 1), 1, 0), MalformedInterval,
     "piece interval must be an Interval, got (0, 1)"),
    (lambda: PLMap(Interval(0, 1, lo_open=True), (Piece(UNIT, 1, 0),)), MalformedInterval,
     "domain must be a closed nondegenerate interval, got (0,1]"),
    (lambda: Schedule((), (), UNIT), MalformedInterval, "schedule cycle must be nonempty"),
    (lambda: Schedule((), (IDENTITY, WIDE), UNIT), MalformedInterval,
     "all maps must share the domain [0,1], got [0,3/2]"),
    (lambda: TENT.shift(-1), ValueError, "map index must be nonnegative"),
    (lambda: prefix_image(TENT, HALF, -1), ValueError, "n must be >= 0"),
    (lambda: prefix_preimage(TENT, HALF, -1), ValueError, "n must be >= 0"),
], ids=["piece_interval", "open_domain", "empty_cycle", "mixed_domains", "negative_shift",
        "image_n", "preimage_n"])
def test_plmaps(call, error, detail):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == detail


@pytest.mark.parametrize("call,detail", [
    (lambda: sensitivity_certificate(TENT, 0, F(1, 4), 2), "delta must be positive"),
    (lambda: sensitivity_certificate(TENT, F(-1, 8), F(1, 4), 2), "delta must be positive"),
    (lambda: hitting_set(TENT, EMPTY_SET, HALF, 2), "U and V must be nonempty"),
    (lambda: hitting_set(TENT, HALF, EMPTY_SET, 2), "U and V must be nonempty"),
    (lambda: invariant_set_certificate(TENT, EMPTY_SET, HALF, HALF),
     "U, V, W must be nonempty"),
    (lambda: invariant_set_certificate(TENT, HALF, EMPTY_SET, HALF),
     "U, V, W must be nonempty"),
    (lambda: invariant_set_certificate(TENT, HALF, HALF, EMPTY_SET),
     "U, V, W must be nonempty"),
], ids=["delta_zero", "delta_negative", "hitting_u", "hitting_v", "certificate_u",
        "certificate_v", "certificate_w"])
def test_topology(call, detail):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == detail


@pytest.mark.parametrize("call,error,detail", [
    (lambda: as_rational(True), MalformedRational, "cannot use True as a rational"),
    (lambda: as_rational(1j), MalformedRational, "cannot use 1j as a rational"),
    (lambda: IntervalSet([(0, 1)]), MalformedInterval, "expected an Interval, got (0, 1)"),
], ids=["bool", "unknown_type", "part_not_interval"])
def test_intervals(call, error, detail):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == detail


@pytest.mark.parametrize("call,detail", [
    (lambda: mc_correlation(TENT, HALF, HALF, -1, SampleConfig(10)), "n must be >= 0"),
], ids=["correlation_n"])
def test_montecarlo(call, detail):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == detail
