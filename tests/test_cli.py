import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nadyn import (
    DEFAULT_BUDGET,
    GridMismatch,
    HorizonExceeded,
    MalformedInput,
    MalformedSystemFile,
    OutOfDomain,
    ScaleMismatch,
    UnknownExample,
    bundled_example,
    cesaro_deviation,
    correlation_series,
    format_rational,
    mixing_verdict,
    open_grid,
    parse_system_file,
    transitivity_verdict,
    weakmix_verdict,
    write_system_file,
)
from nadyn import cli, topology
from nadyn.cli import main
from randgen import interval_sets_in, schedules

GRID_VERDICTS = {"transitivity": transitivity_verdict, "mixing": mixing_verdict,
                 "weakmix": weakmix_verdict}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, doc, err


def witness_rows(w: dict) -> list[dict]:
    """A report's class-form ``witnesses`` as the row dicts of the listing it stands for."""
    pairs = w["items"] == "cell_pairs"
    items = [[u, v] for u in w["cells"] for v in w["cells"]] if pairs else w["cells"]
    first, second = ("pair1", "pair2") if pairs else ("U", "V")
    return [{first: items[i], second: items[j], w["score"]: n}
            for i, ci in enumerate(w["classes"]) for j, cj in enumerate(w["classes"])
            if (n := w["table"][ci][cj])]


LONG_POINT = "2" + "0" * 299  # 300 digits, past the end of every bundled domain
LONG_SET = f"[{LONG_POINT},3{'0' * 299}]"
LONG_GRID = "3/1" + "0" * 300  # 3/10^300 does not divide a domain of length 1


def echoes_a_run(text: str, arg: str, run: int = 61) -> bool:
    """True iff text holds some ``run`` consecutive characters of arg."""
    return any(arg[i:i + run] in text for i in range(len(arg) - run + 1))


class TestSystemFiles:
    @pytest.mark.parametrize(
        "name", ["tent", "doubling", "example31", "tent_doubling_alternating"]
    )
    def test_round_trip_bundled(self, tmp_path, name):
        sch = bundled_example(name)
        path = tmp_path / f"{name}.json"
        write_system_file(str(path), sch)
        assert parse_system_file(str(path)) == sch

    def test_round_trip_random_schedules(self, tmp_path):
        import random

        from randgen import rand_schedule

        rng = random.Random(77)
        for i in range(50):
            sch = rand_schedule(rng)
            path = tmp_path / f"sys{i}.json"
            write_system_file(str(path), sch)
            assert parse_system_file(str(path)) == sch

    def test_gap_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        path.write_text(
            json.dumps(
                {
                    "domain": "[0,1]",
                    "cycle": [
                        {"pieces": [
                            {"on": "[0,1/4]", "slope": "1", "intercept": "0"},
                            {"on": "(1/2,1]", "slope": "1", "intercept": "0"},
                        ]}
                    ],
                }
            )
        )
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2
        assert "gap" in err["detail"]
        assert "cycle[0]" in err["detail"]

    def test_float_literal_demands_exact_form(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text(
            json.dumps(
                {
                    "domain": "[0,1]",
                    "cycle": [{"pieces": [{"on": "[0,1]", "slope": 0.5, "intercept": "0"}]}],
                }
            )
        )
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2
        assert '"1/2"' in err["detail"]

    def test_float_string_also_rejected(self, tmp_path, capsys):
        path = tmp_path / "floatstr.json"
        path.write_text(
            json.dumps(
                {
                    "domain": "[0,1]",
                    "cycle": [{"pieces": [{"on": "[0,1]", "slope": "0.5", "intercept": "0"}]}],
                }
            )
        )
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2 and '"1/2"' in err["detail"]


class TestCommands:
    def test_eval_three_branch(self, capsys):
        code, doc, _ = run_cli(capsys, "eval", "--system", "example31", "--x", "5/4")
        assert code == 0
        assert doc["result"]["value"] == "1/2"
        assert doc["index_base"] == {"hitting": 1, "correlation": 0}
        assert doc["budget"]["max_parts"] == 1 << 20

    def test_image_and_preimage(self, capsys):
        code, doc, _ = run_cli(
            capsys, "image", "--system", "tent", "--set", "(0,1/4)", "--n", "2"
        )
        assert code == 0 and doc["result"]["image"] == ["(0,1)"]
        code, doc, _ = run_cli(
            capsys, "preimage", "--system", "tent", "--set", "[0,1/2]", "--n", "2"
        )
        assert code == 0
        assert doc["result"]["preimage"] == ["[0,1/8]", "[3/8,5/8]", "[7/8,1]"]

    def test_zero_step_preimage_is_the_part_in_the_domain(self, capsys):
        code, doc, _ = run_cli(
            capsys, "preimage", "--system", "tent", "--set", "[1/2,3]", "--n", "0"
        )
        assert code == 0 and doc["parameters"]["set"] == ["[1/2,3]"]
        assert doc["result"] == {"preimage": ["[1/2,1]"], "measure": "1/2"}

    def test_integer_endpoint_interval_is_a_set_not_a_list(self, capsys):
        # "[0,1]" also parses as a JSON list of two numbers
        code, doc, _ = run_cli(
            capsys, "image", "--system", "tent", "--set", "[0,1]", "--n", "1"
        )
        assert code == 0 and doc["parameters"]["set"] == ["[0,1]"]
        assert doc["result"]["image"] == ["[0,1]"]
        code, doc, _ = run_cli(
            capsys, "correlate", "--system", "example31", "--A", "[0,1]",
            "--B", "[0,3/2]", "--N", "2",
        )
        assert code == 0 and doc["result"]["mu_A"] == "2/3"

    def test_json_list_set_argument(self, capsys):
        code, doc, _ = run_cli(
            capsys, "image", "--system", "tent", "--set", '["[0,1/8]","(3/4,1]"]',
            "--n", "1",
        )
        assert code == 0 and doc["parameters"]["set"] == ["[0,1/8]", "(3/4,1]"]

    def test_correlate_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, doc, _ = run_cli(
            capsys, "correlate", "--system", "tent", "--A", "[0,1/2]",
            "--B", "[0,1/2]", "--N", "8", "--csv", str(csv_path),
        )
        assert code == 0
        assert doc["result"]["values"] == ["1/2"] + ["1/4"] * 7
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "i,c_i,deviation_i"
        assert rows[1] == "0,1/2,1/4" and rows[2] == "1,1/4,0"

    def test_cesaro(self, capsys):
        code, doc, _ = run_cli(
            capsys, "cesaro", "--system", "tent", "--A", "[0,1/2]",
            "--B", "[0,1/2]", "--N", "8",
        )
        assert code == 0 and doc["result"]["cesaro_deviation"] == "1/32"

    @settings(max_examples=25, deadline=None)
    @given(schedules(), interval_sets_in(max_parts=2), interval_sets_in(max_parts=2),
           st.integers(1, 6))
    def test_cesaro_prefix_averages_are_the_cesaro_deviations(self, sch, a, b, n):
        args = cli._build_parser("cesaro").parse_args(
            ["--system", "-", "--A", json.dumps(a.to_json()), "--B", json.dumps(b.to_json()),
             "--N", "6", "--n", str(n)])
        _, result = cli._cmd_cesaro(args, sch, DEFAULT_BUDGET)
        series = correlation_series(sch, a, b, 6)
        assert result["prefix_averages"] == [
            format_rational(cesaro_deviation(series, k)) for k in range(1, 7)]
        assert result["cesaro_deviation"] == result["prefix_averages"][n - 1]

    def test_density(self, capsys):
        members = json.dumps([i * i for i in range(32)])
        code, doc, _ = run_cli(
            capsys, "density", "--members", members, "--horizon", "1000",
            "--tail-start", "1000",
        )
        assert code == 0
        assert doc["result"]["upper"] == doc["result"]["lower"] == "4/125"

    def test_kvn_values_not_extractable(self, capsys):
        # evens keep the level-2 counting ratio at 1/2 forever
        values = json.dumps(["1" if i % 2 == 0 else "0" for i in range(500)])
        code, doc, _ = run_cli(capsys, "kvn", "--values", values,
                               "--thresholds", '["1/2","1/4"]')
        assert code == 0
        assert doc["result"]["kind"] == "NOT_EXTRACTABLE"
        assert doc["result"]["threshold_index"] == 1

    def test_kvn_values_extractable(self, capsys):
        values = json.dumps(["1" if i % 7 == 0 else "0" for i in range(500)])
        code, doc, _ = run_cli(capsys, "kvn", "--values", values,
                               "--thresholds", '["1/2"]')
        assert code == 0
        assert doc["result"]["kind"] == "EXTRACTED"
        assert doc["result"]["exceptional_set"] == list(range(0, 500, 7))

    def test_kvn_from_series(self, capsys):
        code, doc, _ = run_cli(
            capsys, "kvn", "--system", "tent", "--A", "[0,1/2]", "--B", "[0,1/2]",
            "--N", "12",
        )
        assert code == 0
        assert doc["result"]["kind"] == "EXTRACTED"
        assert doc["result"]["exceptional_set"] == []
        assert doc["result"]["tail_max"] == "0"

    def test_hitting(self, capsys):
        code, doc, _ = run_cli(
            capsys, "hitting", "--system", "tent", "--U", "(0,1/4)",
            "--V", "(3/4,1)", "--H", "5",
        )
        assert code == 0 and doc["result"]["hitting_times"] == [2, 3, 4, 5]

    def test_inconclusive_still_exits_zero(self, capsys):
        code, doc, _ = run_cli(
            capsys, "transitivity", "--system", "example31", "--grid", "1/4",
            "--H", "10",
        )
        assert code == 0
        assert doc["result"]["kind"] == "INCONCLUSIVE"
        assert {"U": "(0,1/4)", "V": "(5/4,3/2)"} in doc["result"]["unhit"]

    def test_weakmix_and_mixing(self, capsys):
        code, doc, _ = run_cli(
            capsys, "weakmix", "--system", "tent", "--grid", "1/4", "--H", "10"
        )
        assert code == 0 and doc["result"]["kind"] == "WITNESSED_UP_TO"
        code, doc, _ = run_cli(
            capsys, "mixing", "--system", "tent", "--grid", "1/4", "--H", "10"
        )
        assert code == 0 and doc["result"]["tail"] >= 1

    def test_sensitivity(self, capsys):
        code, doc, _ = run_cli(
            capsys, "sensitivity", "--system", "tent", "--delta", "1/8",
            "--scale", "1/16", "--H", "8",
        )
        assert code == 0 and doc["result"]["passed"] is True

    def test_mc_correlation(self, capsys):
        code, doc, _ = run_cli(
            capsys, "mc", "--system", "tent", "--A", "[0,1/2]", "--B", "[0,1/2]",
            "--n", "1", "--samples", "20000", "--seed", "5",
        )
        assert code == 0
        e, s = doc["result"]["estimate"], doc["result"]["stderr"]
        assert abs(e - 0.25) <= 4 * s
        assert doc["result"]["estimate_only"] is False

    def test_mc_quadratic_estimate_only(self, tmp_path, capsys):
        path = tmp_path / "logistic.json"
        path.write_text(
            json.dumps({"domain": "[0,1]", "cycle": [{"quadratic": [0, 4, -4]}]})
        )
        code, doc, _ = run_cli(
            capsys, "mc", "--system", str(path), "--A", "[0,1/2]", "--B", "[0,1/2]",
            "--n", "2", "--samples", "5000", "--seed", "1",
        )
        assert code == 0 and doc["result"]["estimate_only"] is True

    def test_exact_commands_reject_quadratic(self, tmp_path, capsys):
        path = tmp_path / "logistic.json"
        path.write_text(
            json.dumps({"domain": "[0,1]", "cycle": [{"quadratic": [0, 4, -4]}]})
        )
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2 and "mc" in err["detail"]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["entropy"]) == 4

    @pytest.mark.parametrize("command", ["correlate", "cesaro", "kvn"])
    def test_a_series_length_below_1_is_named_N(self, capsys, command):
        # the library calls it n, which is also the name of cesaro's other flag
        code, doc, err = run_cli(capsys, command, "--system", "tent", "--A", "[0,1/2]",
                                 "--B", "[0,1/2]", "--N", "0")
        assert code == 2 and doc is None
        assert (err["error"], err["detail"]) == ("malformed_input", "N must be >= 1")

    def test_unknown_command_is_a_json_diagnostic(self, capsys):
        code = main(["bogus", "--x", "0"])
        captured = capsys.readouterr()
        assert code == 4 and not captured.out
        err = strict_json(captured.err)
        assert err["command"] == "bogus" and err["error"] == "unknown_command"
        assert err["detail"].startswith('unknown command "bogus"; choose from [\'eval\'')

    @pytest.mark.parametrize("argv,code,bound", [
        (["z" * 200, "--x", "0"], 4, 400),
        (["verify", "z" * 200], 4, 250),
        (["eval", "--system", "tent", "--x", "0", "z" * 200], 2, 200),
        (["mc", "--system", "tent", "--x", "z" * 200, "--epsilon", "0.1", "--n", "1"], 2, 200),
        (["mc", "--system", "tent", "--x", "0.3", "--epsilon", "z" * 200, "--n", "1"], 2, 200),
    ])
    def test_an_echoed_name_is_cut_after_60_characters(self, capsys, argv, code, bound):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert not captured.out and len(captured.err) < bound
        assert "z" * 61 not in captured.err and "(200 characters)" in captured.err

    @pytest.mark.parametrize("argv,detail", [
        (["hitting", "--system", "tent", "--U", "(0,1/4)", "--V", "(3/4,1)"],
         "the following arguments are required: --H"),
        (["hitting", "--system", "tent", "--U", "(0,1/4)", "--V", "(3/4,1)", "--H", "x"],
         'argument --H: invalid int value: "x"'),
        (["eval", "--system", "tent", "--x", "0", "--n", "y" * 200],
         'argument --n: invalid int value: "%s…" (200 characters)' % ("y" * 60)),
        (["eval", "--system", "tent", "--x", "0", "--y", "1"],
         'unrecognized arguments: "--y 1"'),
        (["verify"], "the following arguments are required: name"),
        # an option of the other mc mode is an error, not dropped
        (["mc", "--system", "tent", "--epsilon", "0.1", "--A", "[0,1]", "--B", "[0,1]",
          "--n", "1"], "separation mode needs --x and --epsilon, and no --A or --B"),
        (["mc", "--system", "tent", "--x", "0.3", "--epsilon", "0.1", "--B", "[0,1]",
          "--n", "1"], "separation mode needs --x and --epsilon, and no --A or --B"),
        (["mc", "--system", "tent", "--epsilon", "0.1", "--n", "1"],
         "separation mode needs --x and --epsilon, and no --A or --B"),
        # a JSON list of exact values reads each item as a system file reads a slope
        (["kvn", "--values", "[0.5]"], 'float literal 0.5 not accepted; write "1/2"'),
        (["kvn", "--values", "[true]"],
         'expected an integer or a rational string "p/q", got JSON "true"'),
        (["kvn", "--values", '["1/2",null]'],
         'expected an integer or a rational string "p/q", got JSON "null"'),
        # an empty --thresholds is a malformed list, not the default ladder
        (["kvn", "--values", "[1]", "--thresholds", ""],
         "expected a JSON list: Expecting value: line 1 column 1 (char 0)"),
        (["kvn", "--values", "[1]", "--thresholds", "[]"], "need at least one threshold"),
        (["kvn", "--values", "[1]", "--thresholds", "[[%s]]" % ",".join(["1"] * 40)],
         'expected an integer or a rational string "p/q", got JSON "[%s…" (81 characters)'
         % ",".join(["1"] * 30)[:59]),
    ])
    def test_usage_error_is_a_json_diagnostic(self, capsys, argv, detail):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err) == {
            "command": argv[0], "error": "malformed_input", "detail": detail,
        }

    @pytest.mark.parametrize("argv", [
        ["eval", "--system", "tent", "--x", "1/3", "--n", "-1"],
        ["mc", "--system", "tent", "--x", "0.3", "--epsilon", "0.1", "--n", "-1",
         "--samples", "10"],
    ])
    def test_negative_step_count(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err) == {
            "command": argv[0], "error": "malformed_input", "detail": "n must be >= 0",
        }

    def test_nan_epsilon_rejected(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--system", "tent", "--x", "0.3",
                               "--epsilon", "nan", "--n", "3", "--samples", "10")
        assert code == 2 and err["detail"] == "epsilon must be positive"

    def test_unknown_example(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--system", "lorenz", "--x", "0")
        assert code == 4 and err["error"] == "unknown_example"
        assert err["detail"].startswith('unknown system "lorenz": not a bundled example')
        code, _, err = run_cli(capsys, "eval", "--system", "x" * 200, "--x", "0")
        assert code == 4
        assert err["detail"].startswith('unknown system "%s…" (200 characters):' % ("x" * 60))

    @pytest.mark.parametrize("x,value", [("-1/2", "1/2"), ("-1", "1")])
    def test_a_negative_rational_is_an_option_value(self, tmp_path, capsys, x, value):
        # argparse alone reads "-1/2" as an unknown option and leaves --x without its value
        path = tmp_path / "flip.json"
        path.write_text(json.dumps({"domain": "[-1,1]", "cycle": [
            {"pieces": [{"on": "[-1,1]", "slope": "-1", "intercept": "0"}]}]}))
        code, spaced, _ = run_cli(capsys, "eval", "--system", str(path), "--x", x, "--n", "1")
        assert code == 0 and spaced["result"] == {"value": value}
        assert run_cli(capsys, "eval", "--system", str(path), f"--x={x}", "--n", "1")[1] == spaced

    def test_kvn_loads_a_given_system_even_with_values(self, tmp_path, capsys):
        values = ["kvn", "--values", '["1","0"]']
        code, _, err = run_cli(capsys, *values, "--system", "lorenz")
        assert code == 4 and err["error"] == "unknown_example"
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(capsys, *values, "--system", str(missing))
        assert code == 2 and str(missing) in err["detail"]

    def test_unknown_verify_scenario(self, capsys):
        code, _, err = run_cli(capsys, "verify", "henon")
        assert code == 4
        assert all(name in err["detail"] for name in cli.SCENARIOS)

    @pytest.mark.parametrize("argv,detail", [
        (["eval", "--system", "tent", "--x", "2"], 'x = "2" is not in the domain [0,1]'),
        (["transitivity", "--system", "tent", "--grid", "2/5", "--H", "4"],
         'grid width "2/5" does not divide the domain length 1'),
        (["sensitivity", "--system", "tent", "--delta", "1/8", "--scale", "2/5", "--H", "4"],
         'cell width "2/5" does not divide the domain length 1'),
        (["cesaro", "--system", "tent", "--A", "[0,1/2]", "--B", "[0,1/2]",
          "--N", "4", "--n", "5"], 'n = "5" exceeds the series horizon 4'),
        # zero steps keep the domain rule of one step
        (["eval", "--system", "tent", "--x", "5", "--n", "0"],
         'x = "5" is not in the domain [0,1]'),
        (["image", "--system", "tent", "--set", "[2,3]", "--n", "0"],
         'set "[2,3]" is not in the domain [0,1]'),
        (["image", "--system", "tent", "--set", "[2,3]", "--n", "1"],
         'set "[2,3]" is not in the domain [0,1]'),
        # the estimator keeps the exact engine's rule for A and B
        (["correlate", "--system", "tent", "--A", "[1/2,3]", "--B", "[0,1]", "--N", "1"],
         'A = "[1/2,3]" is not in the domain [0,1]'),
        (["mc", "--system", "tent", "--A", "[1/2,3]", "--B", "[0,1]", "--n", "1",
          "--samples", "1000"], 'A = "[1/2,3]" is not in the domain [0,1]'),
        (["mc", "--system", "tent", "--A", "[0,1]", "--B", "(1,2]", "--n", "1",
          "--samples", "1000"], 'B = "(1,2]" is not in the domain [0,1]'),
        # every set a request names is checked, also one that is never walked
        (["hitting", "--system", "tent", "--U", "[0,1/2]", "--V", "[2,3]", "--H", "3"],
         'V = "[2,3]" is not in the domain [0,1]'),
        # the estimator's point goes through the same rule as eval's
        (["mc", "--system", "tent", "--x", "5", "--epsilon", "0.1", "--n", "1",
          "--samples", "10"], 'x = "5.0" is not in the domain [0,1]'),
        (["mc", "--system", "tent", "--x", "nan", "--epsilon", "0.1", "--n", "1",
          "--samples", "10"], 'x = "nan" is not in the domain [0,1]'),
    ])
    def test_requests_that_do_not_fit_the_system_exit_2(self, capsys, argv, detail):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err) == {
            "command": argv[0], "error": "malformed_input", "detail": detail,
        }

    @pytest.mark.parametrize("argv", [
        ["eval", "--system", "tent", "--x", LONG_POINT],
        ["image", "--system", "tent", "--set", LONG_SET, "--n", "1"],
        ["hitting", "--system", "tent", "--U", LONG_SET, "--V", "[0,1]", "--H", "3"],
        ["hitting", "--system", "tent", "--U", "[0,1]", "--V", LONG_SET, "--H", "3"],
        ["correlate", "--system", "tent", "--A", LONG_SET, "--B", "[0,1]", "--N", "1"],
        ["mc", "--system", "tent", "--A", LONG_SET, "--B", "[0,1]", "--n", "1",
         "--samples", "10"],
        ["transitivity", "--system", "tent", "--grid", LONG_GRID, "--H", "3"],
        ["mixing", "--system", "tent", "--grid", LONG_POINT, "--H", "3"],
        ["sensitivity", "--system", "tent", "--delta", "1/8", "--scale", LONG_GRID, "--H", "3"],
        ["cesaro", "--system", "tent", "--A", "[0,1/2]", "--B", "[0,1/2]", "--N", "4",
         "--n", "9" * 1000],
    ], ids=["eval", "image", "hitting_U", "hitting_V", "correlate", "mc", "transitivity",
            "mixing", "sensitivity", "cesaro"])
    def test_a_long_argument_that_does_not_fit_is_cut_after_60_characters(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out and len(captured.err.encode()) < 250
        strict_json(captured.err)
        long = max(argv, key=len)
        assert not echoes_a_run(captured.err, long), captured.err

    @pytest.mark.parametrize("cls", [OutOfDomain, GridMismatch, ScaleMismatch, HorizonExceeded])
    def test_exit_2_is_one_exception_family(self, cls):
        assert issubclass(cls, MalformedInput)

    def test_budget_exceeded_exit_3_and_silence(self, capsys, monkeypatch):
        monkeypatch.setenv("NADYN_BUDGET", "64")
        code, doc, err = run_cli(
            capsys, "correlate", "--system", "tent_doubling_alternating",
            "--A", "[0,1/2]", "--B", "[0,1/2]", "--N", "25",
        )
        assert code == 3
        assert doc is None  # nothing truncated reaches stdout
        assert err["error"] == "budget_exceeded" and err["parts"] > 64

    def test_a_grid_past_the_budget_is_refused_before_any_cell(self, capsys, monkeypatch):
        # 10^5 cells: the 10^10 masks exceed the default 2^20 parts
        def no_cells(*args):
            raise AssertionError("cells built")
        monkeypatch.setattr(topology, "_cells", no_cells)
        code, doc, err = run_cli(capsys, "transitivity", "--system", "tent",
                                 "--grid", "1/100000", "--H", "1")
        assert code == 3 and doc is None
        assert (err["error"], err["step"], err["parts"], err["max_parts"]) == (
            "budget_exceeded", 0, 10**10, 1 << 20)
        assert err["detail"] == ('grid width "1/100000" gives k = "100000" cells, '
                                 'whose k*k masks exceed 1048576 parts')

    def test_a_weakmix_report_past_the_budget_is_refused_before_any_row(self, capsys,
                                                                        monkeypatch):
        # 64 cells: the 64^2 masks fit the default 2^20 parts, the 9,203,712 unhit
        # report rows do not
        def no_rows(*args):
            raise AssertionError("report rows built")
        monkeypatch.setattr(topology.PairPairs, "templates", no_rows)
        code, doc, err = run_cli(capsys, "weakmix", "--system", "example31",
                                 "--grid", "3/128", "--H", "8")
        assert code == 3 and doc is None
        assert (err["error"], err["step"], err["parts"], err["max_parts"]) == (
            "budget_exceeded", 0, 9_203_712, 1 << 20)
        assert err["detail"] == ('grid width "3/128" gives k = "64" cells, '
                                 'whose 9203712 unhit report rows exceed 1048576 parts')

    def test_a_weakmix_report_is_charged_its_unhit_rows_not_k_to_the_4(self, capsys):
        # 64 cells: 64^4 rows are past 2^20, but none is unhit and the witnesses are
        # a score table
        code, doc, err = run_cli(capsys, "weakmix", "--system", "tent",
                                 "--grid", "1/64", "--H", "8")
        assert code == 0 and err is None
        result = doc["result"]
        assert result["kind"] == "WITNESSED_UP_TO" and result["unhit"] == []
        assert len(result["witnesses"]["classes"]) == 64**2
        assert len(json.dumps(result["witnesses"], separators=(",", ":"))) < 16_000

    def test_a_refusal_past_every_json_integer_is_strict_json(self, capsys, monkeypatch):
        # 10^3000 cells: k*k has 6,001 digits, past json's int limit from Python 3.11 on
        def no_cells(*args):
            raise AssertionError("cells built")
        monkeypatch.setattr(topology, "_cells", no_cells)
        width = "1/1" + "0" * 3000
        code, doc, err = run_cli(capsys, "transitivity", "--system", "tent",
                                 "--grid", width, "--H", "1")
        assert code == 3 and doc is None
        assert (err["error"], err["step"], err["parts"], err["max_parts"]) == (
            "budget_exceeded", 0, None, 1 << 20)
        assert err["detail"].startswith(f'grid width "{width[:60]}…" (3003 characters) gives k')
        assert not echoes_a_run(err["detail"], width)

    def test_a_refusal_names_a_count_past_the_int_text_limit(self, capsys, tmp_path,
                                                            monkeypatch):
        # a 4,001-digit domain and width: k has about 8,000 digits
        def unreached(*args, **kwargs):
            raise AssertionError("a cell was stepped")
        monkeypatch.setattr(topology, "_walk", unreached)
        big = "1" + "0" * 4000
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"domain": f"[0,{big}]", "cycle": [
            {"pieces": [{"on": f"[0,{big}]", "slope": "1", "intercept": "0"}]}]}))
        code, doc, err = run_cli(capsys, "sensitivity", "--system", str(path), "--delta", "1",
                                 "--scale", f"1/{big}", "--H", "1")
        assert code == 3 and doc is None
        assert (err["error"], err["step"], err["parts"]) == ("budget_exceeded", 0, None)
        assert err["detail"].endswith(" cells, which exceed 1048576 parts")
        assert not echoes_a_run(err["detail"], big)

    def test_a_sensitivity_walk_past_the_budget_is_refused_before_any_cell(self, capsys,
                                                                         monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("a cell was stepped")
        monkeypatch.setattr(topology, "_walk", unreached)
        code, doc, err = run_cli(capsys, "sensitivity", "--system", "tent", "--delta", "1/8",
                                 "--scale", "1/10000000", "--H", "1")
        assert code == 3 and doc is None
        assert (err["error"], err["step"], err["parts"], err["max_parts"]) == (
            "budget_exceeded", 0, 10**7, 1 << 20)
        assert err["detail"] == ('cell width "1/10000000" gives k = "10000000" cells, '
                                 'which exceed 1048576 parts')

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NADYN_BUDGET", "64")
        code, doc, _ = run_cli(
            capsys, "preimage", "--system", "tent", "--set", "[0,1/2]", "--n", "12",
            "--budget", "1048576",
        )
        assert code == 0 and doc["budget"]["source"] == "flag"

    @pytest.mark.parametrize("flag,env,detail", [
        (["--budget", "-3"], None, '--budget must be a positive integer, got "-3"'),
        ([], "0", 'NADYN_BUDGET must be a positive integer, got "0"'),
        ([], "z" * 200,
         'NADYN_BUDGET must be a positive integer, got "%s…" (200 characters)' % ("z" * 60)),
    ], ids=["flag", "env", "env_cut"])
    def test_bad_budget_names_its_source(self, capsys, monkeypatch, flag, env, detail):
        monkeypatch.delenv("NADYN_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("NADYN_BUDGET", env)
        code, doc, err = run_cli(capsys, "eval", "--system", "tent", "--x", "0", *flag)
        assert code == 2 and doc is None
        assert err == {"command": "eval", "error": "malformed_input", "detail": detail}

    def test_malformed_set_argument(self, capsys):
        code, _, err = run_cli(
            capsys, "image", "--system", "tent", "--set", "[0,0.5]", "--n", "1"
        )
        assert code == 2 and err["error"] == "malformed_input"

    @pytest.mark.parametrize("text", ["[0,0.5]", "(0,0.5)"])
    def test_decimal_in_set_literal_gets_the_exact_form_hint(self, capsys, text):
        # "[0,0.5]" is also a JSON list of numbers; that must not hide the hint
        code, _, err = run_cli(capsys, "image", "--system", "tent", "--set", text, "--n", "1")
        assert code == 2 and err["error"] == "malformed_input"
        assert err["detail"] == (
            'float literal "0.5" not accepted; write the exact rational "1/2"'
        )
        for good, parsed in [("[0,1]", ["[0,1]"]),
                             ('["[0,1/2]","(3/4,1]"]', ["[0,1/2]", "(3/4,1]"])]:
            code, doc, _ = run_cli(capsys, "image", "--system", "tent", "--set", good, "--n", "1")
            assert code == 0 and doc["parameters"]["set"] == parsed

    @pytest.mark.parametrize("command", ["transitivity", "weakmix", "mixing"])
    def test_verdicts_reject_zero_horizon(self, capsys, command):
        code, doc, err = run_cli(
            capsys, command, "--system", "tent", "--grid", "1/4", "--H", "0"
        )
        assert code == 2 and doc is None
        assert err["error"] == "malformed_input" and "horizon" in err["detail"]

    def test_missing_values_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, doc, err = run_cli(capsys, "kvn", "--values", f"@{missing}")
        assert code == 2 and doc is None
        assert err["error"] == "malformed_input" and str(missing) in err["detail"]

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "report.json"
        code, doc, err = run_cli(
            capsys, "eval", "--system", "tent", "--x", "1/3", "--out", str(out)
        )
        assert code == 2 and doc is None and not out.exists()
        assert err["error"] == "malformed_input" and str(out) in err["detail"]

    def test_unwritable_csv_path(self, tmp_path, capsys):
        csv_path = tmp_path / "no_such_dir" / "series.csv"
        code, doc, err = run_cli(
            capsys, "correlate", "--system", "tent", "--A", "[0,1/2]",
            "--B", "[0,1/2]", "--N", "3", "--csv", str(csv_path),
        )
        assert code == 2 and doc is None
        assert err["error"] == "malformed_input" and str(csv_path) in err["detail"]


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as a strict JSON reader does."""

    def bad(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=bad)


def quadratic_file(tmp_path, coeffs):
    path = tmp_path / "quadratic.json"
    path.write_text(
        '{"domain": "[0,1]", "cycle": [{"quadratic": [%s]}]}' % ", ".join(coeffs)
    )
    return str(path)


BIG = "1" + "0" * 400  # an exact integer past the largest double
DIGITS = "1" + "0" * 5000  # past Python's default 4,300-digit limit on text-to-int conversion
TOO_MANY_DIGITS = f'"{DIGITS[:60]}…" (5001 characters) has more digits than Python converts'


class TestSystemFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--x", "0"],
         ["mc", "--x", "0.3", "--epsilon", "0.01", "--n", "4", "--samples", "10"]],
        ids=["eval", "mc"],
    )
    def test_directory_as_system_file(self, tmp_path, capsys, argv):
        code = main([argv[0], "--system", str(tmp_path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        err = strict_json(captured.err)
        assert err["error"] == "malformed_input" and str(tmp_path) in err["detail"]

    @pytest.mark.parametrize(
        "mode",
        [["--x", "0.3", "--epsilon", "0.01"], ["--A", "[0,1/2]", "--B", "[0,1/2]"]],
        ids=["separation", "correlation"],
    )
    def test_mc_rejects_a_quadratic_map_escaping_the_domain(self, tmp_path, capsys, mode):
        path = quadratic_file(tmp_path, ["0", "5", "-5"])
        code = main(["mc", "--system", path, *mode, "--n", "40", "--samples", "100"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        err = strict_json(captured.err)
        assert err["error"] == "malformed_input" and "outside" in err["detail"]

    @pytest.mark.parametrize(
        "coeffs", [["NaN", "4", "-4"], ["0", "Infinity", "-4"], ["0", "1" * 400, "-4"]],
        ids=["nan", "infinity", "beyond_double"],
    )
    def test_mc_rejects_non_finite_quadratic_coefficients(self, tmp_path, capsys, coeffs):
        code = main(["mc", "--system", quadratic_file(tmp_path, coeffs),
                     "--x", "0.3", "--epsilon", "0.01", "--n", "4", "--samples", "10"])
        captured = capsys.readouterr()
        assert code == 2 and "finite" in strict_json(captured.err)["detail"]

    @pytest.mark.parametrize("domain,pieces,name", [
        ("[0,%s]" % BIG, [{"on": "[0,%s]" % BIG, "slope": "1", "intercept": "0"}],
         "domain end"),
        ("[0,1]", [{"on": "[0,1/%s]" % BIG, "slope": BIG, "intercept": "0"},
                   {"on": "(1/%s,1]" % BIG, "slope": "1", "intercept": "0"}], "slope"),
    ], ids=["domain_end", "slope"])
    def test_mc_rejects_an_exact_number_past_a_double(self, tmp_path, capsys, domain, pieces,
                                                      name):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"domain": domain, "cycle": [{"pieces": pieces}]}))
        sets = ["--A", domain, "--B", domain]
        assert run_cli(capsys, "correlate", "--system", str(path), *sets, "--N", "1")[0] == 0
        code, _, err = run_cli(capsys, "mc", "--system", str(path), *sets, "--n", "1",
                               "--samples", "10")
        assert code == 2 and err["detail"] == '%s "%s…" (401 characters) is not a number ' \
                                              "in the range of a double" % (name, BIG[:60])

    def test_mc_refuses_a_quadratic_map_past_a_double_by_its_point(self, tmp_path, capsys):
        # f(1) = 2e308 is exact, and past the largest double
        path = quadratic_file(tmp_path, ["0", "1e308", "1e308"])
        code, doc, err = run_cli(capsys, "mc", "--system", path, "--A", "[0,1]", "--B", "[0,1]",
                                 "--n", "1", "--samples", "10")
        assert code == 2 and doc is None
        assert err["detail"] == f'{path}: cycle[0]: quadratic map sends "1" outside the domain [0,1]'

    @pytest.mark.parametrize("argv", [
        ["eval", "--system", "tent", "--x", DIGITS],
        ["image", "--system", "tent", "--set", f"[0,{DIGITS}]", "--n", "1"],
        ["kvn", "--values", f'["{DIGITS}"]'],
        ["density", "--members", f"[{DIGITS}]", "--horizon", "3", "--tail-start", "1"],
    ], ids=["eval_x", "set_literal", "kvn_values", "density_members"])
    def test_a_number_past_the_digit_limit_is_our_diagnostic(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err)["detail"].endswith(TOO_MANY_DIGITS)

    @pytest.mark.parametrize("field,domain,slope", [
        ("cycle[0].pieces[0].slope", "[0,1]", DIGITS),
        ("domain", f"[0,{DIGITS}]", "1"),
    ], ids=["slope", "domain"])
    def test_a_system_field_past_the_digit_limit_names_the_file_and_field(
            self, tmp_path, capsys, field, domain, slope):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"domain": domain, "cycle": [{"pieces": [
            {"on": "[0,1]", "slope": slope, "intercept": "0"}]}]}))
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2 and err["detail"] == f"{path}: {field}: {TOO_MANY_DIGITS}"

    @pytest.mark.parametrize("command", ["eval", "mc"])
    def test_a_bare_integer_past_the_digit_limit_names_the_file_and_field(
            self, tmp_path, capsys, command):
        path = tmp_path / "digits.json"
        path.write_text('{"domain": "[0,1]", "cycle": [{"pieces": [{"on": "[0,1]", '
                        f'"slope": {DIGITS}, "intercept": "0"}}]}}]}}')
        extra = ["--x", "0"] if command == "eval" else ["--x", "0", "--epsilon", "0.1",
                                                        "--n", "1", "--samples", "10"]
        code, doc, err = run_cli(capsys, command, "--system", str(path), *extra)
        assert code == 2 and doc is None
        assert err["detail"] == f"{path}: cycle[0].pieces[0].slope: {TOO_MANY_DIGITS}"

    def test_a_bare_quadratic_coefficient_past_the_digit_limit_is_past_a_double(
            self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "mc", "--system",
                               quadratic_file(tmp_path, ["0", DIGITS, "0"]),
                               "--A", "[0,1]", "--B", "[0,1]", "--n", "1", "--samples", "10")
        assert code == 2 and err["detail"].endswith('cycle[0]: "quadratic" coefficients must '
                                                    "be finite doubles")

    def test_an_exact_result_past_the_digit_limit_is_written_whole(self, tmp_path, capsys):
        # the cube of a 2,000-digit denominator has 5,999 digits
        threes = int("3" * 2000)
        path = tmp_path / "threes.json"
        path.write_text(json.dumps({"domain": "[0,1]", "cycle": [{"pieces": [
            {"on": "[0,1]", "slope": f"1/{threes}", "intercept": "0"}]}]}))
        cube = str(Decimal(threes**3))  # Decimal writes an int past the limit
        code, doc, _ = run_cli(capsys, "eval", "--system", str(path), "--x", "1", "--n", "3")
        assert code == 0 and doc["result"]["value"] == f"1/{cube}"
        code, doc, _ = run_cli(capsys, "image", "--system", str(path), "--set", "[0,1]",
                               "--n", "3")
        assert code == 0 and doc["result"] == {"image": [f"[0,1/{cube}]"],
                                               "measure": f"1/{cube}"}

    def test_a_sample_range_past_the_largest_double_exits_2(self, tmp_path, capsys):
        big = "1" + "0" * 308
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"domain": f"[-{big},{big}]",
                                    "cycle": [{"quadratic": [0, 1, 0]}]}))
        code, doc, err = run_cli(capsys, "mc", "--system", str(path), "--A", "[0,1]",
                                 "--B", "[0,1]", "--n", "1", "--samples", "10")
        assert code == 2 and doc is None
        assert err["detail"] == "the samples' range [-1e+308, 1e+308] is wider than the " \
                                "largest double"

    def test_logistic_map_still_loads_and_reports_strict_json(self, tmp_path, capsys):
        code = main(["mc", "--system", quadratic_file(tmp_path, ["0", "4", "-4"]),
                     "--x", "0.3", "--epsilon", "0.01", "--n", "40", "--samples", "100"])
        captured = capsys.readouterr()
        assert code == 0
        assert 0 <= strict_json(captured.out)["result"]["max_separation"] <= 1

    def test_a_nan_result_is_a_diagnostic_not_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mc_separation", lambda *args: float("nan"))
        code = main(["mc", "--system", "tent", "--x", "0.3", "--epsilon", "0.01",
                     "--n", "4", "--samples", "10"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err)["error"] == "malformed_input"


DEEP = "[" * 5000 + "]" * 5000  # deeper than the JSON decoder can recurse


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("argv,detail", [
        (["image", "--system", "tent", "--set", DEEP, "--n", "1"],
         'cannot parse "%s…" (10000 characters) as an interval literal' % ("[" * 60)),
        (["kvn", "--values", DEEP], "expected a JSON list: {too_deep}"),
        (["kvn", "--values", "@{deep}"], "expected a JSON list: {too_deep}"),
        (["density", "--members", DEEP, "--horizon", "3", "--tail-start", "1"],
         "expected a JSON list of integers: {too_deep}"),
        (["eval", "--system", "{system}", "--x", "0"], "{system}: invalid JSON: {too_deep}"),
        (["mc", "--system", "{system}", "--x", "0.3", "--epsilon", "0.01", "--n", "4",
          "--samples", "10"], "{system}: invalid JSON: {too_deep}"),
    ], ids=["set", "values", "values_file", "members", "eval_system_file", "mc_system_file"])
    def test_is_malformed_input_at_every_entry_point(self, tmp_path, capsys, argv, detail):
        deep, system = tmp_path / "deep.json", tmp_path / "system.json"
        deep.write_text(DEEP)
        system.write_text('{"domain": "[0,1]", "cycle": [%s]}' % DEEP)
        names = {"deep": deep, "system": system, "too_deep": "nested too deeply to decode"}
        code = main([a.format(**names) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert strict_json(captured.err) == {
            "command": argv[0], "error": "malformed_input", "detail": detail.format(**names),
        }

    def test_a_recursion_error_from_a_program_fault_still_surfaces(self, monkeypatch):
        def fault(*args):
            raise RecursionError("a fault, not an input")

        monkeypatch.setattr(cli, "hitting_set", fault)
        with pytest.raises(RecursionError):
            main(["hitting", "--system", "tent", "--U", "(0,1/4)", "--V", "(3/4,1)", "--H", "2"])


PL_IDENTITY = {"pieces": [{"on": "[0,1]", "slope": "1", "intercept": "0"}]}

MALFORMED_FILES = {
    "non_string_domain": (
        {"domain": 5, "cycle": [PL_IDENTITY]},
        'missing domain string, e.g. "[0,1]"',
    ),
    "non_list_preamble": (
        {"domain": "[0,1]", "preamble": 3, "cycle": [PL_IDENTITY]},
        '"preamble" must be a list of maps',
    ),
    "non_list_cycle": (
        {"domain": "[0,1]", "cycle": 3},
        '"cycle" must be a nonempty list of maps',
    ),
    "open_domain": (
        {"domain": "(0,1)", "cycle": [PL_IDENTITY]},
        "domain: must be a closed nondegenerate interval, got (0,1)",
    ),
    "degenerate_domain": (
        {"domain": "[0,0]", "cycle": [{"quadratic": [0, 0, 0]}]},
        "domain: must be a closed nondegenerate interval, got [0,0]",
    ),
    "float_slope": (
        {"domain": "[0,1]",
         "cycle": [{"pieces": [{"on": "[0,1]", "slope": 0.5, "intercept": "0"}]}]},
        'cycle[0].pieces[0].slope: float literal 0.5 not accepted; write "1/2"',
    ),
    "non_finite_slope": (  # 1e400 is beyond a double: it decodes to inf
        {"domain": "[0,1]",
         "cycle": [{"pieces": [{"on": "[0,1]", "slope": 1e400, "intercept": "0"}]}]},
        "cycle[0].pieces[0].slope: float literal inf not accepted",
    ),
}


LOADER_ARGV = {
    "eval": ["--x", "0"],
    "mc": ["--x", "0.3", "--epsilon", "0.01", "--n", "4", "--samples", "10"],
}


class TestOneLoader:
    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    @pytest.mark.parametrize("command", list(LOADER_ARGV))
    def test_eval_and_mc_reject_a_malformed_file_alike(self, tmp_path, capsys, command, case):
        doc, message = MALFORMED_FILES[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        code = main([command, "--system", str(path), *LOADER_ARGV[command]])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        err = strict_json(captured.err)
        assert err["error"] == "malformed_input"
        assert err["detail"] == f"{path}: {message}"

    def test_quadratic_coefficients_may_be_floats(self, tmp_path, capsys):
        path = quadratic_file(tmp_path, ["0.0", "3.5", "-3.5"])
        code = main(["mc", "--system", path, *LOADER_ARGV["mc"]])
        captured = capsys.readouterr()
        assert code == 0 and strict_json(captured.out)["result"]["estimate_only"] is True

    def test_top_level_diagnostic_has_one_separator(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"cycle": [PL_IDENTITY]}))
        code, _, err = run_cli(capsys, "eval", "--system", str(path), "--x", "0")
        assert code == 2
        assert err["detail"] == f'{path}: missing domain string, e.g. "[0,1]"'
        assert str(MalformedSystemFile("m", path="s.json", field="")) == "s.json: m"
        assert str(MalformedSystemFile("m", field="")) == "m"


def readme_cli_lines() -> list[list[str]]:
    """The argv of every `nadyn ...` line in the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "nadyn"]


# sha256 of each README example's stdout, recorded before a refactor of the
# set algebra and the verdict reductions that must not change any report. A
# change that alters a report on purpose, or the tool version, records new
# digests; the `mc` digests also pin numpy's seeded random stream.
README_REPORT_SHA256 = json.loads(
    (Path(__file__).resolve().parent / "readme_report_sha256.json").read_text(encoding="utf-8")
)


ENVELOPE = ["command", "tool_version", "index_base", "budget", "system", "parameters", "result"]


class TestCommandTable:
    def test_readme_examples_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --csv writes next to the caller
        monkeypatch.delenv("NADYN_BUDGET", raising=False)
        lines = readme_cli_lines()
        assert {argv[0] for argv in lines} == set(cli.COMMANDS)
        assert {shlex.join(["nadyn", *argv]) for argv in lines} == set(README_REPORT_SHA256)
        for argv in lines:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            report = strict_json(captured.out)
            assert report["command"] == argv[0]
            # one envelope, in one order; a system is reported iff the request names one
            has_system = "--system" in argv or argv[0] == "verify"
            assert list(report) == [k for k in ENVELOPE if k != "system" or has_system], argv
            digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
            assert digest == README_REPORT_SHA256[shlex.join(["nadyn", *argv])], argv

    def test_reports_and_diagnostics_are_one_line_of_compact_json(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NADYN_BUDGET", raising=False)

        def compact(text):
            return json.dumps(strict_json(text), separators=(",", ":")) + "\n"

        for argv in readme_cli_lines():
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == compact(out), argv
        out = tmp_path / "report.json"
        assert main(["eval", "--system", "tent", "--x", "1/3", "--out", str(out)]) == 0
        assert not capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == compact(out.read_text(encoding="utf-8"))
        for argv, code in [
            (["image", "--system", "tent", "--set", "[" * 100, "--n", "1"], 2),
            (["preimage", "--system", "tent", "--set", "[0,1/2]", "--n", "12",
              "--budget", "4"], 3),
            (["verify", "henon"], 4),
            (["bogus"], 4),
        ]:
            assert main(argv) == code
            captured = capsys.readouterr()
            assert not captured.out and captured.err == compact(captured.err), argv

    @pytest.mark.parametrize("command", list(GRID_VERDICTS))
    @pytest.mark.parametrize("system,kind", [
        ("tent", "WITNESSED_UP_TO"), ("example31", "INCONCLUSIVE"),
    ])
    def test_verdict_listings_match_the_library(self, capsys, command, system, kind):
        code, doc, _ = run_cli(capsys, command, "--system", system, "--grid", "1/8",
                               "--H", "12")
        sch = bundled_example(system)
        verdict = GRID_VERDICTS[command](sch, F(1, 8), 12)
        cells = [str(c.parts[0]) for c in open_grid(sch.domain, F(1, 8))]
        if command == "weakmix":
            def names(p1, p2):
                return {"pair1": [cells[p1[0]], cells[p1[1]]],
                        "pair2": [cells[p2[0]], cells[p2[1]]]}
        else:
            def names(u, v):
                return {"U": cells[u], "V": cells[v]}
        score = "tail_start" if command == "mixing" else "n"
        witnesses = [{**names(*item), score: n} for item, n in verdict.witnesses]
        unhit = [names(*item) for item in verdict.unhit]
        assert code == 0 and doc["result"]["kind"] == verdict.kind == kind
        assert witness_rows(doc["result"]["witnesses"]) == witnesses
        assert doc["result"]["unhit"] == unhit
        assert len(witnesses) + len(unhit) == len(cells) ** (4 if command == "weakmix" else 2)

    @pytest.mark.parametrize("command", list(GRID_VERDICTS))
    @pytest.mark.parametrize("system", ["tent", "example31"])
    @pytest.mark.parametrize("grid", ["1/4", "1/8"])
    def test_a_listing_is_the_text_json_writes_for_its_row_dicts(self, capsys, command, system,
                                                                 grid):
        assert main([command, "--system", system, "--grid", grid, "--H", "12"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        sch = bundled_example(system)
        verdict = GRID_VERDICTS[command](sch, F(grid), 12)
        # the listing as dicts, one per row, as json encoded it before the rows were text
        cells = [str(c) for c in open_grid(sch.domain, verdict.grid)]
        if verdict.witnesses.pairs:
            labels, first, second = [[cu, cw] for cu in cells for cw in cells], "pair1", "pair2"
        else:
            labels, first, second = cells, "U", "V"
        score = "tail_start" if command == "mixing" else "n"
        result = report["result"]
        side = verdict.witnesses
        assert result["witnesses"] == {
            "items": "cell_pairs" if side.pairs else "cells", "cells": cells,
            "classes": list(side.classes), "table": [list(row) for row in side.table],
            "score": score}
        witnesses = witness_rows(result["witnesses"])
        assert witnesses == [{first: a, second: b, score: n}
                             for a, b, n in side.rows(labels)]
        result["unhit"] = [{first: a, second: b} for a, b, _ in verdict.unhit.rows(labels)]
        assert out == json.dumps(report, separators=(",", ":"), allow_nan=False) + "\n"
        witnessed = system == "tent"
        assert result["kind"] == ("WITNESSED_UP_TO" if witnessed else "INCONCLUSIVE")
        assert bool(witnesses) and bool(result["unhit"]) != witnessed

    def test_a_written_listing_goes_in_by_place_and_never_elsewhere(self):
        # blocks of items, each item after a comma; an empty block adds nothing
        listing = cli._Encoded([',{"U":"(0,1)"},[]', "", ",2"])
        doc = {"text": '[{"U":"(0,1)"},[]]', "result": {"kind": "K", "rows": listing, "n": 1},
               "empty": cli._Encoded(iter(())), "nested": {"list": [1, {"a": "]"}]}}
        assert "".join(cli._json_parts(doc)) == json.dumps(
            {**doc, "result": {"kind": "K", "rows": [{"U": "(0,1)"}, [], 2], "n": 1},
             "empty": []},
            separators=(",", ":"))
        with pytest.raises(TypeError):
            cli._json_parts({"rows": [listing]})

    def test_every_part_but_the_blocks_is_encoded_before_a_block_is_joined(self):
        read = []

        def blocks():
            read.append(1)
            yield ",1"

        with pytest.raises(ValueError):  # NaN is not strict JSON
            cli._json_parts({"rows": cli._Encoded(blocks()), "after": float("nan")})
        assert not read
        parts = cli._json_parts({"rows": cli._Encoded(blocks()), "after": 2})
        assert not read  # the blocks are joined only as the parts are read
        assert "".join(parts) == '{"rows":[1],"after":2}' and read == [1]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: nadyn {command}")


@st.composite
def listing_sides(draw):
    """A random PairPairs side: k cells or k^2 cell pairs, classes numbered in order of
    first appearance (as the verdicts number them), and a class table with zeros."""
    k = draw(st.integers(1, 6))
    pairs = draw(st.booleans())
    items = k * k if pairs else k
    drawn = draw(st.lists(st.integers(0, min(items, 12) - 1), min_size=items, max_size=items))
    number: dict[int, int] = {}
    classes = tuple(number.setdefault(c, len(number)) for c in drawn)
    score = st.one_of(st.just(0), st.integers(1, draw(st.integers(1, 40))))
    table = tuple(tuple(draw(st.lists(score, min_size=len(number), max_size=len(number))))
                  for _ in number)
    return topology.PairPairs(k, pairs, classes, table, draw(st.booleans()))


# an empty listing on either side, and a class that keeps no row on either side
SIDE_EXAMPLES = [
    topology.PairPairs(2, False, (0, 1), ((0, 0), (0, 0)), True),
    topology.PairPairs(2, True, (0, 0, 1, 0), ((3, 1), (2, 5)), False),
    topology.PairPairs(3, False, (0, 1, 2), ((0, 1, 0), (1, 2, 3), (0, 0, 0)), True),
]


class TestWitnessTable:
    @settings(max_examples=300, deadline=None)
    @given(listing_sides(), st.sampled_from(["transitivity", "weak_mixing", "mixing"]))
    @example(SIDE_EXAMPLES[0], "transitivity")
    @example(SIDE_EXAMPLES[1], "mixing")
    @example(SIDE_EXAMPLES[2], "weak_mixing")
    def test_the_class_form_expands_to_the_witness_rows(self, side, name):
        sch = bundled_example("tent")
        witnesses = dataclasses.replace(side, hit=True)
        unhit = dataclasses.replace(side, hit=False)
        kind = "INCONCLUSIVE" if len(unhit) else "WITNESSED_UP_TO"
        verdict = topology.Verdict(name, kind, F(1, side.k), 1, witnesses=witnesses,
                                   unhit=unhit)
        cells = [str(c) for c in open_grid(sch.domain, verdict.grid)]
        if side.pairs:
            labels, first, second = [[a, b] for a in cells for b in cells], "pair1", "pair2"
        else:
            labels, first, second = cells, "U", "V"
        score = "tail_start" if name == "mixing" else "n"
        rows = [{first: a, second: b, score: n} for a, b, n in witnesses.rows(labels)]
        written = cli._dumps(cli._verdict_json(verdict, sch)["witnesses"])
        assert witness_rows(json.loads(written)) == rows
        assert len(rows) == len(witnesses)


class TestListingWriter:
    @settings(max_examples=300, deadline=None)
    @given(listing_sides(), st.lists(st.text(max_size=4), min_size=6, max_size=6))
    @example(SIDE_EXAMPLES[0], ["a"] * 6)
    @example(SIDE_EXAMPLES[1], ["a"] * 6)
    @example(SIDE_EXAMPLES[2], ["(0,1/3)", "(1/3,2/3)", "(2/3,1)", "", "", ""])
    def test_the_written_listing_is_json_of_the_row_dicts(self, side, names):
        side = dataclasses.replace(side, hit=False)  # the writer serves the unhit side
        cells = names[:side.k]
        if side.pairs:
            labels, first, second = [[a, b] for a in cells for b in cells], "pair1", "pair2"
        else:
            labels, first, second = cells, "U", "V"
        rows = [{first: a, second: b} for a, b, _ in side.rows(labels)]
        written = cli._listing(side, cells)
        assert "".join(cli._json_parts({"rows": written})) == json.dumps(
            {"rows": rows}, separators=(",", ":"))
        assert len(rows) == len(side)

    def test_an_empty_listing_encodes_no_label(self, monkeypatch):
        def no_labels(*args):
            raise AssertionError("a label was encoded")
        monkeypatch.setattr(cli, "_dumps", no_labels)
        nothing_unhit = SIDE_EXAMPLES[1]
        assert list(cli._listing(nothing_unhit, ["(0,1/2)", "(1/2,1)"])) == ["[]"]

    def test_a_weakmix_report_peaks_near_its_text_size(self, tmp_path):
        out = tmp_path / "w.json"
        argv = ["weakmix", "--system", "example31", "--grid", "3/64", "--H", "8",
                "--out", str(out)]
        assert main(argv) == 0  # imports and first-call caches are not the report's
        topology._hitting_matrix.cache_clear()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 552,960 unhit rows, 45.6 MB: each block is joined as it is written, so the
        # listing's text is never held whole
        assert peak <= 0.25 * out.stat().st_size

    @pytest.mark.parametrize("command", list(GRID_VERDICTS))
    @pytest.mark.parametrize("system,grid", [("tent", "1/16"), ("example31", "3/32")])
    def test_stdout_and_out_get_the_same_bytes(self, capsys, tmp_path, command, system, grid):
        argv = [command, "--system", system, "--grid", grid, "--H", "12"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert not capsys.readouterr().out
        assert out.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("argv,code", [
        # 9,203,712 unhit rows refused
        (["weakmix", "--system", "example31", "--grid", "3/128", "--H", "8"], 3),
        (["transitivity", "--system", "tent", "--grid", "1/8", "--H", "x"], 2),
        (["mixing", "--system", "tent", "--grid", "1/8", "--H", "0"], 2),
    ])
    def test_a_failed_grid_command_leaves_out_untouched(self, capsys, tmp_path, argv, code):
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        assert main([*argv, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert not captured.out and json.loads(captured.err)["command"] == argv[0]
        assert out.read_bytes() == b"an earlier report\n"


class TestVerify:
    def test_example31_self_contained(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "example31")
        assert code == 0
        assert doc["result"]["passed"] is True
        checks = {c["check"]: c["passed"] for c in doc["result"]["checks"]}
        assert checks == {
            "invariant_set_certificate": True,
            "sensitivity_certificate": True,
        }
        cert = doc["result"]["checks"][0]["verdict"]["certificate"]
        assert cert["W"] == ["[0,1]"] and cert["U"] == ["(0,1)"] and cert["V"] == ["(1,3/2)"]

    def test_tent_instance(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "tent")
        assert code == 0 and doc["result"]["passed"] is True
        assert doc["parameters"]["delta"] == "1/8"

    def test_a_failed_certificate_exits_1_and_the_other_checks_still_run(
        self, capsys, monkeypatch
    ):
        params, checks = cli.SCENARIOS["example31"]
        monkeypatch.setitem(cli.SCENARIOS, "example31", ({**params, "W": ["[0,1/2]"]}, checks))
        code, doc, _ = run_cli(capsys, "verify", "example31")
        assert code == 1 and doc["result"]["passed"] is False
        assert doc["parameters"]["W"] == ["[0,1/2]"]
        cert, sens = doc["result"]["checks"]
        assert cert == {
            "check": "invariant_set_certificate",
            "passed": False,
            "detail": "the first image of U is (0,1], not contained in W = [0,1/2]",
        }
        assert sens["check"] == "sensitivity_certificate" and sens["passed"] is True

    def test_help_names_every_scenario(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.SCENARIOS)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_process(*argv):
    """(exit code, stdout, stderr) of ``python -m nadyn.cli argv`` in a new interpreter."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "nadyn.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def in_process(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tent_text(slope: str) -> str:
    """A one-map system file whose left branch has the one-character ``slope``."""
    return json.dumps({"domain": "[0,1]", "cycle": [{"pieces": [
        {"on": "[0,1/2]", "slope": slope, "intercept": "0"},
        {"on": "(1/2,1]", "slope": "-2", "intercept": "2"},
    ]}]})


class TestInProcessReuse:
    """Each command's parser, each bundled system and each file text's schedule
    are built once per process; no call may see what an earlier one left."""

    def test_a_flag_of_one_call_is_no_default_of_the_next(self, capsys, monkeypatch):
        monkeypatch.delenv("NADYN_BUDGET", raising=False)
        argv = ["image", "--system", "tent", "--set", "[0,1/3]", "--n", "2"]
        code, doc, _ = run_cli(capsys, *argv, "--budget", "5")
        assert code == 0 and doc["budget"] == {"max_parts": 5, "source": "flag"}
        code, doc, _ = run_cli(capsys, *argv)
        assert code == 0 and doc["budget"] == {"max_parts": DEFAULT_BUDGET.max_parts,
                                               "source": "default"}

    @pytest.mark.parametrize("refused", [
        ["eval", "--system", "tent", "--x", "1/3", "--n", "two"],
        ["eval", "--system", "tent", "--x", "1/3", "--bogus", "1"],
    ], ids=["bad_int", "unrecognized"])
    def test_a_refused_argv_then_a_valid_one_exit_as_in_fresh_processes(
        self, capsys, monkeypatch, refused
    ):
        monkeypatch.delenv("NADYN_BUDGET", raising=False)
        valid = ["eval", "--system", "tent", "--x", "1/3", "--n", "3"]
        got = [in_process(capsys, *refused), in_process(capsys, *valid)]
        assert [code for code, _, _ in got] == [2, 0]
        assert got == [fresh_process(*refused), fresh_process(*valid)]

    def test_a_bundled_system_is_built_once(self):
        assert bundled_example("tent") is bundled_example("tent")
        assert cli._load_system("tent")[0] is bundled_example("tent")

    def test_an_unknown_name_is_refused_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(UnknownExample):
                bundled_example("lorenz")
            code, _, err = run_cli(capsys, "eval", "--system", "lorenz", "--x", "0")
            assert code == 4 and err["error"] == "unknown_example"

    def test_a_file_rewritten_in_place_is_parsed_again(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        argv = ["eval", "--system", str(path), "--x", "1/3"]
        reports = []
        for slope in ("2", "1"):  # texts of one length
            path.write_text(tent_text(slope))
            code, doc, _ = run_cli(capsys, *argv)
            assert code == 0
            reports.append(doc)
        assert len(tent_text("2")) == len(tent_text("1"))
        slopes = [r["system"]["definition"]["cycle"][0]["pieces"][0]["slope"] for r in reports]
        assert slopes == ["2", "1"]
        assert [r["result"]["value"] for r in reports] == ["2/3", "1/3"]
        # the estimator loads the same text as its own schedule
        code, doc, _ = run_cli(capsys, "mc", "--system", str(path), "--x", "0.3",
                               "--epsilon", "0.01", "--n", "2", "--samples", "10")
        assert code == 0 and doc["result"]["estimate_only"] is False

    @pytest.mark.parametrize("command", list(LOADER_ARGV))
    def test_each_path_of_one_malformed_text_is_named_in_its_diagnostic(
        self, tmp_path, capsys, command
    ):
        text = tent_text("x")
        for name in ("a.json", "b.json", "a.json"):
            path = tmp_path / name
            path.write_text(text)
            code, _, err = run_cli(capsys, command, "--system", str(path),
                                   *LOADER_ARGV[command])
            assert code == 2
            assert err["detail"].startswith(f"{path}: cycle[0].pieces[0].slope: ")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no limit on text-to-int conversion")
    def test_the_digit_limit_in_force_decides_each_load(self, tmp_path, capsys):
        # a 5,001-digit slope on a piece 1/10^5000 wide
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"domain": "[0,1]", "cycle": [{"pieces": [
            {"on": f"[0,1/{DIGITS}]", "slope": DIGITS, "intercept": "0"},
            {"on": f"(1/{DIGITS},1]", "slope": "0", "intercept": "0"},
        ]}]}))
        argv = ["eval", "--system", str(path), "--x", "0"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, doc, _ = run_cli(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert doc["system"]["definition"]["cycle"][0]["pieces"][0]["slope"] == DIGITS
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err["detail"].startswith(f"{path}: cycle[0].pieces[0]")
        assert err["detail"].endswith("has more digits than Python converts")
