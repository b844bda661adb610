"""Argv fuzzing of the CLI: every call ends in a known exit code and strict JSON.

Arguments are drawn per flag from curated token pools (valid and malformed
rationals, sets, JSON lists, system files that are missing, directories or
malformed) over the option specs of ``cli.COMMANDS``. Sizes stay small:
step counts and horizons at most 8, at most 1000 Monte Carlo samples
when ``--samples`` is given. Long points, sets and grids that do not fit
the system check that no diagnostic echoes more than 60 characters of an
argument other than a file path.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nadyn import cli
from test_cli import echoes_a_run, strict_json

# long tokens that do not fit any system here: a diagnostic may echo 60 characters of each
LONG = "2" + "0" * 299
LONG_POINTS = [LONG, "-" + LONG]
LONG_SETS = [f"[1/2,{LONG}]", f'["[0,1/4]","[{LONG},{LONG}1]"]']
# 7/10^300 divides neither 1 nor 3/2; the others are too wide or not positive
LONG_GRIDS = ["7/1" + "0" * 300, LONG, "-" + LONG]

# per flag: (valid tokens, malformed tokens); a drawn token is malformed one time in seven
SETS = (["[0,1/2]", "(0,1/4)", "[0,1]", "(3/4,1]", '["[0,1/4]","(3/4,1]"]', "[]"],
        ["[1,0]", "(1/2,1/2)", "(0,1", '["x"]', "[0,2]", "[0,0.5]", "", "@missing.json",
         *LONG_SETS])
INTS = (["0", "1", "3", "8"], ["-1", "", "x", "2.5", "1e3"])
FLOATS = (["0.3", "0.0625", "1"], ["-1", "nan", "inf", "1e400", "1/2", "x", ""])
RATIONALS = (["0", "1/3", "1/2", "5/4"],
             ["-1/2", "3/2", "1/0", "0.5", "", "x", "1e3", *LONG_POINTS])
GRIDS = (["1/2", "1/4", "1/3", "1/8"],
         ["1", "2", "0", "-1/4", "1/0", "0.25", "x", "", *LONG_GRIDS])
# README: file paths are echoed whole
PATH_FLAGS = {"--system", "--out", "--csv"}
LISTS = ["[1.5]", "[true]", '{"a": 1}', '["1/0"]', "[NaN]", "x", "", "@missing.json"]
POOLS = {
    "--x": RATIONALS, ("mc", "--x"): FLOATS, "--epsilon": FLOATS,
    "--set": SETS, "--A": SETS, "--B": SETS, "--U": SETS, "--V": SETS,
    "--n": INTS, "--N": INTS, "--H": INTS, "--horizon": INTS, "--tail-start": INTS,
    "--members": (["[0,1,4,9]", "[]", "[3]"], ["[-1, 3]", *LISTS]),
    "--values": (['["1","0","0","1"]', '["1/2","1/4","0"]', "[]"], LISTS),
    "--thresholds": (['["1/2","1/4"]', '["1/8"]'], ['["1/4","1/2"]', *LISTS]),
    "--grid": GRIDS,
    "--delta": (["1/4", "1/8", "1/2"], GRIDS[1]),
    "--scale": (["1/4", "1/8", "1/16"], GRIDS[1]),
    "--samples": (["10", "1000"], ["0", "-5", "x"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--budget": (["3", "1048576"], ["0", "-1", "x"]),
    "name": (["example31", "tent"], ["henon", ""]),
}
SYSTEM_FILES = {
    "ok.json": {"domain": "[0,1]", "cycle": [
        {"pieces": [{"on": "[0,1]", "slope": "-1", "intercept": "1"}]}]},
    "gap.json": {"domain": "[0,1]", "cycle": [{"pieces": [
        {"on": "[0,1/4]", "slope": "0", "intercept": "0"},
        {"on": "(1/2,1]", "slope": "0", "intercept": "0"}]}]},
    "quadratic.json": {"domain": "[0,1]", "cycle": [{"quadratic": [0, 4, -4]}]},
    "float.json": {"domain": "[0,1]", "cycle": [
        {"pieces": [{"on": "[0,1]", "slope": 0.5, "intercept": "0"}]}]},
    "list.json": [],
}


def pools_for(tmp_path) -> dict:
    def at(name: str) -> str:
        return str(tmp_path / name)

    for name, doc in SYSTEM_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "truncated.json").write_text('{"domain": "[0,1]", ')
    (tmp_path / "subdir").mkdir()
    broken = ["missing.json", "gap.json", "float.json", "list.json", "truncated.json",
              "subdir"]
    return {
        **POOLS,
        "--system": (["tent", "doubling", "example31", "tent_doubling_alternating",
                      at("ok.json"), at("quadratic.json")],
                     ["lorenz", *map(at, broken)]),
        "--out": ([at("out.json")], [at("subdir")]),
        "--csv": ([at("series.csv")], [at("subdir")]),
    }


@st.composite
def argvs(draw, pools):
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    specs = cli.COMMANDS[command][1] + cli._COMMON if command in cli.COMMANDS else ()
    argv = [command]
    for flags, kwargs in specs:
        flag = flags[0]
        required = kwargs.get("required", not flag.startswith("-"))
        if draw(st.integers(1, 20)) > (19 if required else 12):
            continue
        valid, malformed = pools.get((command, flag), pools[flag])
        token = draw(st.sampled_from(malformed if draw(st.integers(1, 7)) == 7 else valid))
        argv += [flag, token] if flag.startswith("-") else [token]
    if draw(st.integers(0, 19)) == 0:
        argv.append("--bogus")
    return argv


def test_every_argv_ends_in_a_json_diagnostic_or_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NADYN_BUDGET", raising=False)
    pools = pools_for(tmp_path)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(pools))
    def run(argv):
        code = cli.main(argv)  # an exception escaping main fails the test
        captured = capsys.readouterr()
        assert code in {0, 2, 3, 4}, (argv, code)
        for text in (captured.out, captured.err):
            if text:
                strict_json(text)
        assert (code == 0) == (not captured.err), (argv, code, captured.err)
        if captured.err:
            shown = " ".join(map(str, strict_json(captured.err).values()))
            for flag, token in zip(["", *argv], argv):
                if flag not in PATH_FLAGS and not token.startswith("@"):
                    assert not echoes_a_run(shown, token), (argv, captured.err)

    run()
