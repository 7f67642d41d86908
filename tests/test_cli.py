import contextlib
import functools
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

from hexcover import cli, torsion_covers
from hexcover.cli import main

import golden
import oracles
from golden import EXPECTED

SECTION_COMMANDS = {
    "tables": "tables",
    "characters": "characters",
    "orbits": "orbits",
    "invariants": "invariants",
    "search": "search-aut",
}


def _non_json(value):
    """The parts of value that are not a list, an int, a bool or a str, by
    exact type; lists are walked."""
    if type(value) is list:
        return [x for v in value for x in _non_json(v)]
    return [] if type(value) in (int, bool, str) else [value]


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_every_computed_row_is_a_json_value(bound):
    # the rows are compared with the expected values as they are built, so
    # a tuple or a Fraction in a row must fail here, not as a FAIL line
    rows = cli._build_rows(cli._COMMANDS["verify-all"][1], bound)
    assert len(rows) == 49
    assert [(check_id, x) for check_id, value in rows
            for x in _non_json(value)] == []


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def test_expected_file_has_one_record_per_check():
    assert golden.EXPECTED_FILE["version"] == 1
    records = golden.EXPECTED_FILE["checks"]
    ids = [r["check_id"] for r in records]
    assert len(ids) == len(set(ids)) == len(EXPECTED) == 49
    assert all(isinstance(r["anchor"], str) and r["anchor"] for r in records)
    sections = list(dict.fromkeys(i.split(".", 1)[0] for i in ids))
    assert sections == ["tables", "characters", "orbits", "invariants", "search"]


@pytest.mark.parametrize("value, error", [
    (2.5, TypeError), (2.0, TypeError), ("3", TypeError), (True, TypeError),
    (Fraction(1, 2), ValueError)],
    ids=["float", "integral-float", "str", "bool", "fraction"])
def test_as_int_refuses_what_is_no_int(value, error):
    # a float, a str or a bool is neither truncated nor converted
    with pytest.raises(error):
        cli._as_int(value)


def test_as_int_reads_an_integral_fraction_as_an_int():
    n = cli._as_int(Fraction(4, 2))
    assert n == 2 and type(n) is int


def test_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify-all")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "49 checks: 49 passed, 0 failed"
    assert all(line.startswith("PASS") for line in lines[:-1])


@pytest.mark.parametrize("section", sorted(SECTION_COMMANDS))
def test_each_section_runs_its_slice_of_the_file(section, capsys):
    code, out = run_cli(capsys, SECTION_COMMANDS[section], "--json")
    assert code == 0
    rows = json.loads(out)["checks"]
    file_ids = [i for i in EXPECTED if i.split(".", 1)[0] == section]
    assert [r["check_id"] for r in rows] == file_ids
    for row in rows:
        assert set(row) == {"check_id", "anchor", "expected", "computed",
                            "status"}
        assert row["status"] == "pass"
        assert row["computed"] == row["expected"] == EXPECTED[row["check_id"]]


@pytest.mark.parametrize("command,check_id", [
    ("tables", "tables.branch_alt_product"),
    ("characters", "characters.witness_parity"),
    ("invariants", "invariants.ball_quotient"),
    ("invariants", "invariants.branch_labels"),
])
def test_perturb_fails_exactly_one_check(command, check_id, capsys):
    code, out = run_cli(capsys, command, "--json", "--perturb", check_id)
    assert code == 1
    rows = json.loads(out)["checks"]
    failed = [r for r in rows if r["status"] == "fail"]
    assert [r["check_id"] for r in failed] == [check_id]
    assert failed[0]["computed"] != failed[0]["expected"]


def test_perturb_text_mode_shows_the_diff(capsys):
    code, out = run_cli(capsys, "characters", "--perturb",
                        "characters.leftover_torsion")
    assert code == 1
    assert "FAIL  characters.leftover_torsion" in out
    leftover = EXPECTED["characters.leftover_torsion"]
    assert f"expected: {leftover}" in out
    assert f"computed: {leftover + 1}" in out
    assert out.splitlines()[-1] == "9 checks: 8 passed, 1 failed"


def test_usage_errors_exit_with_code_two(capsys):
    for args in (["search-aut", "--bound", "1"],
                 ["tables", "--perturb", "no.such.check"],
                 ["tables", "--perturb", "search.cross_ratio"],
                 []):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        capsys.readouterr()


def parse_outcome(parse, argv):
    """parse(argv)'s result, or the code it exits with, and what it wrote
    to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def argparse_parse(argv):
    args = oracles._build_parser().parse_args(argv)
    return args.command, args.json, args.perturb, getattr(args, "bound", 3)


def assert_parses_like_argparse(argv):
    expected, _, _ = parse_outcome(argparse_parse, argv)
    if isinstance(expected, tuple) and ([] in expected[2:]
                                        or expected[3] < 2):
        # argparse keeps an empty list for a value "--" given after "=",
        # on which main raised TypeError, and main refused a bound below 2
        # once argparse had returned; the parser now fails on both
        expected = 2
    result, out, err = parse_outcome(cli._parse, argv)
    assert result == expected, argv
    if result == 0:
        assert (out, err) == (cli._help_text(), ""), argv
    elif result == 2:
        assert out == "" and err.startswith("usage: hexcover "), argv
        assert "\nhexcover: error: " in err, argv
    else:
        assert out == err == "", argv


ARGV_GRID = [
    # rejected: no command, an unknown command, an unknown option, an
    # option without its value, a bound that is not an int, --bound for a
    # command without the search, an option before the command
    [], ["bogus"], ["tables", "--bogus"], ["tables", "--perturb"],
    ["search-aut", "--bound", "x"], ["tables", "--bound", "3"],
    ["--bound=-3"], ["--json", "tables"], ["tables", "x"], ["tables", "--"],
    ["--", "tables"], ["-", "tables"], ["tables", "-"], ["tables", "-3"],
    ["tables", "--json=1"], ["tables", "--perturb", "--", "x"],
    ["search-aut", "--bound"],
    ["search-aut", "--bound", "-x"], ["-hx"], ["-h="], ["--help=x"],
    ["--=x"], ["tables", "--=x"], ["tables", "-h x"],
    ["search-aut", "--bound", "x", "-h"], ["search-aut", "--bound=--"],
    # accepted: any order, repeats, "=", unique prefixes, odd values
    *([name] for name in cli._COMMANDS),
    ["verify-all", "--bound=-3"], ["verify-all", "--bound", "-3"],
    ["verify-all", "--json", "--perturb", "tables.curve_form_1",
     "--bound", "4"],
    ["verify-all", "--bound", "4", "--perturb", "tables.curve_form_1",
     "--json"],
    ["search-aut", "--bound=5", "--perturb=search.cross_ratio", "--json"],
    ["search-aut", "--js", "--bo", "4", "--pert", "x"],
    ["search-aut", "--b=2", "--j", "--p=x"],
    ["tables", "--json", "--json", "--perturb", "a", "--perturb=b"],
    ["verify-all", "--bound", "2", "--bound=6"],
    ["tables", "--perturb", "-3"], ["tables", "--perturb", "-"],
    ["tables", "--perturb", ""], ["tables", "--perturb="],
    ["tables", "--perturb", "a b"], ["tables", "--perturb", "-a b"],
    ["search-aut", "--bound", " 7 "], ["search-aut", "--bound", "3_0"],
    # help: it exits where it is read, before or after the command
    ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["tables", "-h"],
    ["tables", "--hel", "--bound"], ["search-aut", "--bound", "1", "-h"],
    ["tables", "-h", "--"],
]


@pytest.mark.parametrize("argv", ARGV_GRID, ids=repr)
def test_parser_matches_argparse_on_the_grid(argv):
    assert_parses_like_argparse(argv)


# the documented grammar: options by their name or a unique prefix, with
# values that do not begin with "-"
PERTURB_VALUES = ["tables.curve_form_1", "x", "", "a b", "4", "1"]
OPTION_TOKENS = st.one_of(
    st.sampled_from([["--json"], ["--js"], ["--j"], ["-h"], ["--he"]]),
    st.builds(lambda name, value: [name, value],
              st.sampled_from(["--perturb", "--pert", "--p", "--bound",
                               "--bo", "--b"]),
              st.sampled_from(PERTURB_VALUES)),
    st.builds(lambda name, value: [f"{name}={value}"],
              st.sampled_from(["--perturb", "--pe", "--bound", "--b"]),
              st.sampled_from(PERTURB_VALUES)),
)


@given(st.sampled_from(list(cli._COMMANDS)),
       st.lists(OPTION_TOKENS, max_size=6))
@settings(max_examples=300, deadline=None)
def test_parser_matches_argparse_on_option_lists(command, options):
    if command not in cli._BOUND_COMMANDS:
        options = [option for option in options
                   if not option[0].startswith("--b")]
    argv = [command, *(token for option in options for token in option)]
    assert_parses_like_argparse(argv)


# Inputs outside the documented grammar that the argparse parser read
# otherwise, with the exit status and the error each gives now.
CHANGED_INPUTS = [
    # -h is a whole token: bundled or given a value it is no option
    (["-hh"], 2, "invalid command '-hh'"),
    (["-h=h"], 2, "invalid command '-h=h'"),
    # a token fails where it is read, so a later -h is not reached ...
    (["--bogus", "-h"], 2, "unrecognized option '--bogus'"),
    (["--bogus", "tables", "-h"], 2, "unrecognized option '--bogus'"),
    # ... and an earlier one exits first
    (["tables", "-h", "--=x"], 0, None),
    # a value is taken as it stands, and "--" is no int
    (["search-aut", "--bound=--", "--bound", "4"], 2,
     "argument --bound: invalid int value: '--'"),
    # the same exit status as before, now as a check id no record has
    (["tables", "--perturb", "--json"], 2, "unknown check id '--json'"),
    (["tables", "--perturb=--"], 2, "unknown check id '--'"),
]


@pytest.mark.parametrize("argv,code,error", [
    pytest.param(*case, id=repr(case[0])) for case in CHANGED_INPUTS])
def test_inputs_argparse_read_otherwise(argv, code, error, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == (cli._help_text(), "")
    else:
        assert out == ""
        assert f"\nhexcover: error: {error}" in err, err


@pytest.mark.parametrize("argv", [["--help"], ["search-aut", "-h"]])
def test_help_lists_every_command_and_option(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    out, err_text = capsys.readouterr()
    assert err_text == ""
    lines = out.splitlines()
    assert lines[0] == ("usage: hexcover [-h] COMMAND [--json] "
                        "[--perturb CHECK_ID] [--bound N]")
    source = inspect.getsource(cli)
    for name, (description, _) in cli._COMMANDS.items():
        assert any(line.split() == [name, *description.split()]
                   for line in lines), name
        # the table is the only copy of the description in the module
        assert source.count(f'"{description}"') == 1, description
    for name, (metavar, description) in cli._OPTIONS.items():
        left = f"  {name} {metavar} " if metavar else f"  {name} "
        assert any(line.startswith(left) and line.endswith(description)
                   for line in lines), name
    assert "search-aut and verify-all only (default 3)" in out
    assert any(line.split()[:2] == ["-h,", "--help"] for line in lines)


def test_cli_imports_no_argument_parser_or_locale():
    probe = ("import contextlib, io, sys\n"
             "import hexcover.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = hexcover.cli.main(['tables', '--json'])\n"
             "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
             "print(code, sorted(loaded))\n")
    result = run_from_checkout("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"


def test_unknown_perturb_id_fails_before_any_row_is_built(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "_build_rows",
                        lambda sections, bound: built.append(sections))
    for args in (["tables", "--perturb", "no.such.check"],
                 ["verify-all", "--perturb", "orbits.no_such_check"],
                 ["search-aut", "--perturb", "orbits.root_count"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert f"unknown check id {args[-1]!r}" in capsys.readouterr().err
    assert built == []


def test_search_bound_two_finds_the_same_generators(capsys):
    code, out = run_cli(capsys, "search-aut", "--bound", "2")
    assert code == 0
    assert out.splitlines()[-1] == "8 checks: 8 passed, 0 failed"


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "tables", "--json")
    _, second = run_cli(capsys, "tables", "--json")
    assert first == second
    _, third = run_cli(capsys, "characters")
    _, fourth = run_cli(capsys, "characters")
    assert third == fourth


REPO_ROOT = Path(__file__).resolve().parent.parent


def run_from_checkout(*args, text=True, **variables):
    """Run ``python *args`` so that it imports this checkout's ``src``, with
    the given environment variables set."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env=env)


def test_verify_all_json_does_not_depend_on_the_hash_seed():
    # the package's caches are dicts and sets keyed by hashed values; the
    # report must not read their order
    outputs = set()
    for seed in ("0", "1", "random"):
        result = run_from_checkout("-m", "hexcover", "verify-all", "--json",
                                   text=False, PYTHONHASHSEED=seed)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def assert_invariants_pass(result):
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == \
        "11 checks: 11 passed, 0 failed", result.stderr


def test_console_entry_point():
    # Runs the [project.scripts] declaration the way the generated console
    # script does, so it needs no installed copy of the package.
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert "hexcover" in scripts
    module, sep, function = scripts["hexcover"].partition(":")
    assert sep and module and function, scripts["hexcover"]
    wrapper = (f"import sys\nfrom {module} import {function}\n"
               f"sys.exit({function}())")
    assert_invariants_pass(run_from_checkout("-c", wrapper, "invariants"))


@pytest.mark.skipif(shutil.which("hexcover") is None,
                    reason="hexcover console script not installed")
def test_installed_console_script():
    result = subprocess.run(["hexcover", "invariants"],
                            capture_output=True, text=True)
    assert_invariants_pass(result)


def test_python_dash_m_runs_the_command():
    assert_invariants_pass(run_from_checkout("-m", "hexcover", "invariants"))


def test_verify_all_classifies_the_characters_once(monkeypatch, capsys):
    fresh = functools.lru_cache(maxsize=None)(
        torsion_covers._classification.__wrapped__)
    monkeypatch.setattr(torsion_covers, "_classification", fresh)
    assert main(["verify-all"]) == 0
    capsys.readouterr()
    # the characters and search sections both ask; only the first computes
    info = fresh.cache_info()
    assert info.misses == 1 and info.hits >= 1
