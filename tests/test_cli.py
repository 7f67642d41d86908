import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

from hexcover import cli, torsion_covers
from hexcover.cli import main

import golden
from golden import EXPECTED

SECTION_COMMANDS = {
    "tables": "tables",
    "characters": "characters",
    "orbits": "orbits",
    "invariants": "invariants",
    "search": "search-aut",
}


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


def run_from_checkout(*args):
    """Run ``python *args`` so that it imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


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
