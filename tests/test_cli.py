import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

from hexcover import cli
from hexcover.cli import main
from hexcover.lattice import LatticeBasis, hnf

import golden

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


def _perm_str(cycles):
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)


def _eis_mat(pairs):
    return [[[int(a), int(b)] for (a, b) in row] for row in pairs]


def _neg_mat(pairs):
    return [[[-int(a), -int(b)] for (a, b) in row] for row in pairs]


def _int_rows(rows):
    return [[int(x) for x in row] for row in rows]


def expected_mapping():
    product = LatticeBasis.from_rows(golden.PRODUCT_BASIS)
    kernels = {k: _int_rows(hnf(LatticeBasis.from_rows(rows), product))
               for k, rows in golden.KERNEL_BASIS_PUBLISHED.items()}
    mapping = {
        "tables.branch_alt_product": list(golden.BRANCH_ALT_UPPER_PRODUCT),
        "tables.branch_alt_cover": list(golden.BRANCH_ALT_UPPER_COVER),
        "tables.branch_form_sum": _eis_mat(golden.SUM_FORM_MATRIX),
        "characters.selected": list(golden.SELECTED_CHARACTERS),
        "characters.divisible_flags":
            [k in golden.SELECTED_CHARACTERS for k in range(1, 16)],
        "characters.witness_parity": golden.TWO_DIVISIBILITY_WITNESS,
        "characters.curve_torsion_counts":
            [len(s) for s in golden.CURVE_TORSION_PARITIES],
        "characters.covered_torsion":
            len(set().union(*golden.CURVE_TORSION_PARITIES)),
        "characters.leftover_torsion": golden.TORSION_LEFTOVER,
        "orbits.root_count": len(golden.SQUARE_ROOT_EXPONENTS),
        "orbits.product_root_count": 0,
        "orbits.perm_order4": _perm_str(golden.PERM_ORDER4),
        "orbits.perm_order6": _perm_str(golden.PERM_ORDER6),
        "orbits.perm_negation": _perm_str(golden.PERM_NEGATION),
        "orbits.perm_translation": _perm_str(golden.PERM_NEGATION),
        "orbits.perm_reflection": _perm_str(golden.PERM_SIGMA),
        "orbits.holo_order": golden.HOLO_GROUP_ORDER,
        "orbits.holo_group": "SL(2,3)",
        "orbits.holo_partition":
            [sorted(s) for s in golden.HOLO_ORBIT_PARTITION],
        "orbits.full_order": golden.FULL_GROUP_ORDER,
        "orbits.full_group": "GL(2,3)",
        "orbits.full_partition":
            [sorted(s) for s in golden.FULL_ORBIT_PARTITION],
        "orbits.conclusion": "2 surfaces up to isomorphism, 1 up to conjugation",
        "invariants.resolution_sextuple":
            list(golden.RESOLUTION_INVARIANTS[(8, (3,))]),
        "invariants.resolution_quadruples":
            list(golden.RESOLUTION_INVARIANTS[(6, (2, 2))]),
        "invariants.smooth_baseline":
            list(golden.RESOLUTION_INVARIANTS[(2, ())]),
        "invariants.branch_labels": ["I", "II"],
        "invariants.branch_degrees": [32, 24],
        "invariants.branch_descriptions":
            ["one ordinary singular point of multiplicity 6",
             "two ordinary singular points of multiplicity 4"],
        "invariants.cover_branch_square": golden.SELF_INT_COVER,
        "invariants.double_cover":
            list(golden.DOUBLE_COVER_INVARIANTS[(24, 2)]),
        "invariants.smooth_double_cover":
            list(golden.DOUBLE_COVER_INVARIANTS[(8, 0)]),
        "invariants.product_quotient":
            list(golden.PRODUCT_QUOTIENT_INVARIANTS[(3, 4)]),
        "invariants.ball_quotient": True,
        "search.candidate_count": 4,
        "search.tilted_matrices": sorted(
            [_eis_mat(golden.TILTED_ORDER4), _neg_mat(golden.TILTED_ORDER4),
             _eis_mat(golden.TILTED_ORDER6), _neg_mat(golden.TILTED_ORDER6)]),
        "search.ambient_conjugates": sorted(
            [_eis_mat(golden.ORDER4_GEN), _neg_mat(golden.ORDER4_GEN),
             _eis_mat(golden.ORDER6_GEN), _neg_mat(golden.ORDER6_GEN)]),
        "search.presentation": True,
        "search.reflection_in_sheared_frame":
            _eis_mat(golden.SIGMA_LINEAR_COVER_FRAME),
        "search.cross_ratio": [int(x) for x in golden.CROSS_RATIO],
        "search.rotation_order": 3,
        "search.rotation_cycle": _perm_str((golden.GAMMA_CHARACTER_CYCLE,)),
    }
    for k, matrix in enumerate(golden.CURVE_FORM_MATRICES, start=1):
        mapping[f"tables.curve_form_{k}"] = _eis_mat(matrix)
    for k in golden.SELECTED_CHARACTERS:
        mapping[f"characters.kernel_hnf_{k}"] = kernels[k]
    return mapping


def load_expected_file():
    text = resources.files("hexcover").joinpath(
        "expected_values.json").read_text("utf-8")
    return json.loads(text)


def test_expected_file_is_pinned_to_the_golden_constants():
    data = load_expected_file()
    assert data["version"] == 1
    records = data["checks"]
    ids = [r["check_id"] for r in records]
    assert len(ids) == len(set(ids)) == 49
    assert all(isinstance(r["anchor"], str) and r["anchor"] for r in records)
    sections = list(dict.fromkeys(i.split(".", 1)[0] for i in ids))
    assert sections == ["tables", "characters", "orbits", "invariants", "search"]
    mapping = expected_mapping()
    assert set(mapping) == set(ids)
    for record in records:
        assert record["expected"] == mapping[record["check_id"]], \
            record["check_id"]


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
    file_ids = [r["check_id"] for r in load_expected_file()["checks"]
                if r["check_id"].split(".", 1)[0] == section]
    assert [r["check_id"] for r in rows] == file_ids
    for row in rows:
        assert set(row) == {"check_id", "anchor", "expected", "computed",
                            "status"}
        assert row["status"] == "pass"
        assert row["computed"] == row["expected"]


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
    assert "expected: 3" in out
    assert "computed: 4" in out
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
