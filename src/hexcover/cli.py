"""Command-line verification pipeline.

Each subcommand replays one slice of the classification with the library and
diffs the results against the expected values shipped in
``expected_values.json``.  Reports are printed as an aligned text table or,
with ``--json``, as one JSON object per run whose rows carry the check id,
a short anchor describing what is being recomputed, the expected and the
computed value, and a pass/fail status.  The exit status is 0 exactly when
every executed check passes.

The ``--perturb CHECK_ID`` flag deliberately corrupts one computed value
before the comparison; it exists so that the failure path of the pipeline
itself can be exercised.
"""
from __future__ import annotations

import json
import os
import sys
from math import lcm
from typing import List, NoReturn, Sequence, Tuple

from . import catalog
from .appell_humbert import im_on_lattice, intersection_number, square_roots
from .eisenstein import EisMat, EisRat, _gf3_residues, _rational
from .lattice import _lattice_coordinates
from .permgroup import PermGroup
from .surface_invariants import (
    NonIntegral,
    SingularityProfile,
    ball_quotient_check,
    enumerate_branch_profiles,
    product_quotient_invariants,
    resolution_invariants,
)
from .symmetry import (
    ANTIHOLO_REFLECTION,
    BASE_POINT_SWAP,
    NEGATION,
    ORDER4_SYMMETRY,
    ORDER6_SYMMETRY,
    action_on_square_roots,
    antiholomorphic_in_sheared_frame,
    cross_ratio,
    from_sheared_frame,
    gamma_action_on_sigma,
    search_generators,
    verify_presentation,
)
from .torsion_covers import all_characters, check_2divisible, classify_characters, kernel_lattice

Row = Tuple[str, object]

# The command table, which the parser and the help text both read: each
# command's description and the sections it runs.  The commands that run the
# search section are the ones that take --bound.
_COMMANDS = {
    "tables": ("intersection tables and hermitian forms", ("tables",)),
    "characters": ("order-2 characters, kernels and divisibility",
                   ("characters",)),
    "orbits": ("square roots, group closures and orbits", ("orbits",)),
    "invariants": ("numeric invariants of the covers", ("invariants",)),
    "search-aut": ("bounded generator search and relations", ("search",)),
    "verify-all": ("every section in order",
                   ("tables", "characters", "orbits", "invariants", "search")),
}

_BOUND_COMMANDS = tuple(name for name, (_, sections) in _COMMANDS.items()
                        if "search" in sections)
_DEFAULT_BOUND = 3

# option -> (the name of its value, None for a flag; description)
_OPTIONS = {
    "--json": (None, "emit the report as JSON"),
    "--perturb": ("CHECK_ID", "corrupt one computed value (test hook)"),
    "--bound": ("N", "height bound for the generator search, "
                f"{' and '.join(_BOUND_COMMANDS)} only "
                f"(default {_DEFAULT_BOUND})"),
}


def _as_int(x) -> int:
    x = _rational(x)  # a float, a str or a bool raises TypeError
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _over(den: int, pairs: list):
    """The row value of Z[zeta] pairs over den: the pairs as they are when
    den is 1, else {"den": den, "pairs": pairs}, which equals no expected
    list, so that a non-integral value fails its row and the rest of the
    report still prints."""
    return pairs if den == 1 else {"den": den, "pairs": pairs}


def _eis(x: EisRat):
    den = lcm(x.a.denominator, x.b.denominator)
    return _over(den, [int(q * den) for q in (x.a, x.b)])


def _eis_mat(m: EisMat):
    den, pairs = m
    return _over(den, [[list(p) for p in row] for row in pairs])


def _int_rows(rows) -> list:
    return [[_as_int(x) for x in row] for row in rows]


def _tables_rows() -> List[Row]:
    rows: List[Row] = []
    product = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE)
    rows.append(("tables.branch_alt_product",
                 [_as_int(x) for x in product.upper_triangle()]))
    cover = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    rows.append(("tables.branch_alt_cover",
                 [_as_int(x) for x in cover.upper_triangle()]))
    forms = [bundle.form for bundle in catalog.CURVE_BUNDLES]
    for k, form in enumerate(forms, start=1):
        rows.append((f"tables.curve_form_{k}", _eis_mat(form.matrix)))
    total = forms[0]
    for form in forms[1:]:
        total = total + form
    rows.append(("tables.branch_form_sum", _eis_mat(total.matrix)))
    return rows


def _characters_rows() -> List[Row]:
    rows: List[Row] = []
    outcome = classify_characters()
    chars = all_characters()
    rows.append(("characters.selected", list(outcome.selected)))
    rows.append(("characters.divisible_flags",
                 [check_2divisible(chars[k]) for k in range(1, 16)]))
    for k in outcome.selected:
        # kernel_lattice's basis is already the normal form; its product
        # coordinates are the columns
        normal = zip(*(_lattice_coordinates(catalog.PRODUCT_LATTICE, v)
                       for v in kernel_lattice(chars[k]).vectors))
        rows.append((f"characters.kernel_hnf_{k}", _int_rows(normal)))
    # Im h on the mixed cover generators l1 + u2 and l2 + u2
    cover = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    rows.append(("characters.witness_parity", _as_int(cover.matrix[1][2])))
    rows.append(("characters.curve_torsion_counts",
                 [len(points) for points in outcome.curve_incidence]))
    covered = set().union(*outcome.curve_incidence)
    rows.append(("characters.covered_torsion", len(covered)))
    rows.append(("characters.leftover_torsion", outcome.leftover_count))
    return rows


def _orbits_rows() -> List[Row]:
    rows: List[Row] = []
    roots = square_roots(catalog.BRANCH_COVER)
    rows.append(("orbits.root_count", len(roots)))
    rows.append(("orbits.product_root_count",
                 len(square_roots(catalog.BRANCH_PRODUCT))))
    p_order4 = action_on_square_roots(ORDER4_SYMMETRY, roots)
    p_order6 = action_on_square_roots(ORDER6_SYMMETRY, roots)
    p_negation = action_on_square_roots(NEGATION, roots)
    p_translation = action_on_square_roots(BASE_POINT_SWAP, roots)
    p_reflection = action_on_square_roots(ANTIHOLO_REFLECTION, roots)
    rows.append(("orbits.perm_order4", str(p_order4)))
    rows.append(("orbits.perm_order6", str(p_order6)))
    rows.append(("orbits.perm_negation", str(p_negation)))
    rows.append(("orbits.perm_translation", str(p_translation)))
    rows.append(("orbits.perm_reflection", str(p_reflection)))
    holo = PermGroup([p_order4, p_order6])
    full = PermGroup([p_order4, p_order6, p_reflection])
    # each generator's linear part modulo 1 + zeta, in GF(3)
    matrices = [_gf3_residues(g.linear) for g in
                (ORDER4_SYMMETRY, ORDER6_SYMMETRY, ANTIHOLO_REFLECTION)]
    rows.append(("orbits.holo_order", holo.order))
    rows.append(("orbits.holo_group", holo.matrix_group_name(matrices[:2])))
    holo_orbits, full_orbits = holo.orbits(), full.orbits()
    rows.append(("orbits.holo_partition", [list(o) for o in holo_orbits]))
    rows.append(("orbits.full_order", full.order))
    rows.append(("orbits.full_group", full.matrix_group_name(matrices)))
    rows.append(("orbits.full_partition", [list(o) for o in full_orbits]))
    conclusion = (f"{len(holo_orbits)} surfaces up to isomorphism, "
                  f"{len(full_orbits)} up to conjugation")
    rows.append(("orbits.conclusion", conclusion))
    return rows


def _double_cover(square: int, quadruple_points: int) -> list:
    """Invariants of the double cover branched along a curve 2L of
    self-intersection square whose only singularities are the given number
    of ordinary quadruple points; L^2 = square / 4 must be an integer."""
    l2, rest = divmod(square, 4)
    if rest:
        raise NonIntegral(f"branch self-intersection {square} is not 4 L^2")
    return list(resolution_invariants(
        SingularityProfile(l2, [2] * quadruple_points)))


def _branch_description(profile: SingularityProfile) -> str:
    """The singular points of a branch profile in words.  A profile with
    K^2 = 8 has one point of multiplicity 6 or two of multiplicity 4, so
    its points share one multiplicity and number at most two."""
    (m,) = set(profile.multiplicities)
    count = len(profile.multiplicities)
    points = "point" if count == 1 else "points"
    return (f"{('one', 'two')[count - 1]} ordinary singular {points} "
            f"of multiplicity {2 * m}")


def _invariants_rows() -> List[Row]:
    rows: List[Row] = []
    # case I is the sextuple point, case II the two quadruple points
    cases = enumerate_branch_profiles()
    rows.append(("invariants.resolution_sextuple",
                 list(resolution_invariants(cases[0]))))
    rows.append(("invariants.resolution_quadruples",
                 list(resolution_invariants(cases[1]))))
    rows.append(("invariants.smooth_baseline",
                 list(resolution_invariants(SingularityProfile(2)))))
    rows.append(("invariants.branch_labels",
                 [("I", "II")[k] for k in range(len(cases))]))
    # the branch curve is D = 2L
    rows.append(("invariants.branch_degrees", [4 * c.l2 for c in cases]))
    rows.append(("invariants.branch_descriptions",
                 [_branch_description(c) for c in cases]))
    square = intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                                 catalog.COVER_LATTICE)
    rows.append(("invariants.cover_branch_square", square))
    chi, k2 = _double_cover(square, 2)
    rows.append(("invariants.double_cover", [chi, k2]))
    rows.append(("invariants.smooth_double_cover", _double_cover(8, 0)))
    rows.append(("invariants.product_quotient",
                 list(product_quotient_invariants(3, 4))))
    rows.append(("invariants.ball_quotient", ball_quotient_check(k2, chi)))
    return rows


def _search_rows(bound: int) -> List[Row]:
    rows: List[Row] = []
    found = search_generators(bound)
    rows.append(("search.candidate_count", len(found)))
    # sorted as EisMats, which order as their rendered lists when every
    # denominator is 1, and stay comparable when one is not
    rows.append(("search.tilted_matrices",
                 [_eis_mat(m) for m in sorted(g.linear for g in found)]))
    conjugates = sorted(from_sheared_frame(g.linear) for g in found)
    rows.append(("search.ambient_conjugates",
                 [_eis_mat(m) for m in conjugates]))
    rows.append(("search.presentation",
                 verify_presentation(ORDER4_SYMMETRY, ORDER6_SYMMETRY)))
    reflection = antiholomorphic_in_sheared_frame(catalog.SIGMA_LINEAR)
    rows.append(("search.reflection_in_sheared_frame", _eis_mat(reflection)))
    rows.append(("search.cross_ratio",
                 _eis(cross_ratio(*catalog.CURVE_LINES))))
    rotation = gamma_action_on_sigma()
    rows.append(("search.rotation_order", rotation.order()))
    rows.append(("search.rotation_cycle", str(rotation)))
    return rows


def _build_rows(sections: Sequence[str], bound: int) -> List[Row]:
    builders = {
        "tables": _tables_rows,
        "characters": _characters_rows,
        "orbits": _orbits_rows,
        "invariants": _invariants_rows,
        "search": lambda: _search_rows(bound),
    }
    rows: List[Row] = []
    for section in sections:
        rows.extend(builders[section]())
    return rows


def _load_expected(sections: Sequence[str]) -> List[dict]:
    """The expected-value records of the given sections, in file order."""
    path = os.path.join(os.path.dirname(__file__), "expected_values.json")
    with open(path, encoding="utf-8") as f:
        checks = json.load(f)["checks"]
    return [rec for rec in checks
            if rec["check_id"].split(".", 1)[0] in sections]


def _mangle(value):
    """Corrupt a computed value in a type-preserving way (--perturb hook)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list):
        return [_mangle(value[0]), *value[1:]] if value else [0]
    if isinstance(value, dict):  # pairs over a denominator, from _over
        return {**value, "den": value["den"] + 1}
    raise TypeError(f"cannot perturb a value of type {type(value).__name__}")


def _evaluate(records: List[dict], computed: List[Row],
              perturb: str | None) -> List[dict]:
    values = dict(computed)
    if sorted(values) != sorted(rec["check_id"] for rec in records):
        raise RuntimeError("expected-values file is out of sync with the pipeline")
    report = []
    for rec in records:
        # every row is built as a JSON value (lists, ints, bools and strs),
        # so it compares with the expected value as it is
        value = values[rec["check_id"]]
        if rec["check_id"] == perturb:
            value = _mangle(value)
        status = "pass" if value == rec["expected"] else "fail"
        report.append({
            "check_id": rec["check_id"],
            "anchor": rec["anchor"],
            "expected": rec["expected"],
            "computed": value,
            "status": status,
        })
    return report


def _render_text(report: List[dict]) -> str:
    width = max(len(row["check_id"]) for row in report)
    lines = []
    for row in report:
        lines.append(f"{row['status'].upper():<4}  "
                     f"{row['check_id']:<{width}}  {row['anchor']}")
        if row["status"] == "fail":
            lines.append(f"      expected: {json.dumps(row['expected'])}")
            lines.append(f"      computed: {json.dumps(row['computed'])}")
    passed = sum(row["status"] == "pass" for row in report)
    lines.append(f"{len(report)} checks: {passed} passed, "
                 f"{len(report) - passed} failed")
    return "\n".join(lines) + "\n"


def _render_json(report: List[dict]) -> str:
    return json.dumps({"checks": report}, indent=2) + "\n"


_HELP = ("-h", "--help")
_USAGE = ("usage: hexcover [-h] COMMAND "
          + " ".join(f"[{name} {metavar}]" if metavar else f"[{name}]"
                     for name, (metavar, _) in _OPTIONS.items()))


def _help_text() -> str:
    rows = [("commands:", [(name, text)
                           for name, (text, _) in _COMMANDS.items()]),
            ("options:", [(", ".join(_HELP), "show this help and exit")]
             + [(f"{name} {metavar}" if metavar else name, text)
                for name, (metavar, text) in _OPTIONS.items()])]
    width = 2 + max(len(left) for _, pairs in rows for left, _ in pairs)
    lines = [_USAGE, "", "Recompute the double-cover classification and "
             "diff it against\nthe shipped expected values."]
    for heading, pairs in rows:
        lines += ["", heading]
        lines += [f"  {left:<{width}}{text}" for left, text in pairs]
    return "\n".join(lines) + "\n"


def _fail(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}\nhexcover: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: Sequence[str]) -> Tuple[str, bool, str | None, int]:
    """(command, json, perturb, bound) of the argument list argv, read once
    from left to right.  An option is -h, or a token longer than '--' that
    starts with it, and names the one option it is a prefix of; --bound
    follows only a command that runs the search.  The first other token is
    the command.  Help exits at once; a flag takes no value; a valued option
    takes the text after '=', or else the next token as it stands, and the
    last repeat wins.  Any other token, an option before the command and a
    missing command fail.
    """
    command, tokens = None, iter(argv)
    values = {"--json": False, "--perturb": None, "--bound": _DEFAULT_BOUND}
    for token in tokens:
        if token != "-h" and not (token.startswith("--") and len(token) > 2):
            if command is not None:
                _fail(f"unrecognized argument {token!r}")
            if token not in _COMMANDS:
                _fail(f"invalid command {token!r} (choose from "
                      + ", ".join(_COMMANDS) + ")")
            command = token
            continue
        head, eq, value = ("--help" if token == "-h" else token).partition("=")
        names = [name for name in ("--help", *_OPTIONS)
                 if name != "--bound" or command in _BOUND_COMMANDS]
        matches = [name for name in names if name.startswith(head)]
        if len(matches) != 1:
            _fail(f"unrecognized option {token!r}")
        name = matches[0]
        metavar = _OPTIONS[name][0] if name in _OPTIONS else None
        if eq and metavar is None:
            _fail(f"argument {name} takes no value")
        if name == "--help":
            sys.stdout.write(_help_text())
            raise SystemExit(0)
        if command is None:
            _fail(f"argument {name} must follow the command")
        if metavar is None:
            values[name] = True
            continue
        value = value if eq else next(tokens, None)
        if value is None:
            _fail(f"argument {name}: expected one argument")
        if name == "--bound":
            try:
                value = int(value)
            except ValueError:
                _fail(f"argument --bound: invalid int value: {value!r}")
        values[name] = value
    if command is None:
        _fail("the following arguments are required: COMMAND")
    if values["--bound"] < 2:
        _fail("--bound must be at least 2")
    return command, values["--json"], values["--perturb"], values["--bound"]


def main(argv: Sequence[str] | None = None) -> int:
    command, as_json, perturb, bound = _parse(
        sys.argv[1:] if argv is None else argv)
    sections = _COMMANDS[command][1]
    records = _load_expected(sections)
    if perturb is not None and perturb not in {
            rec["check_id"] for rec in records}:
        _fail(f"unknown check id {perturb!r}")
    computed = _build_rows(sections, bound)
    report = _evaluate(records, computed, perturb)
    text = _render_json(report) if as_json else _render_text(report)
    sys.stdout.write(text)
    return 0 if all(row["status"] == "pass" for row in report) else 1


if __name__ == "__main__":
    sys.exit(main())
