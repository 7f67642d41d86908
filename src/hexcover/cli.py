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

import argparse
import json
import sys
from importlib import resources
from typing import List, Sequence, Tuple

from . import catalog
from .appell_humbert import im_on_lattice, intersection_number, square_roots
from .eisenstein import EisRat, inv2, mat_conj, mat_mul
from .lattice import AmbientVector, hnf
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
    cross_ratio,
    gamma_action_on_sigma,
    search_generators,
    verify_presentation,
)
from .torsion_covers import all_characters, check_2divisible, classify_characters, kernel_lattice

Row = Tuple[str, object]

_COMMAND_SECTIONS = {
    "tables": ("tables",),
    "characters": ("characters",),
    "orbits": ("orbits",),
    "invariants": ("invariants",),
    "search-aut": ("search",),
    "verify-all": ("tables", "characters", "orbits", "invariants", "search"),
}


def _as_int(x) -> int:
    if getattr(x, "denominator", 1) != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _eis(x: EisRat) -> list:
    return [_as_int(x.a), _as_int(x.b)]


def _eis_mat(m) -> list:
    return [[_eis(x) for x in row] for row in m]


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
        normal = hnf(kernel_lattice(chars[k]), catalog.PRODUCT_LATTICE)
        rows.append((f"characters.kernel_hnf_{k}", _int_rows(normal)))
    witness = catalog.SUM_FORM.im_value(AmbientVector((0, 1, 1, 0)),
                                        AmbientVector((0, 0, 1, 1)))
    rows.append(("characters.witness_parity", _as_int(witness)))
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
    rows.append(("orbits.holo_order", holo.order))
    rows.append(("orbits.holo_group", holo.fingerprint().name))
    rows.append(("orbits.holo_partition", [list(o) for o in holo.orbits()]))
    rows.append(("orbits.full_order", full.order))
    rows.append(("orbits.full_group", full.fingerprint().name))
    rows.append(("orbits.full_partition", [list(o) for o in full.orbits()]))
    conclusion = (f"{len(holo.orbits())} surfaces up to isomorphism, "
                  f"{len(full.orbits())} up to conjugation")
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


def _invariants_rows() -> List[Row]:
    rows: List[Row] = []
    rows.append(("invariants.resolution_sextuple",
                 list(resolution_invariants(SingularityProfile(8, [3])))))
    rows.append(("invariants.resolution_quadruples",
                 list(resolution_invariants(SingularityProfile(6, [2, 2])))))
    rows.append(("invariants.smooth_baseline",
                 list(resolution_invariants(SingularityProfile(2)))))
    cases = enumerate_branch_profiles()
    rows.append(("invariants.branch_labels", [c.label for c in cases]))
    rows.append(("invariants.branch_degrees", [c.d2 for c in cases]))
    rows.append(("invariants.branch_descriptions",
                 [c.singularities for c in cases]))
    square = intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                                 catalog.COVER_LATTICE)
    rows.append(("invariants.cover_branch_square", square))
    rows.append(("invariants.double_cover", _double_cover(square, 2)))
    rows.append(("invariants.smooth_double_cover", _double_cover(8, 0)))
    rows.append(("invariants.product_quotient",
                 list(product_quotient_invariants(3, 4))))
    rows.append(("invariants.ball_quotient", ball_quotient_check()))
    return rows


def _search_rows(bound: int) -> List[Row]:
    rows: List[Row] = []
    found = search_generators(bound)
    rows.append(("search.candidate_count", len(found)))
    rows.append(("search.tilted_matrices",
                 sorted(_eis_mat(g.linear) for g in found)))
    shear = catalog.FRAME_SHEAR
    shear_inv = inv2(shear)
    conjugates = sorted(_eis_mat(mat_mul(mat_mul(shear, g.linear), shear_inv))
                        for g in found)
    rows.append(("search.ambient_conjugates", conjugates))
    rows.append(("search.presentation",
                 verify_presentation(ORDER4_SYMMETRY, ORDER6_SYMMETRY)))
    reflection = mat_mul(mat_mul(shear_inv, catalog.SIGMA_LINEAR),
                         mat_conj(shear))
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
    text = resources.files(__package__).joinpath(
        "expected_values.json").read_text("utf-8")
    return [rec for rec in json.loads(text)["checks"]
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
    raise TypeError(f"cannot perturb a value of type {type(value).__name__}")


def _evaluate(records: List[dict], computed: List[Row],
              perturb: str | None) -> List[dict]:
    values = dict(computed)
    if sorted(values) != sorted(rec["check_id"] for rec in records):
        raise RuntimeError("expected-values file is out of sync with the pipeline")
    report = []
    for rec in records:
        # normalize tuples and other sequence types through the JSON codec
        value = json.loads(json.dumps(values[rec["check_id"]]))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcover",
        description="Recompute the double-cover classification and diff it "
                    "against the shipped expected values.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "tables": "intersection tables and hermitian forms",
        "characters": "order-2 characters, kernels and divisibility",
        "orbits": "square roots, group closures and orbits",
        "invariants": "numeric invariants of the covers",
        "search-aut": "bounded generator search and relations",
        "verify-all": "every section in order",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
        cmd.add_argument("--perturb", metavar="CHECK_ID", default=None,
                         help="corrupt one computed value (test hook)")
        if name in ("search-aut", "verify-all"):
            cmd.add_argument("--bound", type=int, default=3,
                             help="height bound for the generator search "
                                  "(default 3)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    bound = getattr(args, "bound", 3)
    if bound < 2:
        parser.error("--bound must be at least 2")
    sections = _COMMAND_SECTIONS[args.command]
    records = _load_expected(sections)
    if args.perturb is not None and args.perturb not in {
            rec["check_id"] for rec in records}:
        parser.error(f"unknown check id {args.perturb!r}")
    computed = _build_rows(sections, bound)
    report = _evaluate(records, computed, args.perturb)
    text = _render_json(report) if args.json else _render_text(report)
    sys.stdout.write(text)
    return 0 if all(row["status"] == "pass" for row in report) else 1


if __name__ == "__main__":
    sys.exit(main())
