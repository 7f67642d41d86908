"""Run the package's canonical paths in one fresh process and report which
of fractions, decimal and numbers they imported.

Usage: ``PYTHONPATH=src python tests/fraction_free_run.py`` from the root of
the repository, under any Python the package supports.  Prints one JSON
line; tests/test_no_fractions.py runs it and checks that line.

The paths are ``verify-all --json``, ``search-aut --bound 3 --json``, one
``--perturb`` failure path, and square_roots with the five
action_on_square_roots calls on rebased cover lattices, so that the
catalog-keyed caches miss.  The script imports only modules that load none
of the three, which the ``before`` entry of the report confirms.
"""

import contextlib
import io
import json
import random
import sys

WATCHED = ("fractions", "decimal", "numbers")
REBASINGS = 20
SYMMETRIES = ("ORDER4_SYMMETRY", "ORDER6_SYMMETRY", "NEGATION",
              "BASE_POINT_SWAP", "ANTIHOLO_REFLECTION")


def _loaded():
    return [name for name in WATCHED if name in sys.modules]


def _cli(argv):
    """(exit status, check_id -> status) of one CLI run."""
    from hexcover import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    checks = json.loads(out.getvalue())["checks"]
    return code, {row["check_id"]: row["status"] for row in checks}


def _rebasing(rng):
    """A unimodular 4x4 integer matrix: four random column moves."""
    u = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(4):
        j, k = rng.sample(range(4), 2)
        sign = rng.choice((-1, 1))
        for row in u:
            row[j] += sign * row[k]
    return u


def _rebased_orbits(rebase):
    """The square roots of the branch bundle pulled back to the cover
    lattice with basis vector j replaced by sum_k rebase[k][j] b_k, and the
    orbit sizes of the holomorphic and the full symmetry group on them."""
    from hexcover import catalog, symmetry
    from hexcover.appell_humbert import pullback_hom, square_roots
    from hexcover.eisenstein import mat_identity
    from hexcover.lattice import AmbientVector, LatticeBasis
    from hexcover.permgroup import PermGroup

    old = catalog.COVER_LATTICE.vectors
    vectors = []
    for j in range(4):
        v = AmbientVector((0, 0, 0, 0))
        for k, b in enumerate(old):
            v = v + b * rebase[k][j]
        vectors.append(v)
    lattice = LatticeBasis(vectors)
    branch = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2), lattice)
    roots = square_roots(branch)
    order4, order6, _, _, reflection = [
        symmetry.action_on_square_roots(getattr(symmetry, name), roots)
        for name in SYMMETRIES]
    # the groups of the orbits section
    holo = PermGroup([order4, order6])
    full = PermGroup([order4, order6, reflection])
    return [len(roots),
            sorted(len(o) for o in holo.orbits()),
            sorted(len(o) for o in full.orbits())]


def main():
    report = {"before": _loaded()}
    report["verify_all"] = _cli(["verify-all", "--json"])
    report["search_b3"] = _cli(["search-aut", "--bound", "3", "--json"])
    report["perturbed"] = _cli(["search-aut", "--bound", "3", "--perturb",
                                "search.cross_ratio", "--json"])
    rng = random.Random("fraction-free")
    report["rebased"] = [_rebased_orbits(_rebasing(rng))
                         for _ in range(REBASINGS)]
    report["after"] = _loaded()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
