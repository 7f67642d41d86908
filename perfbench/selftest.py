"""Self-test of the tracer's wrappers.

Usage: ``PYTHONPATH=src python3 perfbench/selftest.py``.  Exits 0 when every
count matches, 1 otherwise, and prints one JSON line with what it saw.

The package binds functions across modules with ``from .x import f``, so a
wrapper that misses one binding site would silently under-count and report a
low self time.  These exact counts on the canonical ``orbits`` section and on
``search_generators(3)`` turn such a miss into a failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

ORBITS_CALLS = {
    "lattice.coords_in": 346,
    "appell_humbert.im_on_lattice": 272,
    "symmetry.rational_rep": 5,
    "symmetry.pull_back": 80,
}
SEARCH_BOUND = 3
SEARCH_UNIT_CANDIDATES = 4204
SEARCH_FOUND = 4


def main() -> int:
    from hexcover import cli, symmetry
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["orbits", "--json"])
    seen = {name: tracer.count(name) for name in ORBITS_CALLS}
    mismatches = [f"{name}: {seen[name]} != {want}"
                  for name, want in ORBITS_CALLS.items() if seen[name] != want]
    if code != 0:
        mismatches.append(f"orbits exit code {code}")

    tracer.reset()
    found = len(symmetry.search_generators(SEARCH_BOUND))
    candidates = tracer.spans_inside("symmetry.search_generators").get(
        "eisenstein.mat", 0)
    if candidates != SEARCH_UNIT_CANDIDATES:
        mismatches.append(f"search unit candidates: {candidates} != "
                          f"{SEARCH_UNIT_CANDIDATES}")
    if found != SEARCH_FOUND:
        mismatches.append(f"search found: {found} != {SEARCH_FOUND}")

    print(json.dumps({"ok": not mismatches, "mismatches": mismatches,
                      "orbits_calls": seen,
                      "search_unit_candidates": candidates,
                      "search_found": found,
                      "rebound_sites": tracer.rebound}))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
