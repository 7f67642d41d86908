"""The package's canonical paths build no Fraction: a fresh process that
runs them never imports fractions, nor the decimal and numbers modules
fractions pulls in.

Within the package an exact rational is an int or integers over one
denominator, and fractions is imported only where a Fraction is built, at
the edges.  A stray Fraction on any path the child script runs, or a
module-level ``from fractions import Fraction``, shows up here as a module
in the child's sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from golden import EXPECTED

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "tests" / "fraction_free_run.py"


def _run_child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(CHILD)], capture_output=True,
                            text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_canonical_paths_import_no_fractions():
    report = _run_child()
    # nothing loaded the modules before the package did, so the check is
    # not vacuous, and the package did not load them either
    assert report["before"] == []
    assert report["after"] == []

    code, statuses = report["verify_all"]
    assert code == 0 and statuses == {k: "pass" for k in EXPECTED}
    code, statuses = report["search_b3"]
    assert code == 0 and statuses and set(statuses.values()) == {"pass"}
    assert all(k.startswith("search.") for k in statuses)
    code, statuses = report["perturbed"]
    assert code == 1
    assert {k for k, s in statuses.items() if s != "pass"} == {
        "search.cross_ratio"}

    want = [EXPECTED["orbits.root_count"],
            sorted(map(len, EXPECTED["orbits.holo_partition"])),
            sorted(map(len, EXPECTED["orbits.full_partition"]))]
    assert len(report["rebased"]) == 20
    assert all(orbits == want for orbits in report["rebased"])
