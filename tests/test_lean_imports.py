"""A ``verify-all`` run loads no packaging machinery: the CLI reads
``expected_values.json`` next to its own module with ``open``, so no
process that runs it imports importlib.resources, nor the pathlib,
tempfile and zipfile modules that importlib.resources pulls in.

The child runs with ``-S``, so that no ``.pth`` file of site-packages
imports one of them first and the check is not vacuous; ``PYTHONPATH``
still points it at this checkout's ``src`` (``-I`` would drop it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from golden import EXPECTED

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("importlib.resources", "pathlib", "tempfile", "zipfile")

CHILD = f"""
import io, json, sys
watched = {WATCHED!r}
before = [name for name in watched if name in sys.modules]
from hexcover import cli
stdout, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(["verify-all", "--json"])
report, sys.stdout = sys.stdout.getvalue(), stdout
checks = json.loads(report)["checks"]
print(json.dumps({{
    "before": before,
    "after": [name for name in watched if name in sys.modules],
    "code": code,
    "statuses": {{row["check_id"]: row["status"] for row in checks}},
}}))
"""


def test_verify_all_imports_no_packaging_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-S", "-c", CHILD],
                            capture_output=True, text=True, env=env,
                            cwd=ROOT)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["before"] == []
    assert report["after"] == []
    assert report["code"] == 0
    assert report["statuses"] == {k: "pass" for k in EXPECTED}
