"""Benchmark of the hexcover verifier.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    verify-all      ``hexcover verify-all --json`` at the default bound
    orbits-rebased  square roots and their orbits on a rebased cover lattice
    search-b3       ``hexcover search-aut --bound 3 --json``

Every iteration runs in a fresh interpreter (``perfbench/job.py``), one at a
time.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the tracer self-test and then pairs of untraced and
traced iterations, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit status is 0 when every check passed, 1 when one
failed, and 2 when the package to measure is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hexcover")
EXPECTED = os.path.join(PACKAGE, "expected_values.json")
OUT = os.path.join(HERE, "out")
PYCACHE = os.path.join(OUT, "pycache")
JOB = os.path.join(HERE, "job.py")
SELFTEST = os.path.join(HERE, "selftest.py")

# CLI sections each workload's report covers; None for the library workload.
WORKLOADS = {
    "verify-all": ("tables", "characters", "orbits", "invariants", "search"),
    "orbits-rebased": None,
    "search-b3": ("search",),
}
REBASE_MOVES = 4
RUN_LIMIT_S = 170.0
# Seconds one step of calibrate.py's reference work takes on the reference
# host, an unloaded core of a 2-core x86-64 host with CPython 3.11; reported
# times are scaled to it (see README, Noise).
REFERENCE_STEP_S = 6.5e-5
ORBIT_PERMS = ("order4", "order6", "negation", "translation", "reflection")

PER_LAYER_UNITS = {
    "appell_humbert.self_s": "s",
    "appell_humbert.im_on_lattice_calls": "count",
    "appell_humbert.bundle_validations": "count",
    "appell_humbert.pullback_calls": "count",
    "appell_humbert.im_per_pullback": "ratio",
    "eisenstein.self_s": "s",
    "eisenstein.mul_calls": "count",
    "eisenstein.new_calls": "count",
    "lattice.self_s": "s",
    "lattice.coords_in_calls": "count",
    "lattice.hnf_calls": "count",
    "symmetry.search_s": "s",
    "symmetry.search_unit_candidates": "count",
    "symmetry.search_yield": "ratio",
    "symmetry.action_s": "s",
    "symmetry.rational_rep_calls": "count",
    "permgroup.self_s": "s",
    "permgroup.perm_mul_calls": "count",
    "torsion_covers.self_s": "s",
    "surface_invariants.self_s": "s",
    "catalog.build_s": "s",
    "cli.self_s": "s",
    "cli.tables_s": "s",
    "cli.characters_s": "s",
    "cli.orbits_s": "s",
    "cli.invariants_s": "s",
    "cli.search_s": "s",
    "trace_overhead": "ratio",
}


class Child:
    """Starts one interpreter at a time and always reaps it."""

    def __init__(self, run_start: float) -> None:
        self.run_start = run_start
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        PYTHONPYCACHEPREFIX=PYCACHE, PYTHONHASHSEED="0")

    def run(self, args):
        """(exit code, stdout, stderr, wall seconds); code None on timeout."""
        limit = RUN_LIMIT_S - (time.perf_counter() - self.run_start)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(limit, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", "timed out", time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err, time.perf_counter() - start

    def json_line(self, args):
        """Last stdout line of a child as JSON, or None if it failed."""
        code, out, err, wall = self.run(args)
        lines = out.strip().splitlines()
        if code == 0 and lines:
            try:
                return json.loads(lines[-1]), wall
            except ValueError:
                pass
        sys.stderr.write(f"child {os.path.basename(args[0])} failed "
                         f"({code}): {err.strip()[-2000:]}\n")
        return None, wall


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(),
            "machine": platform.machine()}


def _rebasing(workload: str, seed: int, i: int):
    """Unimodular 4x4 matrix for iteration i: REBASE_MOVES column moves.

    Only ``orbits-rebased`` takes a generated input; the others get None.
    """
    if workload != "orbits-rebased":
        return None
    rng = random.Random(f"orbits-rebased:{seed}:{i}")
    u = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(REBASE_MOVES):
        j, k = rng.sample(range(4), 2)
        sign = rng.choice((-1, 1))
        for row in u:
            row[j] += sign * row[k]
    return u


def _cycle_type(text: str):
    return sorted(len(c.split()) for c in re.findall(r"\(([^()]*)\)", text)
                  if c.split())


class Checker:
    """Counts checks against expected_values.json for one workload."""

    def __init__(self, workload: str) -> None:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = {r["check_id"]: r["expected"]
                        for r in json.load(fh)["checks"]}
        sections = WORKLOADS[workload]
        if sections is None:
            self.ids = None
            self.want = {
                "root_count": expected["orbits.root_count"],
                "holo_order": expected["orbits.holo_order"],
                "full_order": expected["orbits.full_order"],
                "holo_orbit_sizes": sorted(
                    len(o) for o in expected["orbits.holo_partition"]),
                "full_orbit_sizes": sorted(
                    len(o) for o in expected["orbits.full_partition"]),
                "cycle_types": {p: _cycle_type(expected[f"orbits.perm_{p}"])
                                for p in ORBIT_PERMS},
            }
        else:
            self.ids = [c for c in expected if c.split(".", 1)[0] in sections]
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        outcome = result["outcome"] if result else None
        if self.ids is not None:
            self.attempted += len(self.ids)
            statuses = outcome["statuses"] if outcome else {}
            bad = sum(statuses.get(c) != "pass" for c in self.ids)
            if bad == 0 and (not outcome or outcome["exit"] != 0):
                bad = 1
            self.failed += bad
            return
        names = [k for k in self.want if k != "cycle_types"]
        self.attempted += len(names) + len(ORBIT_PERMS)
        if not outcome:
            self.failed += len(names) + len(ORBIT_PERMS)
            return
        self.failed += sum(outcome[k] != self.want[k] for k in names)
        self.failed += sum(outcome["cycle_types"].get(p)
                           != self.want["cycle_types"][p]
                           for p in ORBIT_PERMS)


def _tail(samples):
    """Highest percentile with at least ten samples beyond it.

    With n sorted samples that is the (n-10)-th; below eleven samples no
    percentile qualifies and the minimum is reported, with n-1 beyond it.
    """
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _spec(workload, trace, rebase=None, spans=None) -> str:
    return json.dumps({"workload": workload, "trace": trace,
                       "rebase": rebase, "spans": spans})


def _loop(deadline, step):
    """Call step(i) until the next call would likely overrun the deadline."""
    walls = []
    i = 0
    while i == 0 or time.perf_counter() + statistics.median(walls) <= deadline:
        start = time.perf_counter()
        if not step(i):
            break
        walls.append(time.perf_counter() - start)
        i += 1


def _run_untraced(args, child, checker, record):
    samples = record["iterations"]
    deadline = time.perf_counter() + args.seconds

    def step(i):
        rebase = _rebasing(args.workload, args.seed, i)
        result, wall = child.json_line([JOB, _spec(args.workload, False,
                                                   rebase)])
        checker.check(result)
        samples.append({"i": i, "rebase": rebase, "wall_s": wall,
                        **_sample_fields(result)})
        return result is not None

    _loop(deadline, step)
    done = [s for s in samples if "verdict_s" in s]
    if not done:
        return {}
    verdicts = [s["verdict_ref_s"] for s in done]
    tail, pct, beyond = _tail(verdicts)
    record["tail"] = {"percentile": pct, "beyond": beyond,
                      "samples": len(verdicts)}
    # Printed and stored, but not bounded: the raw seconds move with the
    # host's load by more than any bound BENCHMARK.json may set.
    record["unbounded"] = {
        "verdict_s_raw_p50": (statistics.median(s["verdict_s"]
                                                for s in done), "s"),
        "setup_s_raw_p50": (statistics.median(s["setup_s"] for s in done),
                            "s"),
    }
    return {
        "setup_s": (statistics.median(s["setup_ref_s"] for s in done), "s"),
        "verdict_s_p50": (statistics.median(verdicts), "s"),
        "verdict_s_tail": (tail, "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in done),
                        "MB"),
    }


def _sample_fields(result):
    """One iteration's raw times, and its times at the reference speed.

    Set-up is scaled by the reference work timed right after it, the
    verdict by the mean of the samples taken while it ran.
    """
    if not result:
        return {"failed": True}
    return {"verdict_s": result["verdict_s"],
            "setup_s": result["setup_s"],
            "step_s_setup": result["step_s_setup"],
            "step_s_verdict": result["step_s_verdict"],
            "speed_samples": result["speed_samples"],
            "verdict_ref_s": result["verdict_s"] * REFERENCE_STEP_S
            / result["step_s_verdict"],
            "setup_ref_s": result["setup_s"] * REFERENCE_STEP_S
            / result["step_s_setup"],
            "catalog_build_s": result["catalog_build_s"],
            "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6}


def _run_traced(args, child, checker, record):
    selftest, _wall = child.json_line([SELFTEST])
    record["selftest"] = selftest
    checker.attempted += 1
    if not selftest or not selftest["ok"]:
        checker.failed += 1
    pairs = record["iterations"]
    # One span file per workload, overwritten by each run, bounds disk use.
    spans = os.path.join(OUT, f"spans-{args.workload}.tsv")
    deadline = time.perf_counter() + args.seconds

    def step(i):
        rebase = _rebasing(args.workload, args.seed, i)
        plain, _ = child.json_line([JOB, _spec(args.workload, False, rebase)])
        traced, _ = child.json_line([JOB, _spec(
            args.workload, True, rebase, spans if i == 0 else None)])
        checker.check(plain)
        checker.check(traced)
        pairs.append({"i": i, "rebase": rebase,
                      "untraced": _sample_fields(plain),
                      "traced": _sample_fields(traced),
                      "trace": traced and traced["trace"],
                      # candidates the search found, as the report prints
                      # them; the library workload runs no search.
                      "found": plain["outcome"].get("found", 0) if plain
                      else 0})
        return plain is not None and traced is not None

    _loop(deadline, step)
    good = [p for p in pairs if p["trace"] and "verdict_s" in p["untraced"]]
    if not good:
        return {}
    record["spans_file"] = os.path.relpath(spans, ROOT)
    return _layer_metrics(good)


def _layer_metrics(pairs):
    first = pairs[0]["trace"]
    calls = first["calls"]
    in_search = first["inside"]["symmetry.search_generators"]
    in_action = first["inside"]["symmetry.action_on_square_roots"]

    def median_of(fn):
        return statistics.median(fn(p["trace"]) for p in pairs)

    def layer_self(layer):
        return median_of(lambda t: t["layer_self_s"].get(layer, 0.0))

    def inclusive(name):
        return median_of(lambda t: t["inclusive_s"].get(name, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    pullbacks = ("appell_humbert.pullback_hom",
                 "appell_humbert.pullback_antihom")
    candidates = in_search.get("eisenstein.mat", 0)
    values = {
        "appell_humbert.self_s": layer_self("appell_humbert"),
        "appell_humbert.im_on_lattice_calls":
            calls.get("appell_humbert.im_on_lattice", 0),
        "appell_humbert.bundle_validations":
            calls.get("appell_humbert.LineBundleClass.__init__", 0),
        "appell_humbert.pullback_calls": sum(calls.get(n, 0)
                                             for n in pullbacks),
        "appell_humbert.im_per_pullback": ratio(
            in_action.get("appell_humbert.im_on_lattice", 0),
            sum(in_action.get(n, 0) for n in pullbacks)),
        "eisenstein.self_s": layer_self("eisenstein"),
        "eisenstein.mul_calls": calls.get("eisenstein.EisRat.__mul__", 0)
        + calls.get("eisenstein.EisRat.__rmul__", 0),
        "eisenstein.new_calls": calls.get("eisenstein.EisRat.__init__", 0),
        "lattice.self_s": layer_self("lattice"),
        "lattice.coords_in_calls": calls.get("lattice.coords_in", 0),
        "lattice.hnf_calls": calls.get("lattice.hnf", 0),
        "symmetry.search_s": inclusive("symmetry.search_generators"),
        "symmetry.search_unit_candidates": candidates,
        "symmetry.search_yield": ratio(pairs[0]["found"], candidates),
        "symmetry.action_s": inclusive("symmetry.action_on_square_roots"),
        "symmetry.rational_rep_calls": calls.get("symmetry.rational_rep", 0),
        "permgroup.self_s": layer_self("permgroup"),
        "permgroup.perm_mul_calls":
            calls.get("permgroup.Permutation.__mul__", 0),
        "torsion_covers.self_s": layer_self("torsion_covers"),
        "surface_invariants.self_s": layer_self("surface_invariants"),
        "catalog.build_s": statistics.median(
            p["untraced"]["catalog_build_s"] for p in pairs),
        "cli.self_s": layer_self("cli"),
        "trace_overhead": statistics.median(
            p["traced"]["verdict_ref_s"] for p in pairs) / statistics.median(
            p["untraced"]["verdict_ref_s"] for p in pairs),
    }
    for section in ("tables", "characters", "orbits", "invariants", "search"):
        values[f"cli.{section}_s"] = inclusive(f"cli.{section}")
    return {name: (values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def _compile(child: Child) -> None:
    """Compile the package and the benchmark, then import the package once.

    The bytecode cache lives under PYCACHE for the standard library too, so
    the untimed import also fills it for the modules the package imports.
    """
    for args in (["-m", "compileall", "-q", "-l", PACKAGE, HERE],
                 ["-c", "import hexcover.cli"]):
        code, _out, err, _wall = child.run(args)
        if code != 0:
            raise RuntimeError(f"{' '.join(args)} failed: {err}")


def _report(args, record, metrics, checker) -> None:
    env = record["environment"]
    print(f"hexcover benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit']}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "verdict_s_tail":
            tail = record["tail"]
            note = (f"p{tail['percentile']:.1f}, {tail['beyond']} of "
                    f"{tail['samples']} samples beyond")
        elif "tail" in record:
            note = f"n={record['tail']['samples']}"
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    for name, (value, unit) in record.get("unbounded", {}).items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} not bounded")
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'checks_failed_ratio':<34} {ratio:>14.6g} {'ratio':<6} "
          f"{checker.failed} of {checker.attempted} checks failed")
    print(f"result: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")) \
            or not os.path.isfile(EXPECTED):
        sys.stderr.write(f"no hexcover package under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2

    run_start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    child = Child(run_start)
    _compile(child)
    checker = Checker(args.workload)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(),
              "path": os.path.relpath(path, ROOT),
              "iterations": []}
    runner = _run_traced if args.trace else _run_untraced
    metrics = runner(args, child, checker, record)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = checker.attempted, checker.failed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _report(args, record, metrics, checker)
    correct = bool(metrics) and checker.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(checker.attempted, 1),
                      "failed": checker.failed if correct else max(
                          checker.failed, 1),
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
