"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/job.py SPEC_JSON`` with ``PYTHONPATH=src``, where
SPEC_JSON holds ``workload``, ``trace`` (bool), ``spans`` (a path or null)
and, for ``orbits-rebased``, ``rebase`` (a 4x4 unimodular integer matrix).

The job imports the package (set-up), optionally installs the tracer, runs
the workload, and prints one JSON line with its timings and raw outcome.
Checking the outcome is left to ``run.py``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

CLI_ARGV = {
    "verify-all": ["verify-all", "--json"],
    "search-b3": ["search-aut", "--bound", "3", "--json"],
}

# perm_* check suffix -> name of the symmetry in hexcover.symmetry, in the
# order the orbits section applies them.
SYMMETRIES = {
    "order4": "ORDER4_SYMMETRY",
    "order6": "ORDER6_SYMMETRY",
    "negation": "NEGATION",
    "translation": "BASE_POINT_SWAP",
    "reflection": "ANTIHOLO_REFLECTION",
}


def _run_cli(argv):
    from hexcover import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return buf.getvalue(), code


def _rebased_cover_lattice(rebase):
    """COVER_LATTICE with basis vector j replaced by sum_k rebase[k][j] b_k."""
    from hexcover import catalog
    from hexcover.lattice import AmbientVector, LatticeBasis

    old = catalog.COVER_LATTICE.vectors
    vectors = []
    for j in range(len(old)):
        v = AmbientVector((0, 0, 0, 0))
        for k, b in enumerate(old):
            v = v + b * rebase[k][j]
        vectors.append(v)
    return LatticeBasis(vectors)


def _orbits_rebased(lattice):
    from hexcover import catalog, symmetry
    from hexcover.appell_humbert import pullback_hom, square_roots
    from hexcover.eisenstein import mat_identity
    from hexcover.permgroup import PermGroup

    branch = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2), lattice)
    roots = square_roots(branch)
    perms = {name: symmetry.action_on_square_roots(getattr(symmetry, attr),
                                                   roots)
             for name, attr in SYMMETRIES.items()}
    holo = PermGroup([perms["order4"], perms["order6"]])
    full = PermGroup([perms["order4"], perms["order6"], perms["reflection"]])
    return {
        "root_count": len(roots),
        "holo_order": holo.order,
        "full_order": full.order,
        "holo_orbit_sizes": sorted(len(o) for o in holo.orbits()),
        "full_orbit_sizes": sorted(len(o) for o in full.orbits()),
        "cycle_types": {name: sorted(len(c) for c in p.cycles())
                        for name, p in perms.items()},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    import hexcover.appell_humbert  # noqa: F401  (what catalog imports)
    t_deps = time.perf_counter()
    import hexcover.catalog  # noqa: F401
    t_catalog = time.perf_counter()
    import hexcover.cli  # noqa: F401
    t_setup = time.perf_counter()
    from calibrate import Sampler, calibrate
    step_after_setup = calibrate()

    lattice = None
    if workload == "orbits-rebased":
        lattice = _rebased_cover_lattice(spec["rebase"])
    elif workload not in CLI_ARGV:
        raise SystemExit(f"unknown workload {workload!r}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    if lattice is not None:
        outcome = _orbits_rebased(lattice)
    else:
        stdout, code = _run_cli(CLI_ARGV[workload])
    sampler.stop()
    t1 = time.perf_counter()

    if lattice is None:
        try:
            rows = json.loads(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            rows = []
        outcome = {"exit": code,
                   "statuses": {r["check_id"]: r["status"] for r in rows},
                   "found": next((r["computed"] for r in rows if r["check_id"]
                                  == "search.candidate_count"), 0)}
    result = {
        "setup_s": t_setup - T_START,
        "catalog_build_s": t_catalog - t_deps,
        "verdict_s": t1 - t0 - sampler.busy_s,
        "step_s_setup": step_after_setup,
        "step_s_verdict": (sum(sampler.samples) / len(sampler.samples)
                           if sampler.samples else step_after_setup),
        "speed_samples": len(sampler.samples),
        "outcome": outcome,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"], t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
