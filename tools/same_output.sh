#!/usr/bin/env bash
# Check that the hexcover CLI output of the checkout is byte-identical to
# that of the commit REF.
#
# Usage: tools/same_output.sh REF
#
# REF's src/ is exported with `git archive` into a temporary directory (no
# worktree is registered, so an interrupted run leaves nothing in .git).
# Each command below runs once from that export and once from the
# checkout's src/; stdout and the exit status of each pair are compared
# with cmp.  stderr is not compared: the usage line and the wording of a
# usage error may change, as they did when the CLI's own parser replaced
# argparse's, so it is only shown for a pair that differs.  Exits 0 when
# every pair is identical, 1 otherwise.
set -euo pipefail

ref=${1:?usage: tools/same_output.sh REF}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref" "$tmp/out"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$ref^{commit}")" src \
    | tar -x -C "$tmp/ref"

commands=(
    "verify-all"
    "verify-all --json"
    # the search section inside verify-all at other bounds
    "verify-all --bound 2 --json"
    "verify-all --bound 4 --json"
    "tables --json"
    "characters"
    "characters --json"
    "orbits --json"
    "invariants"
    "invariants --json"
    # the failure path: one corrupted check, exit status 1
    "verify-all --perturb tables.curve_form_1"
    "verify-all --perturb tables.curve_form_1 --json"
    # the failure path of the group-name row, named from an isomorphism
    "verify-all --perturb orbits.full_group --json"
    # the failure path of a bool row, computed from the cover's invariants
    "invariants --perturb invariants.ball_quotient --json"
    # the failure path of the cross-ratio row, computed on Z[zeta] pairs
    "search-aut --bound 3 --perturb search.cross_ratio --json"
    # the failure paths of a row derived from the branch profiles and of
    # one read off the curves' 2-torsion
    "invariants --perturb invariants.branch_descriptions --json"
    "characters --perturb characters.curve_torsion_counts --json"
    # the failure path of a kernel row, read off kernel_lattice's basis
    "characters --perturb characters.kernel_hnf_2 --json"
    # the failure paths of two rows read off EisRat parts: the search's
    # conjugates back to the standard frame and the sum of the curve forms
    "search-aut --bound 3 --perturb search.ambient_conjugates --json"
    "tables --perturb tables.branch_form_sum --json"
    # the failure path of the sheared-frame reflection, which symmetry
    # computes on Z[zeta] pairs
    "search-aut --perturb search.reflection_in_sheared_frame --json"
    # the failure paths of the rows that lattice maps and the rational rule
    # compute: the bool of verify_presentation, the rotation's permutation
    # from gamma_action_on_sigma and the product-quotient invariants
    "search-aut --perturb search.presentation --json"
    "search-aut --perturb search.rotation_cycle --json"
    "invariants --perturb invariants.product_quotient --json"
    # the failure paths of the two rows that AltFormOnLattice.is_even
    # decides: check_2divisible per character and square_roots' count
    "characters --perturb characters.divisible_flags --json"
    "orbits --perturb orbits.product_root_count --json"
    # the failure paths of rows decided by the group closures: the
    # holomorphic group's name, read off the one pair-group closure, its
    # order, and the full group's orbits
    "orbits --perturb orbits.holo_group --json"
    "orbits --perturb orbits.holo_order --json"
    "orbits --perturb orbits.full_partition --json"
    # the help text, before and after the command
    "--help"
    "tables -h"
    # the other spellings of the options: "=", a unique prefix
    "verify-all --bound=4 --json"
    "search-aut --js --bo 4 --json"
    "tables --perturb=tables.curve_form_1 --json"
    # usage errors: exit status 2 and nothing on stdout
    "search-aut --bound 1"
    "tables --perturb no.such.check"
    "tables --bound 3"
    ""
)
for bound in 2 3 4 5 6 8; do
    commands+=("search-aut --bound $bound --json")
done

differ=0
for command in "${commands[@]}"; do
    name=${command// /_}
    name=${name:-no_command}
    for side in ref new; do
        if [ "$side" = ref ]; then src=$tmp/ref/src; else src=$root/src; fi
        status=0
        # shellcheck disable=SC2086  # the command is split into arguments
        PYTHONPATH=$src python3 -m hexcover $command \
            >"$tmp/out/$name.$side" 2>"$tmp/out/$name.$side.err" || status=$?
        echo "exit $status" >>"$tmp/out/$name.$side"
    done
    if cmp -s "$tmp/out/$name.ref" "$tmp/out/$name.new"; then
        echo "same  hexcover $command"
    else
        echo "DIFF  hexcover $command"
        cmp "$tmp/out/$name.ref" "$tmp/out/$name.new" || true
        cat "$tmp/out/$name.new.err"
        differ=1
    fi
done
if [ "$differ" -ne 0 ]; then
    echo "output differs from $ref"
    exit 1
fi
echo "all ${#commands[@]} outputs byte-identical to $ref"
