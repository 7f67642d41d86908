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
# with cmp.  Exits 0 when every pair is identical, 1 otherwise.
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
    "characters --json"
    "orbits --json"
    "invariants --json"
    # the failure path: one corrupted check, exit status 1
    "verify-all --perturb tables.curve_form_1"
    "verify-all --perturb tables.curve_form_1 --json"
)
for bound in 2 3 4 5; do
    commands+=("search-aut --bound $bound --json")
done

differ=0
for command in "${commands[@]}"; do
    name=${command// /_}
    for side in ref new; do
        if [ "$side" = ref ]; then src=$tmp/ref/src; else src=$root/src; fi
        status=0
        # shellcheck disable=SC2086  # the command is split into arguments
        PYTHONPATH=$src python3 -m hexcover $command \
            >"$tmp/out/$name.$side" || status=$?
        echo "exit $status" >>"$tmp/out/$name.$side"
    done
    if cmp -s "$tmp/out/$name.ref" "$tmp/out/$name.new"; then
        echo "same  hexcover $command"
    else
        echo "DIFF  hexcover $command"
        cmp "$tmp/out/$name.ref" "$tmp/out/$name.new" || true
        differ=1
    fi
done
if [ "$differ" -ne 0 ]; then
    echo "output differs from $ref"
    exit 1
fi
echo "all ${#commands[@]} outputs byte-identical to $ref"
