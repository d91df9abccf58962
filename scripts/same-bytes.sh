#!/usr/bin/env bash
# Behaviour-preservation check for a refactor: build <rev> and the working
# tree, run the same deterministic figures, traces and fuzz cases on both,
# and compare every captured byte.
#
#   scripts/same-bytes.sh <rev> [workdir]
#
# <rev> is extracted with `git archive` into <workdir>/base and built there
# with its own CARGO_TARGET_DIR, --offline. The working tree builds into its
# usual target/. Each run's stdout, stderr and exit code land in
# <workdir>/{base,head}-out/ (the traced chaos run also writes t.json and
# t.metrics.json there). Prints the `diff -r` of the two output directories
# and exits nonzero on any difference. <workdir> defaults to a fresh
# temporary directory; pass one to reuse the <rev> build across calls.
#
# Not a CI step: a behaviour fix changes these bytes on purpose.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [workdir]" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The runs, one per line: a name for its output files, then the binary and
# its arguments.
runs() {
    cat <<'EOF'
chaos figs chaos --scale 0.05 --trace t.json
overload figs overload --scale 0.05
elastic figs elastic --scale 0.1
fig5 figs fig5 --scale 0.1 --seed 1
fig6 figs fig6 --scale 0.05 --seed 1
fig7 figs fig7 --scale 0.01 --seed 1
fig8-dh figs fig8 dh --scale 0.1 --seed 1
fig8-ch figs fig8 ch --scale 0.1 --seed 1
fig8-dch figs fig8 dch --scale 0.1 --seed 1
fig9 figs fig9 --scale 0.2 --seed 1
fig11-dh figs fig11 dh --scale 0.05 --seed 1
fig11-ch figs fig11 ch --scale 0.05 --seed 1
fig11-dch figs fig11 dch --scale 0.05 --seed 1
ablate-batch figs ablate batch --scale 0.2 --seed 1
ablate-cache figs ablate cache --scale 0.2 --seed 1
ablate-extensions figs ablate extensions --scale 0.2 --seed 1
ablate-freq figs ablate freq --scale 0.2 --seed 1
ablate-lb figs ablate lb --scale 0.2 --seed 1
ablate-ski figs ablate ski --scale 0.2 --seed 1
fuzz-7 fuzz_chaos --seed 7 --iters 15
fuzz-11-churn fuzz_chaos --seed 11 --iters 15 --churn
EOF
}

# capture <bin dir> <out dir>: every run, stdout/stderr/exit code to files.
capture() {
    local bin=$1 out=$2 name exe args code
    rm -rf "$out"
    mkdir -p "$out"
    while read -r name exe args; do
        code=0
        # shellcheck disable=SC2086 # the arguments are meant to split
        (cd "$out" && "$bin/$exe" $args </dev/null >"$name.stdout" 2>"$name.stderr") || code=$?
        echo "$code" >"$out/$name.code"
    done < <(runs)
}

base="$work/base"
rm -rf "$base"
mkdir -p "$base"
git -C "$root" archive "$rev" | tar -x -C "$base"
echo "building $rev in $base" >&2
(cd "$base" && CARGO_TARGET_DIR="$work/base-target" \
    cargo build --release --offline --quiet -p jl-bench --bins)
echo "building the working tree" >&2
(cd "$root" && cargo build --release --offline --quiet -p jl-bench --bins)
head_target=$(cd "$root" && cargo metadata --offline --no-deps --format-version 1 |
    sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')

capture "$work/base-target/release" "$work/base-out"
capture "$head_target/release" "$work/head-out"

if diff -r "$work/base-out" "$work/head-out"; then
    echo "same bytes: $rev and the working tree agree on every run ($work)" >&2
else
    echo "different bytes: $rev and the working tree disagree ($work)" >&2
    exit 1
fi
