#!/usr/bin/env bash
# Ten alternating benchmark pairs: <rev> (side A) against the working tree
# (side B), every workload, then the benchmark's own comparison.
#
#   scripts/bench-pairs.sh <rev> [workdir]
#
# Both sides are built from copies, so nothing in the working tree changes
# (a build in place rewrites benchmark/Cargo.lock): <rev> is extracted with
# `git archive` into <workdir>/A, the working tree's tracked and unignored
# files are copied into <workdir>/B, and each builds its `benchmark/` with its
# own CARGO_TARGET_DIR, --offline.
#
# Pair i runs every workload on seed 100+i as
# `--workload W --seed S --seconds 14 --trace 0`, each run its own process,
# A first on even i and B first on odd i. Each run's result line lands in
# <workdir>/runs/. The runs are gathered into <workdir>/A.json and B.json in
# the shape `--runs N --out` writes, and the script prints
#   * the failed-operation count of each side (the benchmark's `failed`),
#   * for each workload and end-to-end metric, in how many pairs B beat A,
#   * the benchmark's `--compare A.json B.json` table,
#   * B's BENCH_history.jsonl row (EXPERIMENTS.md's one-liner), with commit
#     `<rev>+1` and the PR number from $PR (default 0).
# Exits with `--compare`'s code, or 1 if any run failed its checks.
#
# <workdir> defaults to a fresh temporary directory; pass one to reuse the
# <rev> build. The recipe (ten pairs, seeds 100-109, 14 s, all six
# workloads) is fixed so that every printed row means the same measurement.
#
# Not a CI step. It takes about 35 minutes on two cores.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [workdir]" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
short=$(git -C "$root" rev-parse --short "$rev")
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
pairs=10
seconds=14
workloads="dh_batch ch_batch tweets_stream dh_updates dh_batch_par2 serve_open"

# build <side>: the benchmark binary of the source tree in <workdir>/<side>.
build() {
    echo "building side $1 in $work/$1" >&2
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}

rm -rf "$work/A" "$work/B" "$work/runs"
mkdir -p "$work/A" "$work/B" "$work/runs"
git -C "$root" archive "$rev" | tar -x -C "$work/A"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -c) | tar -x -C "$work/B"
build A
build B

# run <side> <workload> <seed>: one run, its last stdout line kept.
run() {
    local out="$work/runs/$1-$2-$3"
    "$work/$1-target/release/jl-benchmark" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 </dev/null >"$out.stdout" 2>"$out.stderr" ||
        echo "run $1 $2 seed $3 exited nonzero" >&2
    tail -n 1 "$out.stdout" >"$out.json"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((100 + i))
    if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
    for w in $workloads; do
        for side in $order; do
            echo "pair $((i + 1))/$pairs seed $seed $w side $side" >&2
            run "$side" "$w" "$seed"
        done
    done
done

# Gather A.json / B.json, count failures and pair wins.
status=0
python3 - "$work" "$root/BENCHMARK.json" "$pairs" $workloads <<'EOF' || status=1
import json, sys
work, bench, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = {m["name"]: m["better"] == "higher" for m in json.load(open(bench))["end_to_end"]}
ok = True
for side in "AB":
    out, failed = {}, 0
    for w in workloads:
        e2e = {m: [] for m in metrics}
        for i in range(pairs):
            try:
                r = json.load(open(f"{work}/runs/{side}-{w}-{100 + i}.json"))
            except (OSError, ValueError):
                print(f"side {side} {w} seed {100 + i}: no result line")
                ok = False
                continue
            ok &= r.get("correct") is True
            failed += r.get("failed", 0)
            for m in metrics:
                e2e[m].append(r["metrics"][m]["value"])
        out[w] = {"end_to_end": e2e, "per_layer": {}}
    json.dump(out, open(f"{work}/{side}.json", "w"), indent=1)
    print(f"side {side}: {failed} failed operations")
    ok &= failed == 0
a, b = (json.load(open(f"{work}/{s}.json")) for s in "AB")
print("pairs where B beat A (ties count as not better):")
for w in workloads:
    for m, higher in metrics.items():
        va, vb = a[w]["end_to_end"][m], b[w]["end_to_end"][m]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(va, vb))
        ties = sum(x == y for x, y in zip(va, vb))
        print(f"  {w} {m}: {wins}/{len(va)} ({ties} equal)")
sys.exit(0 if ok else 1)
EOF

"$work/B-target/release/jl-benchmark" --compare "$work/A.json" "$work/B.json" || status=$((status > 0 ? status : $?))

echo "BENCH_history.jsonl row for side B:"
python3 -c 'import json,sys
f,pr,c=sys.argv[1:4];d=json.load(open(f))
def q(v,i):v=sorted(v);n=len(v);p=i*(n+1);j=min(max(p//4,1),n-1);return v[j-1]+(v[j]-v[j-1])*(p/4-j)
r={"pr":int(pr),"commit":c,"seeds":[100,109],"seconds":14}
r.update({w+"/"+m:{"median":q(s,2),"q1":q(s,1),"q3":q(s,3)} for w,x in d.items() for m,s in x["end_to_end"].items()})
print(json.dumps(r))' "$work/B.json" "${PR:-0}" "$short+1"
exit "$status"
