#!/usr/bin/env sh
# Paired benchmark runs: a parent revision against the working tree, on
# one or more workloads, in alternating pairs.
#
#   tools/paired-bench.sh <parent-rev> <workload[,workload...]|all> [pairs] [seconds]
#
# Builds the benchmark (crates/bench/examples/benchmark) twice, each
# with its own CARGO_TARGET_DIR: once from `git archive <parent-rev>`
# unpacked into a work directory, once from the working tree. Then,
# for each workload in turn (`all` is every workload of
# BENCHMARK.json), pair i runs both binaries at seed i, each from its
# own checkout root; the order alternates (parent first in odd pairs),
# so a drift of the host falls on both sides. Prints every run's
# end-to-end metrics and its `failed` count, then one table per
# workload: per metric each side's median and quartiles, the median of
# the change/parent ratios and the pairs the change won (by the
# metric's `better` direction in BENCHMARK.json; ties win for
# neither). Exits non-zero when any run of any workload fails.
#
# Defaults: 10 pairs of 24 s, the length BENCHMARK.json runs. The work
# directory is PAIRED_BENCH_DIR, or a fresh temporary one; reusing it
# makes the builds incremental. Needs `git`, `cargo` and `jq`.
set -eu
cd "$(dirname "$0")/.."

[ "$#" -ge 2 ] || { sed -n '5p' "$0" | cut -c3- >&2; exit 2; }
parent=$(git rev-parse --verify "$1^{commit}")
workloads=$2
[ "$workloads" != all ] || workloads=$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)
pairs=${3:-10}
seconds=${4:-24}
work=${PAIRED_BENCH_DIR:-$(mktemp -d)}
manifest=crates/bench/examples/benchmark/Cargo.toml

echo "# parent $parent, change: the working tree; $workloads, $pairs pairs of $seconds s; in $work"
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
(cd "$work/parent" && CARGO_TARGET_DIR="$work/parent-target" \
    cargo build --release --quiet --manifest-path "$manifest")
CARGO_TARGET_DIR="$work/change-target" cargo build --release --quiet --manifest-path "$manifest"

here=$(pwd)
failed=0

# run <side> <pair>: one run, its JSON line appended to the results.
run() {
    if [ "$1" = parent ]; then root="$work/parent"; else root=$here; fi
    line=$(cd "$root" && "$work/$1-target/release/blobseer_benchmark" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1) || true
    echo "$line" | jq -c --arg side "$1" --argjson pair "$2" '{side: $side, pair: $pair,
        failed: .failed, correct: .correct, metrics: (.metrics | map_values(.value))}' >>"$results" ||
        { echo "pair $2, $1: no result line" >&2; exit 1; }
    tail -n 1 "$results" | jq -r '"pair \(.pair) \(.side): failed \(.failed) "
        + (.metrics | to_entries | map("\(.key)=\(.value)") | join(" "))'
}

for workload in $(echo "$workloads" | tr ',' ' '); do
    results="$work/results-$workload.jsonl"
    : >"$results"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$i"
            run change "$i"
        else
            run change "$i"
            run parent "$i"
        fi
        i=$((i + 1))
    done

    echo
    echo "## $workload"
    jq -rs --slurpfile bench BENCHMARK.json '
        def quantile($q): sort | ((length - 1) * $q) as $at | ($at | floor) as $lo
            | .[$lo] + (.[[$lo + 1, length - 1] | min] - .[$lo]) * ($at - $lo);
        (map(select(.side == "parent")) | sort_by(.pair)) as $p
        | (map(select(.side == "change")) | sort_by(.pair)) as $c
        | $bench[0].end_to_end[] | .name as $m | .better as $better
        | [range(0; $p | length) | [$p[.].metrics[$m], $c[.].metrics[$m]]]
        | map(select(.[0] != null and .[1] != null and .[0] != 0))
        | select(length > 0)
        | [$m]
          + ([map(.[0]), map(.[1])] | map(quantile(0.25), quantile(0.5), quantile(0.75)))
          + [(map(.[1] / .[0]) | quantile(0.5)),
             "\(map(select(if $better == "lower" then .[1] < .[0] else .[1] > .[0] end)) | length)/\(length)"]
        | @tsv
    ' "$results" | awk -F '\t' '
        BEGIN {
            printf "%-27s %32s %32s %7s %5s\n", "metric", "parent: median [q1 .. q3]",
                "change: median [q1 .. q3]", "ratio", "won"
        }
        { printf "%-27s %9.4g [%9.4g .. %9.4g] %9.4g [%9.4g .. %9.4g] %7.4f %5s\n",
            $1, $3, $2, $4, $6, $5, $7, $8, $9 }'
    jq -rs '"failed: parent \(map(select(.side == "parent") | .failed)), change \(map(select(.side == "change") | .failed))"' "$results"

    jq -s -e 'all(.failed == 0 and .correct)' "$results" >/dev/null ||
        { echo "$workload: a run failed operations" >&2; failed=1; }
    echo
done
exit "$failed"
