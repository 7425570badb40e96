#!/usr/bin/env bash
# A paired before/after on the repository benchmark:
#
#   scripts/ab.sh <rev> <workload> <pairs> [seed]
#
# builds <rev> (the parent) in a throwaway `git worktree` with its own
# target dir, builds the working tree (the change) in its own
# `benchmark/target`, then runs `benchmark run --workload <workload>
# --seed <seed> --trace 0 --seconds 1` <pairs> times on each side,
# alternating sides and flipping which side goes first every pair, so a
# host that slows down or speeds up weighs on both alike. It prints, as
# markdown for CHANGES.md:
#
#   * per end-to-end metric: each side's median and quartiles, the change
#     in the median, in how many pairs the change was the better one, and
#     whether the medians lie further apart than the parent's quartiles;
#   * whether `outcome_digest`, `ops_attempted` and `ops_failed` were equal
#     in every pair (an optimisation must not move them);
#   * every pair's values, parent → change.
#
# The seed defaults to 47, the benchmark's own. Each run is one benchmark
# parent process and three child repetitions; nothing runs concurrently.
# Separate target dirs matter: two trees sharing one silently run the
# wrong code.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <rev> <workload> <pairs> [seed]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 4 ] || usage
rev=$1 workload=$2 pairs=$3 seed=${4:-47}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seed =~ ^[0-9]+$ ]] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") \
    || { echo "ab.sh: $rev names no commit" >&2; exit 2; }
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/parent" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> building the parent ${parent:0:12} in a worktree" >&2
git -C "$root" worktree add --quiet --detach "$work/parent" "$parent"
(cd "$work/parent" && CARGO_TARGET_DIR="$work/parent/benchmark/target" \
    cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
echo "==> building the change (the working tree)" >&2
(cd "$root" && CARGO_TARGET_DIR="$root/benchmark/target" \
    cargo build --release --quiet --manifest-path benchmark/Cargo.toml)

declare -A tree=([parent]="$work/parent" [change]="$root")
run() { # side pair
    local dir=${tree[$1]}
    (cd "$dir" && benchmark/target/release/benchmark run --workload "$workload" \
        --seed "$seed" --trace 0 --seconds 1) > "$work/$1.$2.txt" \
        || { echo "ab.sh: the $1 run of pair $2 failed:" >&2; cat "$work/$1.$2.txt" >&2; exit 1; }
}
# Metric names and which way is better, from the change's own registry.
"$root/benchmark/target/release/benchmark" run --list \
    | awk '$1 == "end_to_end" { print $2, ($0 ~ /higher is better/ ? "higher" : "lower") }' \
    > "$work/metrics"
[ -s "$work/metrics" ] || { echo "ab.sh: benchmark run --list named no metric" >&2; exit 1; }

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "==> pair $i/$pairs: $side" >&2
        run "$side" "$i"
    done
    echo "$i ${order%% *}" >> "$work/order"
done

awk -v rev="${parent:0:12}" -v workload="$workload" -v seed="$seed" -v pairs="$pairs" '
    # Linear-interpolation quantile of a sorted array a[1..n].
    function q(a, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(side, m, a,    i, j, t, n) {
        n = 0
        for (i = 1; i <= pairs; i++) a[++n] = v[side, i, m]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
            t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
        }
        return n
    }
    function num(x) { return sprintf(x >= 1000 ? "%.0f" : "%.5g", x) }
    FILENAME ~ /\/metrics$/ { better[$1] = $2; names[++nm] = $1; next }
    FILENAME ~ /\/order$/ { first[$1] = $2; next }
    {
        split(FILENAME, parts, "/"); split(parts[length(parts)], f, ".")
        side = f[1]; i = f[2]
        if ($1 in better && NF >= 3) v[side, i, $1] = $2
        if ($1 == "outcome_digest" || $1 == "ops_attempted" || $1 == "ops_failed") o[side, i, $1] = $2
    }
    END {
        printf "`%s`, seed %d: parent %s → change (working tree), %d alternating pairs of `benchmark run --trace 0 --seconds 1`\n\n", workload, seed, rev, pairs
        print "| metric | better | parent median [Q1, Q3] | change median [Q1, Q3] | Δ median | change better | medians apart > parent IQR |"
        print "|---|---|---|---|---|---|---|"
        for (k = 1; k <= nm; k++) {
            m = names[k]
            if (!(("parent", 1, m) in v)) continue
            n = sorted("parent", m, pa); sorted("change", m, ch)
            pm = q(pa, n, 0.5); cm = q(ch, n, 0.5); iqr = q(pa, n, 0.75) - q(pa, n, 0.25)
            wins = 0
            for (i = 1; i <= pairs; i++) {
                d = v["change", i, m] - v["parent", i, m]
                if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) wins++
            }
            delta = pm != 0 ? sprintf("%+.2f %%", 100 * (cm - pm) / pm) : "n/a"
            apart = (cm - pm > iqr || pm - cm > iqr) ? "yes" : "no"
            printf "| `%s` | %s | %s [%s, %s] | %s [%s, %s] | %s | %d of %d | %s (IQR %s) |\n", m, better[m], \
                num(pm), num(q(pa, n, 0.25)), num(q(pa, n, 0.75)), \
                num(cm), num(q(ch, n, 0.25)), num(q(ch, n, 0.75)), delta, wins, pairs, apart, num(iqr)
        }
        split("outcome_digest ops_attempted ops_failed", outs, " ")
        printf "\n"
        for (k = 1; k <= 3; k++) {
            same = 0
            for (i = 1; i <= pairs; i++) same += (o["parent", i, outs[k]] == o["change", i, outs[k]] && o["parent", i, outs[k]] != "")
            printf "%s`%s` equal in %d of %d pairs", (k > 1 ? "; " : ""), outs[k], same, pairs
        }
        printf ".\n\nEvery pair, parent → change:\n\n| pair | first |"
        for (k = 1; k <= nm; k++) printf " `%s` |", names[k]
        printf "\n|---|---|"
        for (k = 1; k <= nm; k++) printf "---|"
        printf "\n"
        for (i = 1; i <= pairs; i++) {
            printf "| %d | %s |", i, first[i]
            for (k = 1; k <= nm; k++) printf " %s → %s |", num(v["parent", i, names[k]]), num(v["change", i, names[k]])
            printf "\n"
        }
    }
' "$work/metrics" "$work/order" "$work"/parent.*.txt "$work"/change.*.txt
