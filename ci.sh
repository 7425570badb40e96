#!/usr/bin/env bash
# CI entry point. Uses the vendored dependencies (vendor/ + the repo's
# .cargo/config.toml pins offline mode), so it runs hermetically with no
# network access.
set -euo pipefail
cd "$(dirname "$0")"

# CI leaves the tree as it found it: whatever it writes goes to a temp dir
# or an ignored build dir, and the last step compares against this.
tree_before=$(git status --porcelain)

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> golden tests, release build"
# The benchmark and every committed number come from release builds, where
# integer overflow wraps instead of panicking: the pins must hold there too —
# and so must the codec's length arithmetic (`as u32`, `div_ceil`, the caps),
# which is where every committed byte count is produced. The integration
# cases of the trace consumers (the resilience tracker over a kill wave, the
# ownership fold against what the machines hold) run in that build too.
cargo test -q --release --test engine_golden --test chord_golden --test replay \
    --test failure_injection
# The scripted peer cases of both machines (the query stages a reply must
# match, the home a Squirrel origin fetch hands its copy to), likewise; and
# the unit cases of the trace consumers the benchmark attaches (the
# invariant checker, the resilience tracker).
cargo test -q --release -p flower-cdn --lib --test squirrel_protocol --test protocol
# Live heap per peer, in the build whose peak RSS the benchmark measures.
cargo test -q --release -p flower-cdn --test footprint
# Chord's short cuts against the scans and lookups they replace
# (`node/route_tests.rs`), the finger table against the slot vector it
# replaced (`node/fingers.rs`), and the size pin of a node and of a
# converged member's tables (`node::tests::a_converged_members_tables_are_pinned`),
# in the code the benchmark runs.
cargo test -q --release -p chord-dht
# The protocol machines' oracles (summary draws, the store against its
# reference, the bootstrap registry, the fetch budget, the peer cases),
# likewise in release.
cargo test -q --release -p flower-proto
cargo test -q --release -p flower-net --test wire_roundtrip
# The live node's own cases (its timer order, a refused dial pruning its
# registry) in the build `flower-node` ships in: the loopback smoke below
# runs those release binaries.
cargo test -q --release -p flower-net --lib
# The timer wheel every simulated event is popped from: against a reference
# heap (seqs reserved earlier among them), and allocation-free in steady
# state. Beside it, the churn arrivals the engine replays into it one at a
# time, against the schedule collected in full.
cargo test -q --release -p simnet --lib --test timer_wheel --test zero_alloc
cargo test -q --release -p workload
# Both forms of a Bloom summary (sparse positions, bit words) against the
# plain-words filter they replaced, in the build the benchmark runs.
cargo test -q --release -p bloom
# The byte pins of the two JSON artifacts (a line of every trace event
# shape, the BENCH report), in the build that writes every committed
# BENCH_*.json.
cargo test -q --release -p cdn-metrics -p flower-bench --lib

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no dead intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> rendered docs (EXPERIMENTS.md tables are what results/*.csv render to, README's what BENCH_*.json do)"
python3 render_results.py --check EXPERIMENTS.md README.md

echo "==> scripts parse (the paired benchmark runner is run by hand, not here)"
bash -n scripts/ab.sh

echo "==> loopback cluster smoke (5 live nodes, failure + re-founding)"
bash scripts/loopback_smoke.sh

echo "==> committed results still reproduce (every --quick harness vs results/; recovery asserted)"
# One loop pins every tracked results/*.csv: figures, the P sweep, PetalUp
# splitting, the push / gossip knock-outs, the LRU store and the scripted
# fault schedule (whose run is also the one that asserts recovery).
# Each harness's wall seconds are printed, so what a gauge run costs shows
# in the log (`figures_p3000 --gauges` and `ablation_petalup` sample gauges).
res_out=$(mktemp -d)
while read -r harness flags; do
    started=$(date +%s.%N)
    # shellcheck disable=SC2086  # $flags is zero or more words
    cargo run --release -q -p flower-bench --bin "$harness" -- \
        --quick $flags --out "$res_out" > /dev/null < /dev/null
    awk -v h="$harness" -v f="$flags" -v t0="$started" -v t1="$(date +%s.%N)" \
        'BEGIN { printf "    %-20s %-16s %6.1f s\n", h, f, t1 - t0 }'
done <<'HARNESSES'
figures_p3000 --gauges 300000
table2_scalability
ablation_petalup
ablation_maintenance
ablation_cache
resilience --assert-recovery
HARNESSES
for f in $(git ls-files 'results/*.csv'); do
    [ -f "$res_out/${f#results/}" ] \
        || { echo "$f is tracked but no harness in this loop wrote it"; exit 1; }
    cmp "$res_out/${f#results/}" "$f" \
        || { echo "$f is stale: if the change means to move behaviour, re-run the harness that writes it with --quick --out results and commit"; exit 1; }
done
rm -rf "$res_out"

echo "==> sweep smoke (tiny grid, --jobs 2 vs --jobs 1 must be byte-identical)"
smoke_out=$(mktemp -d)
cargo run --release -p flower-bench --bin sweep -- --smoke --jobs 2 --out "$smoke_out/j2"
cargo run --release -p flower-bench --bin sweep -- --smoke --jobs 1 --out "$smoke_out/j1"
for f in runs.csv summary.csv; do
    diff "$smoke_out/j2/$f" "$smoke_out/j1/$f" \
        || { echo "sweep output $f depends on --jobs"; exit 1; }
done
# A scenario file parsed, bounds-checked and run end to end: every verb once.
cargo run --release -p flower-bench --bin sweep -- --smoke \
    --scenario scripts/all_verbs.scenario --out "$smoke_out/verbs"
rm -rf "$smoke_out"

echo "==> repository benchmark (binding surface + outcome_digest guard)"
# benchmark/ is its own package against ../crates/*: a core refactor that
# breaks what it binds to, or changes what a seeded run produces between
# its repetitions, must fail here rather than in the benchmark pipeline.
cargo test -q --manifest-path benchmark/Cargo.toml
quick_out=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --quick) \
    || { printf '%s\n' "$quick_out"; exit 1; }
# What a seeded run produces is pinned here, per workload: a change sold as
# pure optimisation that shifts outcomes fails with the workload's name.
# (`--quick`, seed 47; re-record only with a change that means to move them.)
expected_digests="flower_query 75aed4c7ffecba38
flower_churn 80bbafab298545cd
squirrel_ring 831f0e417820dde9
grid_small c7f71815702593c7"
got_digests=$(printf '%s\n' "$quick_out" \
    | awk '/^== .* ==$/ { name = $2 } /^outcome_digest / { print name, $2 }')
if [ "$got_digests" != "$expected_digests" ]; then
    echo "benchmark outcome_digest moved (expected <, got >):"
    diff <(echo "$expected_digests") <(echo "$got_digests") || true
    exit 1
fi
# benchmark/Cargo.lock must still resolve as committed.
if [ -n "$(git status --porcelain benchmark/)" ]; then
    echo "building the benchmark changed files under benchmark/:"
    git status --porcelain benchmark/
    exit 1
fi

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "CI changed the working tree (before <, after >):"
    diff <(echo "$tree_before") <(git status --porcelain) || true
    exit 1
fi

echo "==> CI green"
