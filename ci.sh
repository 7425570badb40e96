#!/usr/bin/env bash
# CI entry point. Uses the vendored dependencies (vendor/ + the repo's
# .cargo/config.toml pins offline mode), so it runs hermetically with no
# network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> golden tests, release build"
# The benchmark and every committed number come from release builds, where
# integer overflow wraps instead of panicking: the pins must hold there too.
cargo test -q --release --test engine_golden --test chord_golden --test replay

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rendered docs (no leftover table marker, results/*.csv still render)"
if grep -n '_MEASURED -->' EXPERIMENTS.md README.md; then
    echo "unrendered table marker: run python3 render_results.py and commit the result"
    exit 1
fi
# On a scratch copy: every table is rendered whether or not its marker is
# left, so a CSV whose schema moved fails here instead of in the docs.
rendered_md=$(mktemp)
cp EXPERIMENTS.md "$rendered_md"
python3 render_results.py "$rendered_md"
rm -f "$rendered_md"

echo "==> loopback cluster smoke (5 live nodes, failure + re-founding)"
bash scripts/loopback_smoke.sh

echo "==> resilience smoke (scripted faults, recovery asserted)"
cargo run --release -p flower-bench --bin resilience -- --quick --assert-recovery

echo "==> sweep smoke (tiny grid, --jobs 2 vs --jobs 1 must be byte-identical)"
rm -rf results/sweep_smoke_j2 results/sweep_smoke_j1
cargo run --release -p flower-bench --bin sweep -- --smoke --jobs 2 --out results/sweep_smoke_j2
cargo run --release -p flower-bench --bin sweep -- --smoke --jobs 1 --out results/sweep_smoke_j1
for f in runs.csv summary.csv summary.json; do
    diff "results/sweep_smoke_j2/$f" "results/sweep_smoke_j1/$f" \
        || { echo "sweep output $f depends on --jobs"; exit 1; }
done

echo "==> committed figure data still reproduces (figures_p3000 --quick vs results/)"
fig_out=$(mktemp -d)
cargo run --release -p flower-bench --bin figures_p3000 -- --quick --out "$fig_out" > /dev/null
for f in fig3_hit_ratio.csv fig4_lookup_latency.csv fig5_transfer_distance.csv figures_p3000_runs.csv; do
    cmp "$fig_out/$f" "results/$f" \
        || { echo "results/$f is stale: run figures_p3000 --quick --out results and commit"; exit 1; }
done
rm -rf "$fig_out"

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
expected_digests="flower_query 17b7a9497d6daa59
flower_churn 6952d0913b9558c3
squirrel_ring aa3893affcac2a78
grid_small fa158f3e65504b89"
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

echo "==> CI green"
