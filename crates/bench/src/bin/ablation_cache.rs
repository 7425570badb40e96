//! Ablation A3: bounded caches. The paper footnotes cache replacement as
//! out of scope and assumes unlimited storage (§6.1); this harness
//! measures what the assumption is worth by sweeping an LRU capacity over
//! the peer stores and watching the hit ratio.
//!
//! Expected shape: the hit ratio degrades gracefully as capacity shrinks —
//! Zipf popularity means small caches still retain most of the useful
//! mass — and index retraction keeps directories from redirecting to
//! evicted content (fetch-miss rates stay low).
//!
//! ```sh
//! cargo run --release -p flower-bench --bin ablation_cache [-- --quick]
//! cargo run --release -p flower-bench --bin ablation_cache -- --seeds 1..4 --jobs 4
//! ```

use flower_bench::{HarnessOpts, Scale};
use flower_cdn::peer::ProtocolEvent;
use flower_cdn::{RunResult, StorePolicy, System};
use sweep::{aggregate, run_grid_with, Grid};

/// The printed table's columns, which are the CSV's.
const HEADER: [&str; 7] = [
    "policy",
    "runs",
    "hit_ratio_mean",
    "hit_ratio_stddev",
    "mean_lookup_ms_mean",
    "fetch_misses_mean",
    "queries_mean",
];

fn main() {
    let opts = HarnessOpts::parse(&["--population"]);
    let policies = [
        (StorePolicy::Unlimited, "unlimited"),
        (StorePolicy::Lru { capacity: 20 }, "lru20"),
        (StorePolicy::Lru { capacity: 10 }, "lru10"),
        (StorePolicy::Lru { capacity: 5 }, "lru5"),
        (StorePolicy::Lru { capacity: 2 }, "lru2"),
    ];
    let mut base = opts.params(3_000);
    if opts.scale == Scale::Quick {
        // Busier peers than the shared quick shape (a query every
        // uptime/16) over a smaller catalog.
        base.query_period_ms = base.mean_uptime_ms / 16;
        base.catalog.websites = 6;
    }
    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for (policy, tag) in policies {
        let mut params = base.clone();
        params.store_policy = policy;
        grid.push(opts.cell(tag, System::FlowerCdn, params));
    }
    println!(
        "sweeping {} cache policies × seeds {seeds:?} ({} runs, --jobs {})…",
        grid.cells.len(),
        grid.total_runs(),
        opts.jobs()
    );
    // The fetch-miss diagnostic lives in the per-run protocol event
    // counts, not in the summaries.
    let (cells, fetch_misses) = run_grid_with(&grid, &opts.sweep_opts(), |_, _| {
        |r: RunResult| {
            let misses = r.events.get(&ProtocolEvent::FetchMiss);
            misses.copied().unwrap_or(0) as f64
        }
    });

    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&fetch_misses)
        .map(|(cell, misses)| {
            let hit = cell.agg("hit_ratio");
            vec![
                cell.label.clone(),
                hit.n.to_string(),
                format!("{:.6}", hit.mean),
                format!("{:.6}", hit.stddev),
                format!("{:.3}", cell.agg("mean_lookup_ms").mean),
                format!("{:.3}", aggregate(misses).mean),
                format!("{:.3}", cell.agg("queries").mean),
            ]
        })
        .collect();
    let csv = flower_bench::print_table(
        "Ablation A3: LRU cache capacity vs hit ratio",
        &HEADER,
        &rows,
    );
    println!(
        "shape check: Zipf workloads keep most of the useful mass in small\n\
         caches, so the hit ratio should fall gently with capacity; stale\n\
         redirects (fetch misses) stay rare thanks to index retraction."
    );
    flower_bench::write_results(
        &opts,
        "ablation_cache.csv",
        &csv,
        "ablation_cache_runs.csv",
        &cells,
    );
}
