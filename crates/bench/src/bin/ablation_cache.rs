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

use cdn_metrics::{ascii_table, Csv};
use flower_bench::{fmt_mean_spread, HarnessOpts, Scale};
use flower_cdn::peer::ProtocolEvent;
use flower_cdn::{RunResult, StorePolicy, System};
use sweep::{aggregate, run_grid_with, Grid};

fn main() {
    let opts = HarnessOpts::parse(&["--population"]);
    let policies = [
        (StorePolicy::Unlimited, "unlimited", "unlimited (paper)"),
        (StorePolicy::Lru { capacity: 20 }, "lru20", "LRU 20"),
        (StorePolicy::Lru { capacity: 10 }, "lru10", "LRU 10"),
        (StorePolicy::Lru { capacity: 5 }, "lru5", "LRU 5"),
        (StorePolicy::Lru { capacity: 2 }, "lru2", "LRU 2"),
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
    for (policy, tag, _) in policies {
        let mut params = base.clone();
        params.store_policy = policy;
        grid.push(opts.cell(tag, System::FlowerCdn, params));
    }
    println!(
        "sweeping {} cache policies × {} seed(s) ({} runs, --jobs {})…",
        grid.cells.len(),
        seeds.len(),
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

    let mut rendered = Vec::new();
    let mut csv = Csv::new(&[
        "policy",
        "runs",
        "hit_ratio_mean",
        "hit_ratio_stddev",
        "mean_lookup_ms_mean",
        "fetch_misses_mean",
        "queries_mean",
    ]);
    for (i, (_, _, label)) in policies.iter().enumerate() {
        let hit = cells[i].agg("hit_ratio");
        let lookup = cells[i].agg("mean_lookup_ms");
        let queries = cells[i].agg("queries");
        let misses = aggregate(&fetch_misses[i]);
        rendered.push(vec![
            label.to_string(),
            fmt_mean_spread(&hit, 3),
            format!("{:.0} ms", lookup.mean),
            format!("{:.1}", misses.mean),
            format!("{:.0}", queries.mean),
        ]);
        csv.row(&[
            policies[i].1.to_string(),
            hit.n.to_string(),
            format!("{:.6}", hit.mean),
            format!("{:.6}", hit.stddev),
            format!("{:.3}", lookup.mean),
            format!("{:.3}", misses.mean),
            format!("{:.3}", queries.mean),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            "Ablation A3: LRU cache capacity vs hit ratio",
            &[
                "policy",
                "hit ratio",
                "mean lookup",
                "fetch misses",
                "queries"
            ],
            &rendered,
        )
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
