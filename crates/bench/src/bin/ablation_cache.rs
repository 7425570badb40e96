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
use flower_cdn::{SimParams, StorePolicy, System};
use sweep::{aggregate, execute_cell, run_cells, runs_csv, Cell, CellResult, Grid};

fn base(opts: &HarnessOpts) -> SimParams {
    match opts.scale {
        Scale::Paper => opts.params(3_000),
        Scale::Quick => {
            let horizon = 2 * 3_600_000;
            let mut p = SimParams::quick(300, horizon);
            p.seed = opts.seed.unwrap_or(p.seed);
            p.mean_uptime_ms = horizon / 4;
            p.query_period_ms = p.mean_uptime_ms / 16;
            p.gossip_period_ms = p.mean_uptime_ms;
            p.catalog.websites = 6;
            p.catalog.active_websites = 3;
            p.catalog.objects_per_site = 200;
            p
        }
    }
}

fn main() {
    let opts = HarnessOpts::parse();
    let policies = [
        (StorePolicy::Unlimited, "unlimited", "unlimited (paper)"),
        (StorePolicy::Lru { capacity: 20 }, "lru20", "LRU 20"),
        (StorePolicy::Lru { capacity: 10 }, "lru10", "LRU 10"),
        (StorePolicy::Lru { capacity: 5 }, "lru5", "LRU 5"),
        (StorePolicy::Lru { capacity: 2 }, "lru2", "LRU 2"),
    ];
    let base_params = base(&opts);
    let seeds = opts.seed_list(base_params.seed);
    let mut grid = Grid::new(seeds.clone());
    for (policy, tag, _) in policies {
        let mut params = base_params.clone();
        params.store_policy = policy;
        grid.push(Cell::new(tag, System::FlowerCdn, params));
    }
    println!(
        "sweeping {} cache policies × {} seed(s) ({} runs, --jobs {})…",
        grid.cells.len(),
        seeds.len(),
        grid.total_runs(),
        opts.jobs()
    );
    let sweep_opts = opts.sweep_opts();
    // Full results (not just summaries): the fetch-miss diagnostic lives
    // in the per-run protocol event counts.
    let grouped = run_cells(&grid, &sweep_opts, |cell, seed| {
        let r = execute_cell(cell, seed, &sweep_opts);
        let fetch_misses = r
            .events
            .get(&ProtocolEvent::FetchMiss)
            .copied()
            .unwrap_or(0);
        (r.summary(), fetch_misses, r.perf)
    });

    let cells: Vec<CellResult> = grid
        .cells
        .iter()
        .zip(&grouped)
        .map(|(cell, runs)| {
            let runs = runs
                .iter()
                .map(|(seed, (summary, _, perf))| (*seed, summary.clone(), perf.clone()));
            CellResult::from_runs(cell, runs)
        })
        .collect();

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
        let misses = aggregate(
            &grouped[i]
                .iter()
                .map(|(_, (_, m, _))| *m as f64)
                .collect::<Vec<_>>(),
        );
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
    let dir = opts.results_dir();
    let path = dir.join("ablation_cache.csv");
    csv.save(&path).expect("write results csv");
    let runs_path = dir.join("ablation_cache_runs.csv");
    runs_csv(&cells).save(&runs_path).expect("write runs csv");
    println!("wrote {} and {}", path.display(), runs_path.display());
    if let Some(p) = &opts.profile_out {
        flower_bench::write_profile_report(p, &cells);
    }
}
