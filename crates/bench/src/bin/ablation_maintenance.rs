//! Ablation A2 (§5, qualitative): what each maintenance mechanism buys.
//!
//! The paper credits Flower-CDN's churn robustness to the §5 suite —
//! "periodic updates are disseminated throughout a petal via gossip and
//! push exchanges. Thus, a new directory peer can progressively
//! reconstruct its directory-index" (§6.2.1). This harness removes one
//! mechanism at a time under the paper's churn and measures the cost;
//! each variant is just a sweep cell whose parameters disable the
//! mechanism ([`MaintenanceVariant::apply`]).
//!
//! ```sh
//! cargo run --release -p flower-bench --bin ablation_maintenance [-- --quick]
//! cargo run --release -p flower-bench --bin ablation_maintenance -- --seeds 1..4 --jobs 4
//! ```

use cdn_metrics::ascii_table;
use flower_bench::{fmt_mean_spread, HarnessOpts, Scale};
use flower_cdn::experiments::MaintenanceVariant;
use flower_cdn::System;
use sweep::{run_grid, summary_csv, Grid};

fn main() {
    let opts = HarnessOpts::parse(&["--population"]);
    let variants = [
        (MaintenanceVariant::Full, "full", "full §5 suite"),
        (MaintenanceVariant::NoPush, "no_push", "no push messages"),
        (MaintenanceVariant::NoGossip, "no_gossip", "no petal gossip"),
    ];
    let mut base = opts.params(3_000);
    if opts.scale == Scale::Quick {
        // Heavier churn than the shared quick shape (uptime = horizon/5,
        // the periods following it) over a smaller catalog.
        base.mean_uptime_ms = base.horizon_ms / 5;
        base.query_period_ms = base.mean_uptime_ms / 12;
        base.gossip_period_ms = base.mean_uptime_ms;
        base.catalog.websites = 6;
    }
    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for (variant, tag, _) in variants {
        let mut params = base.clone();
        variant.apply(&mut params);
        grid.push(opts.cell(tag, System::FlowerCdn, params));
    }
    println!(
        "running {} maintenance variants × seeds {seeds:?} ({} runs, --jobs {})…",
        grid.cells.len(),
        grid.total_runs(),
        opts.jobs()
    );
    let results = run_grid(&grid, &opts.sweep_opts());

    let rendered: Vec<Vec<String>> = variants
        .iter()
        .zip(&results)
        .map(|(&(_, _, label), cell)| {
            vec![
                label.to_string(),
                fmt_mean_spread(&cell.agg("hit_ratio"), 3),
                format!("{:.0} ms", cell.agg("mean_lookup_ms").mean),
                format!("{:.1}", cell.agg("replacements").mean),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            "Ablation A2: maintenance mechanisms under churn",
            &["variant", "hit ratio", "mean lookup", "repairs"],
            &rendered,
        )
    );
    println!(
        "shape check: removing pushes starves replacement directories of\n\
         index state; removing gossip kills petal-local resolution and\n\
         dir-info dissemination — both cost hit ratio vs the full suite."
    );

    flower_bench::write_results(
        &opts,
        "ablation_maintenance.csv",
        &summary_csv(&results),
        "ablation_maintenance_runs.csv",
        &results,
    );
}
