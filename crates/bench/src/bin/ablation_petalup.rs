//! Ablation A1 (§4, qualitative): PetalUp-CDN's adaptive directory
//! splitting. The paper could not scale its simulation far enough to
//! exercise splits ("we could only simulate up to 5000 peers, which does
//! not lead to petals of large size", §6) and argues the design instead;
//! this harness *measures* it by concentrating one website's audience and
//! sweeping the directory capacity.
//!
//! Expected: the instance chain length grows as capacity shrinks, the
//! maximum per-instance load stays near the capacity limit, and the hit
//! ratio is unaffected by splitting.
//!
//! The end-of-run structure (live instances, chain depth, peak load) is
//! read from the gauge stream — the runs go through the generic
//! [`sweep`] orchestrator, no mid-run peeking at Flower-CDN internals.
//!
//! ```sh
//! cargo run --release -p flower-bench --bin ablation_petalup [-- --quick]
//! cargo run --release -p flower-bench --bin ablation_petalup -- --seeds 1..4 --jobs 4
//! ```

use cdn_metrics::{ascii_table, Csv};
use flower_bench::{fmt_mean_spread, HarnessOpts, Scale};
use flower_cdn::{RunResult, SimParams, System};
use sweep::{aggregate, run_grid_with, Grid};

/// One crowded website: a shape of its own, not the shared quick one.
fn crowd_params(opts: &HarnessOpts, capacity: usize) -> SimParams {
    let (population, horizon) = match opts.scale {
        Scale::Paper => (1_500, 6 * 3_600_000),
        Scale::Quick => (400, 2 * 3_600_000),
    };
    let mut p = SimParams::quick(opts.population.unwrap_or(population), horizon);
    p.seed = opts.seed.unwrap_or(0xF10E);
    p.catalog.websites = 1;
    p.catalog.active_websites = 1;
    p.catalog.objects_per_site = 300;
    p.directory_capacity = capacity;
    p.mean_uptime_ms = horizon / 2; // moderate churn so petals can grow
    p.query_period_ms = p.mean_uptime_ms / 12;
    p.gossip_period_ms = p.mean_uptime_ms / 2;
    p
}

/// The gauges whose final tick is a run's end-of-run structure: live
/// instances, deepest instance chain, peak per-instance load.
const STRUCTURE_GAUGES: [&str; 3] = ["dring_size", "instance_depth_max", "petal_size_max"];

fn main() {
    let opts = HarnessOpts::parse(&["--population", "--gauges"]);
    // (capacity, cell label, CSV label, table label)
    let capacities = [
        (usize::MAX, "cap_inf", "inf", "∞ (no splits)"),
        (30, "cap30", "30", "30"),
        (12, "cap12", "12", "12"),
        (6, "cap6", "6", "6"),
    ];
    let base = crowd_params(&opts, usize::MAX);
    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for (cap, tag, ..) in capacities {
        grid.push(opts.cell(tag, System::FlowerCdn, crowd_params(&opts, cap)));
    }
    println!(
        "sweeping {} directory capacities × {} seed(s) ({} runs, --jobs {})…",
        capacities.len(),
        seeds.len(),
        grid.total_runs(),
        opts.jobs()
    );
    // The structure metrics come from gauges, so force a sampling period
    // even when the user didn't pass --gauges.
    let mut sweep_opts = opts.sweep_opts();
    sweep_opts.gauge_period_ms = Some(
        opts.gauge_period_ms
            .unwrap_or((base.horizon_ms / 48).max(60_000)),
    );
    let (cells, structures) = run_grid_with(&grid, &sweep_opts, |_, _| {
        |r: RunResult| STRUCTURE_GAUGES.map(|g| r.gauges.last(g).unwrap_or(0.0))
    });

    let mut rendered = Vec::new();
    let mut csv = Csv::new(&[
        "capacity",
        "runs",
        "instances_mean",
        "max_instance_mean",
        "max_load_mean",
        "splits_mean",
        "hit_ratio_mean",
        "hit_ratio_stddev",
    ]);
    for (i, (_, _, csv_label, table_label)) in capacities.into_iter().enumerate() {
        let [instances, max_instance, max_load] =
            [0, 1, 2].map(|g| aggregate(&structures[i].iter().map(|s| s[g]).collect::<Vec<_>>()));
        let splits = cells[i].agg("splits");
        let hit = cells[i].agg("hit_ratio");
        rendered.push(vec![
            table_label.to_string(),
            format!("{:.1}", instances.mean),
            format!("{:.1}", max_instance.mean),
            format!("{:.1}", max_load.mean),
            format!("{:.1}", splits.mean),
            fmt_mean_spread(&hit, 3),
        ]);
        csv.row(&[
            csv_label.to_string(),
            hit.n.to_string(),
            format!("{:.3}", instances.mean),
            format!("{:.3}", max_instance.mean),
            format!("{:.3}", max_load.mean),
            format!("{:.3}", splits.mean),
            format!("{:.6}", hit.mean),
            format!("{:.6}", hit.stddev),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            "Ablation A1: PetalUp-CDN splitting vs directory capacity (one crowded website)",
            &[
                "capacity",
                "live instances",
                "max instance",
                "max load",
                "splits",
                "hit ratio"
            ],
            &rendered,
        )
    );
    println!(
        "shape check: smaller capacity → longer instance chains, bounded\n\
         per-instance load, and a hit ratio that splitting does not hurt (§4)."
    );

    flower_bench::write_results(
        &opts,
        "ablation_petalup.csv",
        &csv,
        "ablation_petalup_runs.csv",
        &cells,
    );
}
