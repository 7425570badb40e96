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

use flower_bench::{HarnessOpts, Scale};
use flower_cdn::{RunResult, SimParams, System};
use sweep::{aggregate, run_grid_with, Grid};

/// One crowded website: a shape of its own, not the shared quick one.
fn crowd_params(opts: &HarnessOpts, capacity: usize) -> SimParams {
    let (population, horizon) = match opts.scale {
        Scale::Paper => (1_500, 6 * 3_600_000),
        Scale::Quick => (400, 2 * 3_600_000),
    };
    let mut p = SimParams::quick(opts.population.unwrap_or(population), horizon);
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

/// The printed table's columns, which are the CSV's.
const HEADER: [&str; 8] = [
    "capacity",
    "runs",
    "instances_mean",
    "max_instance_mean",
    "max_load_mean",
    "splits_mean",
    "hit_ratio_mean",
    "hit_ratio_stddev",
];

fn main() {
    let opts = HarnessOpts::parse(&["--population", "--gauges"]);
    // (capacity, cell label, table label)
    let capacities = [
        (usize::MAX, "cap_inf", "inf"),
        (30, "cap30", "30"),
        (12, "cap12", "12"),
        (6, "cap6", "6"),
    ];
    let base = crowd_params(&opts, usize::MAX);
    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for (cap, tag, ..) in capacities {
        grid.push(opts.cell(tag, System::FlowerCdn, crowd_params(&opts, cap)));
    }
    println!(
        "sweeping {} directory capacities × seeds {seeds:?} ({} runs, --jobs {})…",
        capacities.len(),
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

    let rows: Vec<Vec<String>> = capacities
        .iter()
        .zip(&cells)
        .zip(&structures)
        .map(|((&(_, _, label), cell), structure)| {
            let [instances, max_instance, max_load] =
                [0, 1, 2].map(|g| aggregate(&structure.iter().map(|s| s[g]).collect::<Vec<_>>()));
            let hit = cell.agg("hit_ratio");
            vec![
                label.to_string(),
                hit.n.to_string(),
                format!("{:.3}", instances.mean),
                format!("{:.3}", max_instance.mean),
                format!("{:.3}", max_load.mean),
                format!("{:.3}", cell.agg("splits").mean),
                format!("{:.6}", hit.mean),
                format!("{:.6}", hit.stddev),
            ]
        })
        .collect();
    let csv = flower_bench::print_table(
        "Ablation A1: PetalUp-CDN splitting vs directory capacity (one crowded website)",
        &HEADER,
        &rows,
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
