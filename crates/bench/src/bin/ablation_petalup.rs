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
use flower_cdn::{SimParams, System};
use sweep::{aggregate, execute_cell, run_cells, runs_csv, Cell, CellResult, Grid};

fn crowd_params(opts: &HarnessOpts, capacity: usize) -> SimParams {
    let horizon = match opts.scale {
        Scale::Paper => 6 * 3_600_000,
        Scale::Quick => 2 * 3_600_000,
    };
    let population = match opts.scale {
        Scale::Paper => 1_500,
        Scale::Quick => 400,
    };
    let mut p = SimParams::quick(population, horizon);
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

/// Per-run structure sampled from the final gauge tick.
struct Structure {
    instances: f64,
    max_instance: f64,
    max_load: f64,
    splits: f64,
    hit_ratio: f64,
}

fn main() {
    let opts = HarnessOpts::parse();
    let capacities = [usize::MAX, 30, 12, 6];
    let base = crowd_params(&opts, usize::MAX);
    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for &cap in &capacities {
        let tag = if cap == usize::MAX {
            "cap_inf".to_string()
        } else {
            format!("cap{cap}")
        };
        grid.push(Cell::new(tag, System::FlowerCdn, crowd_params(&opts, cap)));
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
    let grouped = run_cells(&grid, &sweep_opts, |cell, seed| {
        let r = execute_cell(cell, seed, &sweep_opts);
        let structure = Structure {
            instances: r.gauges.last("dring_size").unwrap_or(0.0),
            max_instance: r.gauges.last("instance_depth_max").unwrap_or(0.0),
            max_load: r.gauges.last("petal_size_max").unwrap_or(0.0),
            splits: r.splits as f64,
            hit_ratio: r.stats.hit_ratio(),
        };
        (r.summary(), structure, r.perf)
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
        "capacity",
        "runs",
        "instances_mean",
        "max_instance_mean",
        "max_load_mean",
        "splits_mean",
        "hit_ratio_mean",
        "hit_ratio_stddev",
    ]);
    for (i, &cap) in capacities.iter().enumerate() {
        let field = |get: fn(&Structure) -> f64| {
            aggregate(
                &grouped[i]
                    .iter()
                    .map(|(_, (_, s, _))| get(s))
                    .collect::<Vec<_>>(),
            )
        };
        let instances = field(|s| s.instances);
        let max_instance = field(|s| s.max_instance);
        let max_load = field(|s| s.max_load);
        let splits = field(|s| s.splits);
        let hit = field(|s| s.hit_ratio);
        rendered.push(vec![
            if cap == usize::MAX {
                "∞ (no splits)".to_string()
            } else {
                cap.to_string()
            },
            format!("{:.1}", instances.mean),
            format!("{:.1}", max_instance.mean),
            format!("{:.1}", max_load.mean),
            format!("{:.1}", splits.mean),
            fmt_mean_spread(&hit, 3),
        ]);
        csv.row(&[
            if cap == usize::MAX {
                "inf".into()
            } else {
                cap.to_string()
            },
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

    let dir = opts.results_dir();
    let path = dir.join("ablation_petalup.csv");
    csv.save(&path).expect("write results csv");
    let runs_path = dir.join("ablation_petalup_runs.csv");
    runs_csv(&cells).save(&runs_path).expect("write runs csv");
    println!("wrote {} and {}", path.display(), runs_path.display());
    if let Some(p) = &opts.profile_out {
        flower_bench::write_profile_report(p, &cells);
    }
}
