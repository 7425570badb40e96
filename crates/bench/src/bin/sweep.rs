//! The §6 experiment grid in one command: a parallel multi-seed sweep of
//! both systems across populations and churn/fault variants, aggregated
//! into schema-stable `runs.csv` / `summary.csv` files.
//!
//! The default grid replays the paper's evaluation axes —
//! {Flower-CDN, Squirrel} × P ∈ {1000, 3000} × {no-churn, churn,
//! resilience scenario} × 5 seeds — with mean/stddev/95% CI per metric.
//! The aggregate files are byte-identical for any `--jobs` value (the
//! orchestrator's determinism contract; `ci.sh` diffs `--jobs 2` against
//! `--jobs 1` on every run).
//!
//! ```sh
//! cargo run --release -p flower-bench --bin sweep                  # paper scale
//! cargo run --release -p flower-bench --bin sweep -- --quick      # minutes
//! cargo run --release -p flower-bench --bin sweep -- --smoke      # seconds (CI)
//! cargo run --release -p flower-bench --bin sweep -- --jobs 4 --seeds 1..11
//! cargo run --release -p flower-bench --bin sweep -- --smoke --out results/sweep_j2 --jobs 2
//! ```

use std::path::PathBuf;

use cdn_metrics::ascii_table;
use flower_bench::{canned_resilience_scenario, fmt_mean_spread, HarnessOpts, Scale};
use flower_cdn::{SimParams, System};
use sweep::{run_grid, runs_csv, summary_csv, Grid};

/// One grid point's parameters: the invocation's shape at population
/// `pop`.
fn params_at(opts: &HarnessOpts, pop: usize) -> SimParams {
    let mut p = if opts.smoke {
        let mut p = SimParams::quick(pop, 20 * 60_000);
        p.catalog.websites = 4;
        p.catalog.active_websites = 2;
        p.catalog.objects_per_site = 50;
        p
    } else {
        opts.params(pop)
    };
    p.population = pop;
    p
}

fn main() {
    // The population is one of this binary's grid axes, so `--population`
    // is refused; nothing is written from gauge samples.
    let opts = HarnessOpts::parse(&["--smoke"]);

    // Grid axes per scale. --smoke is the CI configuration: tiny sims,
    // two variants, two seeds — seconds of wall clock.
    let (populations, default_seed_count, variants): (Vec<usize>, usize, &[&str]) = if opts.smoke {
        (vec![60, 120], 2, &["churn", "resilience"])
    } else {
        match opts.scale {
            Scale::Paper => (vec![1_000, 3_000], 5, &["nochurn", "churn", "resilience"]),
            Scale::Quick => (vec![150, 300], 3, &["nochurn", "churn", "resilience"]),
        }
    };
    let seeds = opts.seed_list_n(1, default_seed_count);

    let mut grid = Grid::new(seeds.clone());
    for &pop in &populations {
        for (tag, system) in [
            ("flower", System::FlowerCdn),
            ("squirrel", System::Squirrel),
        ] {
            for &variant in variants {
                let mut params = params_at(&opts, pop);
                if variant == "nochurn" {
                    // The paper's churn law (uptime ≪ horizon) is the
                    // baseline; "no churn" pushes the mean session far
                    // past the horizon so nobody ever leaves.
                    params.mean_uptime_ms = params.horizon_ms * 1_000;
                }
                let mut cell = opts.cell(format!("{tag}_p{pop}_{variant}"), system, params);
                if variant == "resilience" {
                    // An explicit --scenario replaces the canned schedule.
                    cell.scenario
                        .get_or_insert_with(|| canned_resilience_scenario(&cell.params));
                }
                grid.push(cell);
            }
        }
    }

    println!(
        "sweep grid: {} cells × seeds {seeds:?} = {} runs  (systems × P {:?} × {:?}), --jobs {}",
        grid.cells.len(),
        grid.total_runs(),
        populations,
        variants,
        opts.jobs()
    );

    let started = std::time::Instant::now();
    let results = run_grid(&grid, &opts.sweep_opts());
    eprintln!(
        "{} runs finished in {:.1}s on {} worker(s)",
        grid.total_runs(),
        started.elapsed().as_secs_f64(),
        opts.jobs()
    );

    let rendered: Vec<Vec<String>> = results
        .iter()
        .map(|cell| {
            vec![
                cell.label.clone(),
                fmt_mean_spread(&cell.agg("hit_ratio"), 3),
                format!("{:.0} ms", cell.agg("mean_lookup_ms").mean),
                format!("{:.0} ms", cell.agg("mean_transfer_ms").mean),
                format!("{:.1}", cell.agg("messages_per_query").mean),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            "Sweep: per-cell aggregates across seeds",
            &["cell", "hit ratio", "lookup", "transfer", "msgs/query"],
            &rendered,
        )
    );

    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/sweep"));
    std::fs::create_dir_all(&dir).expect("create output dir");
    runs_csv(&results)
        .save(dir.join("runs.csv"))
        .expect("write runs.csv");
    summary_csv(&results)
        .save(dir.join("summary.csv"))
        .expect("write summary.csv");
    println!("wrote {}/runs.csv, summary.csv", dir.display());
    flower_bench::write_profile_report(&opts, &results);
}
