//! Table 2: the scalability sweep — hit ratio, mean lookup latency and mean
//! transfer distance for both systems at P ∈ {2000, 3000, 4000, 5000}.
//!
//! Paper shape: Flower-CDN "leverages larger scales to achieve higher
//! improvements" — its hit ratio grows 0.63 → 0.72 with scale while lookup
//! and transfer latencies *drop*; Squirrel's hit also grows but its lookup
//! latency stays ~1.5 s flat (§6.2.2).
//!
//! Runs the whole (population × system × seed) grid through the sweep
//! orchestrator's worker pool; at paper scale expect tens of minutes of
//! wall-clock time.
//!
//! ```sh
//! cargo run --release -p flower-bench --bin table2_scalability [-- --quick]
//! cargo run --release -p flower-bench --bin table2_scalability -- --seeds 1..6 --jobs 4
//! ```

use cdn_metrics::ascii_table;
use flower_bench::{fmt_mean_spread, HarnessOpts, Scale};
use flower_cdn::System;
use sweep::{run_grid, summary_csv, Grid};

fn main() {
    // The population is this binary's sweep axis, so `--population` is
    // refused; nothing is written from gauge samples.
    let opts = HarnessOpts::parse(&[]);
    let base = opts.params(2_000);
    let populations: Vec<usize> = match opts.scale {
        Scale::Paper => vec![2_000, 3_000, 4_000, 5_000],
        Scale::Quick => vec![200, 400, 600],
    };
    println!("{}", base.table1());

    let seeds = opts.seed_list(base.seed);
    let mut grid = Grid::new(seeds.clone());
    for &pop in &populations {
        for (tag, system) in [
            ("squirrel", System::Squirrel),
            ("flower", System::FlowerCdn),
        ] {
            let mut params = base.clone();
            params.population = pop;
            grid.push(opts.cell(format!("{tag}_p{pop}"), system, params));
        }
    }
    println!(
        "sweeping populations {:?} × both systems × seeds {seeds:?} ({} runs, --jobs {})…",
        populations,
        grid.total_runs(),
        opts.jobs()
    );
    let results = run_grid(&grid, &opts.sweep_opts());

    let rendered: Vec<Vec<String>> = results
        .iter()
        .map(|cell| {
            vec![
                cell.population.to_string(),
                cell.system.label().to_string(),
                fmt_mean_spread(&cell.agg("hit_ratio"), 2),
                format!("{:.0} ms", cell.agg("mean_lookup_ms").mean),
                format!("{:.0} ms", cell.agg("mean_transfer_ms").mean),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            "Table 2: Scalability in Flower-CDN and Squirrel",
            &["P", "approach", "hit ratio", "lookup", "transfer"],
            &rendered,
        )
    );

    flower_bench::write_results(
        &opts,
        "table2_scalability.csv",
        &summary_csv(&results),
        "table2_runs.csv",
        &results,
    );
}
