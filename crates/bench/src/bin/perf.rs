//! Performance trajectory writer: run a ladder of populations for both
//! systems with the profiler on and write one schema-stable
//! `BENCH_<label>.json` report. It records and never judges: whether a
//! change is faster is decided by the repository benchmark (`benchmark/`).
//!
//! ```sh
//! # The rung a perf PR records (P = 150 / 300 / 10 000, both systems, ~3 min):
//! cargo run --release -p flower-bench --bin perf -- \
//!     --quick --jobs 1 --profile-out BENCH_<rung>.json
//!
//! # The same plus P = 50 000 / 100 000 (over an hour; README "Scale" has the bill):
//! cargo run --release -p flower-bench --bin perf -- --jobs 1 --profile-out BENCH_arena.json
//! ```
//!
//! The flags are every harness's ([`flower_bench::USAGE`]); the per-run
//! outcomes go to `perf_runs.csv` under `--out`. Measurement notes: pass
//! `--jobs 1` so cells do not contend for cores (wall-clock numbers are
//! only comparable within one machine anyway); everything in the report
//! *except* the wall-clock-derived fields (`wall_ms`, `events_per_sec`,
//! `wall_ms_per_sim_hour`, `peak_rss_bytes`, `allocs*`) is deterministic —
//! event counts, phase structure and per-message accounting are
//! byte-identical across machines and `--jobs` values.

use cdn_metrics::ascii_table;
use flower_bench::{HarnessOpts, Scale};
use flower_cdn::{shape_params, System};
use sweep::{run_grid, Grid};

/// The seed of every ladder cell unless `--seeds` names others.
const SEED: u64 = 47;

/// The measurement ladder: every (population, system) pair the report
/// carries, in a fixed order. The same `(system, population, seed)` key
/// measures the same workload in every report, so any two `BENCH_*.json`
/// line up on their common cells; paper scale only appends rungs to the
/// `--quick` ladder.
///
/// Every rung runs one simulated hour — several gossip rounds and churn
/// epochs; at or above P = 50k the query period is stretched so a cell
/// stays minutes of wall clock — the point of those rungs is memory
/// footprint and events/sec at scale, not query-count parity.
fn ladder(opts: &HarnessOpts) -> Grid {
    let mut grid = Grid::new(opts.seed_list(SEED));
    let populations: &[usize] = match opts.scale {
        Scale::Paper => &[150, 300, 10_000, 50_000, 100_000],
        Scale::Quick => &[150, 300, 10_000],
    };
    for &pop in populations {
        let mut params = shape_params(pop, SEED);
        params.horizon_ms = 3_600_000;
        params.mean_uptime_ms = 20 * 60_000;
        params.query_period_ms = 2 * 60_000;
        params.gossip_period_ms = 20 * 60_000;
        if pop >= 50_000 {
            params.query_period_ms = 10 * 60_000;
        }
        for (tag, system) in [
            ("flower", System::FlowerCdn),
            ("squirrel", System::Squirrel),
        ] {
            grid.push(opts.cell(format!("{tag}_p{pop}"), system, params.clone()));
        }
    }
    grid
}

fn main() {
    let opts = HarnessOpts::parse(&[]);
    let grid = ladder(&opts);
    // The perf cells are what this binary is for, so profile every run
    // even without --profile-out.
    let mut sweep_opts = opts.sweep_opts();
    sweep_opts.profile = true;
    eprintln!(
        "running the perf ladder: {} cells × seeds {:?}, --jobs {}…",
        grid.cells.len(),
        grid.seeds,
        opts.jobs()
    );
    let started = std::time::Instant::now();
    let results = run_grid(&grid, &sweep_opts);
    eprintln!("ladder finished in {:.1}s", started.elapsed().as_secs_f64());

    let rows: Vec<Vec<String>> = results
        .iter()
        .flat_map(|c| &c.perf)
        .map(|(_, p)| {
            vec![
                p.system.clone(),
                p.population.to_string(),
                p.seed.to_string(),
                p.events.to_string(),
                format!("{:.0}", p.events_per_sec),
                format!("{:.1}", p.wall_ms_per_sim_hour),
                format!("{:.1}", p.peak_rss_bytes as f64 / (1u64 << 20) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            "perf ladder (one simulated hour per cell)",
            &[
                "system",
                "P",
                "seed",
                "events",
                "events/sec",
                "wall ms/sim h",
                "peak RSS MiB"
            ],
            &rows,
        )
    );
    let path = opts.results_dir().join("perf_runs.csv");
    sweep::runs_csv(&results)
        .save(&path)
        .expect("write runs csv");
    println!("wrote {}", path.display());
    flower_bench::write_profile_report(&opts, &results);
}
