//! Performance trajectory writer: run a ladder of populations for both
//! systems with the profiler enabled and write one schema-stable
//! `BENCH_<label>.json` report. It records and never judges: whether a
//! change is faster is decided by the repository benchmark (`benchmark/`).
//!
//! ```sh
//! # Default ladder (P = 150 / 300 / 10 000, both systems, ~3 min) — the
//! # rung a perf PR records:
//! cargo run --release -p flower-bench --bin perf -- --label <rung> --out .
//!
//! # The same plus P = 50 000 / 100 000 (over an hour; README "Scale" has the bill):
//! cargo run --release -p flower-bench --bin perf -- --scale --label arena --out .
//! ```
//!
//! Measurement notes: runs default to `--jobs 1` so cells do not contend
//! for cores (wall-clock numbers are only comparable within one machine
//! anyway); everything in the report *except* the wall-clock-derived
//! fields (`wall_ms`, `events_per_sec`, `wall_ms_per_sim_hour`,
//! `peak_rss_bytes`, `allocs*`) is deterministic — event counts, phase
//! structure and per-message accounting are byte-identical across
//! machines and `--jobs` values.

use std::path::PathBuf;
use std::process::ExitCode;

use flower_cdn::{shape_params, System};
use profile::BenchReport;
use sweep::{run_grid, Cell, Grid, SweepOpts};

const USAGE: &str = "\
usage: perf [--scale] [--label NAME] [--out DIR] [--seed N] [--jobs N]

  --scale          append P=50k/100k to the default P=150/300/10k ladder
                   (one simulated hour per cell); this is what
                   BENCH_arena.json is generated from
  --label NAME     report label; the file is BENCH_<NAME>.json (default: perf)
  --out DIR        directory for the report file (default: .)
  --seed N         base seed for every cell (default: 47)
  --jobs N         worker threads (default: 1, for quiet wall-clock numbers)
";

struct PerfOpts {
    scale: bool,
    label: String,
    out_dir: PathBuf,
    seed: u64,
    jobs: usize,
}

fn parse_opts() -> Result<PerfOpts, String> {
    let mut o = PerfOpts {
        scale: false,
        label: "perf".to_string(),
        out_dir: PathBuf::from("."),
        seed: 47,
        jobs: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--scale" => o.scale = true,
            "--label" => o.label = value("--label")?,
            "--out" => o.out_dir = PathBuf::from(value("--out")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--jobs" => {
                o.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// The measurement ladder: every (population, system) pair the report
/// carries, in a fixed order. The same `(system, population, seed)` key
/// measures the same workload in every report, so any two `BENCH_*.json`
/// line up on their common cells; `--scale` only appends rungs.
///
/// Every rung runs one simulated hour — several gossip rounds and churn
/// epochs; at or above P = 50k the query period is stretched so a cell
/// stays minutes of wall clock — the point of those rungs is memory
/// footprint and events/sec at scale, not query-count parity.
pub fn ladder(scale: bool, seed: u64) -> Grid {
    let mut grid = Grid::new(vec![seed]);
    let populations: &[usize] = if scale {
        &[150, 300, 10_000, 50_000, 100_000]
    } else {
        &[150, 300, 10_000]
    };
    for &pop in populations {
        let mut params = shape_params(pop, seed);
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
            grid.push(Cell::new(format!("{tag}_p{pop}"), system, params.clone()));
        }
    }
    grid
}

fn run_ladder(o: &PerfOpts) {
    let grid = ladder(o.scale, o.seed);
    let opts = SweepOpts {
        jobs: o.jobs,
        profile: true,
        progress: true,
        ..SweepOpts::default()
    };
    eprintln!(
        "perf {} ladder: {} cells, seed {}, --jobs {}…",
        if o.scale { "scale" } else { "default" },
        grid.cells.len(),
        o.seed,
        o.jobs
    );
    let started = std::time::Instant::now();
    let results = run_grid(&grid, &opts);
    eprintln!("ladder finished in {:.1}s", started.elapsed().as_secs_f64());

    let cells: Vec<profile::RunPerf> = results
        .iter()
        .flat_map(|c| c.perf.iter().map(|(_, p)| p.clone()))
        .collect();
    println!(
        "{:<10} {:>6} {:>10} {:>12} {:>14} {:>12}",
        "system", "P", "events", "events/sec", "wall ms/sim h", "peak RSS MB"
    );
    for p in &cells {
        println!(
            "{:<10} {:>6} {:>10} {:>12.0} {:>14.1} {:>12.1}",
            p.system,
            p.population,
            p.events,
            p.events_per_sec,
            p.wall_ms_per_sim_hour,
            p.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    let report = BenchReport::new(o.label.clone(), cells);
    std::fs::create_dir_all(&o.out_dir).expect("create output dir");
    let path = o.out_dir.join(BenchReport::file_name(&o.label));
    report.save(&path).expect("write BENCH report");
    println!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run_ladder(&o);
    ExitCode::SUCCESS
}
