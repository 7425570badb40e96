//! Shared harness for the figure/table regeneration binaries.
//!
//! Every grid binary accepts (see [`opts::USAGE`]):
//!
//! * `--quick` — a reduced-scale run (minutes of virtual time, small
//!   population) for smoke-testing the pipeline;
//! * `--seed N` / `--seeds a,b,c|start..end` — one run or a multi-seed
//!   sweep; multi-seed harnesses aggregate across seeds;
//! * `--jobs N` — worker threads (default: available cores; the
//!   aggregated output never depends on it);
//! * `--out DIR` — result-file directory (default `results/`);
//! * `--trace-out DIR` — stream every simulation event of every run as
//!   JSON lines to `DIR/<cell-label>_s<seed>.jsonl`; one query's causal
//!   path is the set of lines sharing its `qid`;
//! * `--profile-out PATH` — enable the performance profiler (phase
//!   timers, per-message-class accounting) in every run and write the
//!   collected cells as one `BENCH`-schema report to `PATH`;
//! * `--scenario FILE` — apply a [`chaos`] fault schedule (scenario text
//!   format; see `DESIGN.md` §7) identically to every run, in place of
//!   any canned schedule.
//!
//! These reach the runs one way: [`HarnessOpts::sweep_opts`] and
//! [`HarnessOpts::cell`] into [`sweep::run_grid_with`]. Four more flags
//! mean something only to some binaries; each `main` names the ones it
//! acts on in its [`HarnessOpts::parse`] call and the rest exit 2 with
//! the usage text, like any unknown flag:
//!
//! * `--population N` — override the mean population (not
//!   `table2_scalability` and `sweep`, which sweep it);
//! * `--gauges MS` — sample live gauges (population, D-ring size, petal
//!   sizes, per-class message rates) every `MS` of virtual time
//!   (`figures_p3000` charts and writes them, `ablation_petalup` reads
//!   its structure columns from them);
//! * `--assert-recovery` — `resilience` only; `--smoke` — `sweep` only.
//!
//! Without flags, binaries run the **paper-scale** configuration
//! (Table 1: 24 simulated hours, 100 websites × 500 objects, k = 6,
//! uptime 60 min) — expect minutes of wall-clock time per simulated
//! system. Results are written under `results/` as CSV and rendered as
//! ASCII charts on stdout, plus the [`sweep`] orchestrator's
//! schema-stable `*_runs.csv` per-run rows.

pub mod comparison;
pub mod opts;
pub mod scenarios;

use cdn_metrics::Csv;
use sweep::CellResult;

pub use comparison::{run_comparison_sweep, ComparisonOut, SystemOut};
pub use opts::{HarnessOpts, OptsError, Scale, USAGE};
pub use scenarios::canned_resilience_scenario;

/// `mean ±stddev` when a cell aggregated several seeds, plain mean
/// otherwise — for the binaries' ASCII tables.
pub fn fmt_mean_spread(agg: &sweep::MetricAgg, precision: usize) -> String {
    if agg.n > 1 {
        format!("{:.p$} ±{:.p$}", agg.mean, agg.stddev, p = precision)
    } else {
        format!("{:.p$}", agg.mean, p = precision)
    }
}

/// Under `--profile-out PATH`: write every perf cell the sweep collected
/// as one BENCH-schema report, labelled with the file stem less a `BENCH_`
/// prefix (`--profile-out BENCH_figures.json` labels the report `figures`).
pub fn write_profile_report(opts: &HarnessOpts, cells: &[CellResult]) {
    let Some(path) = &opts.profile_out else {
        return;
    };
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let label = stem.strip_prefix("BENCH_").unwrap_or(&stem);
    let perf: Vec<profile::RunPerf> = cells
        .iter()
        .flat_map(|c| c.perf.iter().map(|(_, p)| p.clone()))
        .collect();
    let report = profile::BenchReport::new(label, perf);
    report.save(path).expect("write profile report");
    eprintln!("wrote {}", path.display());
}

/// The tail of a table-shaped binary: its table as `table_name`, the
/// per-run rows as `runs_name`, both under the `--out` directory, and the
/// `--profile-out` report.
pub fn write_results(
    opts: &HarnessOpts,
    table_name: &str,
    table: &Csv,
    runs_name: &str,
    cells: &[CellResult],
) {
    let dir = opts.results_dir();
    let path = dir.join(table_name);
    table.save(&path).expect("write results csv");
    let runs_path = dir.join(runs_name);
    sweep::runs_csv(cells)
        .save(&runs_path)
        .expect("write runs csv");
    println!("wrote {} and {}", path.display(), runs_path.display());
    write_profile_report(opts, cells);
}
