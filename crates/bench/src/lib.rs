//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary takes the flags [`opts::USAGE`] lists. The ones every
//! binary accepts reach the runs one way: [`HarnessOpts::sweep_opts`] and
//! [`HarnessOpts::cell`] into [`sweep::run_grid_with`]. The ones only some
//! binaries act on are named by each `main` in its [`HarnessOpts::parse`]
//! call; the rest exit 2 with the usage text, like any unknown flag.
//!
//! Without flags, binaries run the **paper-scale** configuration
//! (Table 1: 24 simulated hours, 100 websites × 500 objects, k = 6,
//! uptime 60 min) — expect minutes of wall-clock time per simulated
//! system. Results are written under `results/` as CSV and rendered as
//! ASCII charts on stdout, plus the [`sweep`] orchestrator's
//! schema-stable `*_runs.csv` per-run rows.

pub mod comparison;
pub mod opts;
pub mod report;
pub mod scenarios;

use cdn_metrics::{ascii_table, Csv};
use sweep::CellResult;

pub use comparison::{run_comparison_sweep, ComparisonOut, SystemOut};
pub use opts::{HarnessOpts, OptsError, Scale, USAGE};
pub use report::{write_profile_report, BenchReport};
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

/// Print `rows` under `header` as an ASCII table titled `title`, and
/// return the same rows as the CSV the binary writes: what a table-shaped
/// binary prints is its CSV.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> Csv {
    println!("{}", ascii_table(title, header, rows));
    let mut csv = Csv::new(header);
    for row in rows {
        csv.row(row);
    }
    csv
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
