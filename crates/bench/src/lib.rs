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
pub mod scenarios;

use cdn_metrics::{ascii_table, Csv};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_report_is_labelled_by_its_file_stem() {
        let dir = std::env::temp_dir().join(format!("flower_bench_label_{}", std::process::id()));
        let path = dir.join("BENCH_x.json");
        let opts = HarnessOpts {
            profile_out: Some(path.clone()),
            ..HarnessOpts::default()
        };
        write_profile_report(&opts, &[]);
        let json = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(
            json,
            "{\"schema\":\"bench-v1\",\"label\":\"x\",\"cells\":[\n]}\n"
        );
    }
}
