//! Execute a grid: one deterministic simulation per (cell, seed), fanned
//! out over the worker pool, with per-run trace/gauge capture on request.

use std::path::PathBuf;
use std::time::Instant;

use cdn_metrics::RunSummary;
use flower_cdn::{run_system_with, set_up_run, RunResult, System};

use crate::grid::{Cell, Grid};
use crate::pool::par_map_progress;

/// Orchestrator knobs (the bench harness's `--jobs`, `--gauges`,
/// `--trace-out` flags map here).
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads. The aggregate output is byte-identical for any
    /// value; only wall-clock time changes.
    pub jobs: usize,
    /// Sample gauges with this virtual-time period in every run.
    pub gauge_period_ms: Option<u64>,
    /// Capture every run's trace stream as JSON lines under this
    /// directory, one `<cell-label>_s<seed>.jsonl` file per run.
    pub trace_dir: Option<PathBuf>,
    /// Print a live progress line (to stderr) as each run completes.
    pub progress: bool,
    /// Enable the performance profiler in every run, filling each
    /// [`CellResult::perf`]. Off by default: perf cells carry wall-clock
    /// measurements, so they are the one sweep output that is *not*
    /// byte-identical across machines or `--jobs` values.
    pub profile: bool,
}

impl Default for SweepOpts {
    fn default() -> SweepOpts {
        SweepOpts {
            jobs: default_jobs(),
            gauge_period_ms: None,
            trace_dir: None,
            progress: false,
            profile: false,
        }
    }
}

/// The `--jobs` default: available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one cell produced: its identity plus one [`RunSummary`]
/// per seed, in the grid's seed order.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub label: String,
    pub system: System,
    pub population: usize,
    pub runs: Vec<(u64, RunSummary)>,
    /// One perf cell per profiled run, in seed order. Empty unless the
    /// sweep ran with [`SweepOpts::profile`].
    pub perf: Vec<(u64, profile::RunPerf)>,
}

impl CellResult {
    /// The one place a cell's finished runs become a `CellResult`: one
    /// `(seed, summary, perf cell)` per run, in seed order. (Summaries, not
    /// whole [`RunResult`]s, so a big grid need not keep every run's query
    /// records alive until the last one finishes.)
    pub fn from_runs(
        cell: &Cell,
        runs: impl IntoIterator<Item = (u64, RunSummary, Option<profile::RunPerf>)>,
    ) -> CellResult {
        let mut out = CellResult {
            label: cell.label.clone(),
            system: cell.system,
            population: cell.params.population,
            runs: Vec::new(),
            perf: Vec::new(),
        };
        for (seed, summary, perf) in runs {
            out.runs.push((seed, summary));
            out.perf.extend(perf.map(|p| (seed, p)));
        }
        out
    }

    /// This cell's values for one metric (schema name from
    /// [`RunSummary::COLUMNS`]), in seed order.
    pub fn metric_values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|(_, s)| {
                s.metrics()
                    .iter()
                    .find(|&&(n, _)| n == metric)
                    .map(|&(_, v)| v)
            })
            .collect()
    }

    /// Mean/stddev/CI of one metric across this cell's seeds.
    pub fn agg(&self, metric: &str) -> crate::aggregate::MetricAgg {
        crate::aggregate::aggregate(&self.metric_values(metric))
    }
}

/// A file-name-safe version of a cell label.
fn safe_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Run one (cell, seed) through the [`flower_cdn::SimDriver`] surface,
/// set up by [`set_up_run`] like every single-run harness invocation.
pub fn execute_cell(cell: &Cell, seed: u64, opts: &SweepOpts) -> RunResult {
    let mut params = cell.params.clone();
    params.seed = seed;
    let trace_path = opts.trace_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create trace dir");
        dir.join(format!("{}_s{seed}.jsonl", safe_label(&cell.label)))
    });
    run_system_with(cell.system, params, |sim| {
        set_up_run(
            sim,
            opts.profile,
            trace_path,
            opts.gauge_period_ms,
            cell.scenario.as_ref(),
        );
    })
}

/// Fan a grid out over the pool with a *custom* per-run runner, for
/// harnesses that need more than a [`RunSummary`] (full records, custom
/// trace sinks, resilience trackers). Returns one `Vec<(seed, R)>` per
/// cell, aligned with `grid.cells` and `grid.seeds` order regardless of
/// completion order.
pub fn run_cells<R, F>(grid: &Grid, opts: &SweepOpts, runner: F) -> Vec<Vec<(u64, R)>>
where
    R: Send,
    F: Fn(&Cell, u64) -> R + Sync,
{
    let job_list: Vec<(usize, u64)> = grid
        .cells
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| grid.seeds.iter().map(move |&s| (ci, s)))
        .collect();
    let total = job_list.len();
    let started = Instant::now();
    let results = par_map_progress(
        &job_list,
        opts.jobs,
        |_, &(ci, seed)| runner(&grid.cells[ci], seed),
        |idx, done| {
            if opts.progress {
                let (ci, seed) = job_list[idx];
                eprintln!(
                    "[{done}/{total}] {} seed={} done ({:.1}s elapsed)",
                    grid.cells[ci].label,
                    seed,
                    started.elapsed().as_secs_f64()
                );
            }
        },
    );
    let mut grouped: Vec<Vec<(u64, R)>> = grid.cells.iter().map(|_| Vec::new()).collect();
    for ((ci, seed), r) in job_list.into_iter().zip(results) {
        grouped[ci].push((seed, r));
    }
    grouped
}

/// Run the whole grid and summarize every run: the orchestrator's main
/// entry point. Deterministic for any `opts.jobs`.
pub fn run_grid(grid: &Grid, opts: &SweepOpts) -> Vec<CellResult> {
    let grouped = run_cells(grid, opts, |cell, seed| {
        let r = execute_cell(cell, seed, opts);
        (r.summary(), r.perf)
    });
    grid.cells
        .iter()
        .zip(grouped)
        .map(|(cell, runs)| {
            let runs = runs
                .into_iter()
                .map(|(seed, (sum, perf))| (seed, sum, perf));
            CellResult::from_runs(cell, runs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_made_file_safe() {
        assert_eq!(safe_label("flower p=3000 (churn)"), "flower-p-3000--churn-");
        assert_eq!(safe_label("ok_name-1.2"), "ok_name-1.2");
    }
}
