//! Execute a grid: one deterministic simulation per (cell, seed), fanned
//! out over the worker pool.
//!
//! This module is the only road from a `(Cell, seed)` to a run and from
//! runs to [`CellResult`]s: [`execute_cell_with`] is the one function
//! that builds, sets up and runs a simulation, [`run_grid_with`] the one
//! fold; [`execute_cell`] and [`run_grid`] are their hook-less forms.

use std::path::PathBuf;
use std::time::Instant;

use cdn_metrics::RunSummary;
use flower_cdn::{run_system_with, RunResult, SimDriver, System};

use crate::grid::{Cell, Grid};
use crate::pool::par_map_progress;

/// What every run of a sweep is given (the bench harness's `--jobs`,
/// `--gauges`, `--trace-out` and `--profile-out` flags map here; the
/// fault schedule travels in the [`Cell`]).
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
    /// This cell's values for one metric (schema name from
    /// [`RunSummary::COLUMNS`]), in seed order.
    fn metric_values(&self, metric: &str) -> Vec<f64> {
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

/// Set one simulation up for its run, after the caller's own sinks:
/// profiler, JSONL trace stream to `trace_path`, gauges, fault scenario.
/// The order is part of the determinism contract — it is why a sweep run
/// reproduces any other harness invocation of the same (cell, seed) byte
/// for byte. (The profiler goes first so it observes everything the rest
/// emits; it never affects the virtual-time schedule.)
fn set_up_run(sim: &mut dyn SimDriver, trace_path: Option<PathBuf>, cell: &Cell, opts: &SweepOpts) {
    if opts.profile {
        sim.enable_profiling();
    }
    if let Some(path) = trace_path {
        let w = cdn_metrics::JsonlTraceWriter::create(path).expect("create trace file");
        sim.add_trace_sink_boxed(Box::new(w));
    }
    if let Some(period) = opts.gauge_period_ms {
        sim.enable_gauges(period);
    }
    if let Some(sc) = &cell.scenario {
        sim.apply_scenario(sc);
    }
}

/// Run one (cell, seed): build the simulation, let `attach` add the
/// caller's own trace sinks, apply what `opts` and the cell ask for, run
/// to the horizon. Every run of every harness goes through here.
pub fn execute_cell_with(
    cell: &Cell,
    seed: u64,
    opts: &SweepOpts,
    attach: impl FnOnce(&mut dyn SimDriver),
) -> RunResult {
    let mut params = cell.params.clone();
    params.seed = seed;
    let trace_path = opts.trace_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create trace dir");
        dir.join(format!("{}_s{seed}.jsonl", safe_label(&cell.label)))
    });
    run_system_with(cell.system, params, |sim| {
        attach(sim);
        set_up_run(sim, trace_path, cell, opts);
    })
}

/// [`execute_cell_with`] with nothing to attach.
pub fn execute_cell(cell: &Cell, seed: u64, opts: &SweepOpts) -> RunResult {
    execute_cell_with(cell, seed, opts, |_| {})
}

/// Fan a grid out over the pool with a *custom* per-run runner — the
/// fan-out under [`run_grid_with`], public for callers that fold runs
/// their own way (the repository benchmark). Returns one `Vec<(seed, R)>`
/// per cell, aligned with `grid.cells` and `grid.seeds` order regardless
/// of completion order.
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

/// Run the whole grid and fold every run into its cell, keeping what
/// `hook` extracts per run. `hook(cell, sim)` runs on the worker before
/// set-up, where it may attach trace sinks, and returns the closure that
/// is handed the finished [`RunResult`] and keeps what the harness needs
/// of it (records, gauges, a tracker's verdict). Returns the cells plus,
/// aligned with them, one extract per seed in seed order. Deterministic
/// for any `opts.jobs`.
pub fn run_grid_with<H, E, X>(
    grid: &Grid,
    opts: &SweepOpts,
    hook: H,
) -> (Vec<CellResult>, Vec<Vec<X>>)
where
    H: Fn(&Cell, &mut dyn SimDriver) -> E + Sync,
    E: FnOnce(RunResult) -> X,
    X: Send,
{
    let grouped = run_cells(grid, opts, |cell, seed| {
        let mut extract = None;
        let r = execute_cell_with(cell, seed, opts, |sim| extract = Some(hook(cell, sim)));
        let extract = extract.expect("the driver runs the customization");
        // Summaries, not whole `RunResult`s, cross the pool: a big grid
        // need not keep every run's query records alive until the last
        // one finishes.
        (r.summary(), r.perf.clone(), extract(r))
    });
    grid.cells
        .iter()
        .zip(grouped)
        .map(|(cell, runs)| {
            let mut out = CellResult {
                label: cell.label.clone(),
                system: cell.system,
                population: cell.params.population,
                runs: Vec::new(),
                perf: Vec::new(),
            };
            let extracts = runs
                .into_iter()
                .map(|(seed, (summary, perf, x))| {
                    out.runs.push((seed, summary));
                    out.perf.extend(perf.map(|p| (seed, p)));
                    x
                })
                .collect();
            (out, extracts)
        })
        .unzip()
}

/// [`run_grid_with`] with nothing to extract: the orchestrator's main
/// entry point.
pub fn run_grid(grid: &Grid, opts: &SweepOpts) -> Vec<CellResult> {
    run_grid_with(grid, opts, |_, _| |_| ()).0
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
