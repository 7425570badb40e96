//! # cdn-sweep — the parallel multi-seed experiment orchestrator
//!
//! The paper's evaluation (§6) is a *grid* of runs: systems × populations
//! × churn/fault conditions × seeds. Each simulation is deterministic and
//! single-threaded (`Rc`/`RefCell` inside), but wholly self-contained —
//! so the grid parallelizes perfectly at run granularity. This crate owns
//! that orchestration:
//!
//! * [`grid`] — the declarative grid: [`Cell`]s (label, system, params,
//!   optional fault scenario) × a shared seed list;
//! * [`pool`] — a deterministic worker pool: results are slotted by job
//!   index, so aggregate output is **byte-identical for any `--jobs`**;
//! * [`exec`] — the one road from a `(Cell, seed)` to a run
//!   ([`execute_cell_with`], which owns the set-up order) and from runs
//!   to [`CellResult`]s ([`run_grid_with`], which also hands each
//!   finished run to the caller's hook);
//! * [`mod@aggregate`] — mean / sample stddev / 95% CI per metric per cell,
//!   and the schema-stable `runs.csv` / `summary.csv` writers.
//!
//! ```
//! use flower_cdn::{SimParams, System};
//! use sweep::{run_grid, Cell, Grid, SweepOpts};
//!
//! let mut params = SimParams::quick(60, 20 * 60_000);
//! params.catalog.websites = 4;
//! params.catalog.active_websites = 2;
//! params.catalog.objects_per_site = 50;
//! let mut grid = Grid::new(vec![1, 2]);
//! grid.push(Cell::new("tiny_flower", System::FlowerCdn, params));
//! let results = run_grid(&grid, &SweepOpts { jobs: 2, ..SweepOpts::default() });
//! assert_eq!(results[0].runs.len(), 2);
//! assert!(results[0].runs.iter().all(|(_, s)| s.queries > 0));
//! ```

pub mod aggregate;
pub mod exec;
pub mod grid;
pub mod pool;

pub use aggregate::{aggregate, runs_csv, summary_csv, MetricAgg};
pub use exec::{
    default_jobs, execute_cell, execute_cell_with, run_cells, run_grid, run_grid_with, CellResult,
    SweepOpts,
};
pub use grid::{Cell, Grid};
pub use pool::par_map_progress;
