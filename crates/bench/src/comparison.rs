//! The comparison behind Figures 3–5: both systems × every requested
//! seed through the sweep path, with the per-seed query records pooled
//! into one stream per system so the figure code is seed-count agnostic.

use cdn_metrics::{GaugeRegistry, QueryRecord, QueryStats};
use flower_cdn::{RunResult, SimParams, System};
use sweep::{run_grid_with, CellResult, Grid};

use crate::HarnessOpts;

/// One system's view of a multi-seed comparison: the per-seed query
/// records pooled (in seed order) plus stats recomputed over the pool,
/// so histograms and time series aggregate across seeds for free.
pub struct SystemOut {
    pub records: Vec<QueryRecord>,
    pub stats: QueryStats,
    /// Gauge series merged across seeds (exactly one run's series when a
    /// single seed is used).
    pub gauges: GaugeRegistry,
}

impl SystemOut {
    fn pool(runs: Vec<(Vec<QueryRecord>, GaugeRegistry)>) -> SystemOut {
        let mut out = SystemOut {
            records: Vec::new(),
            stats: QueryStats::default(),
            gauges: GaugeRegistry::new(),
        };
        for (records, gauges) in runs {
            out.gauges.merge(&gauges);
            for q in &records {
                out.stats.record(q);
            }
            out.records.extend(records);
        }
        out
    }
}

/// Everything a comparison sweep produced.
pub struct ComparisonOut {
    pub flower: SystemOut,
    pub squirrel: SystemOut,
    /// Per-run summaries in the sweep's stable schema (for
    /// `*_runs.csv` artifacts), cells in [flower, squirrel] order.
    pub cells: Vec<CellResult>,
}

/// Run Flower-CDN and Squirrel under `params` for every seed the
/// invocation asks for, on the shared worker pool.
pub fn run_comparison_sweep(opts: &HarnessOpts, params: SimParams) -> ComparisonOut {
    let mut grid = Grid::new(opts.seed_list(params.seed));
    grid.push(opts.cell("flower", System::FlowerCdn, params.clone()));
    grid.push(opts.cell("squirrel", System::Squirrel, params));
    let (cells, pooled) = run_grid_with(&grid, &opts.sweep_opts(), |_, _| {
        |r: RunResult| (r.records, r.gauges)
    });
    let mut pooled = pooled.into_iter().map(SystemOut::pool);
    ComparisonOut {
        flower: pooled.next().expect("flower cell"),
        squirrel: pooled.next().expect("squirrel cell"),
        cells,
    }
}
