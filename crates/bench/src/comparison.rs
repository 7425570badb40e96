//! Multi-seed comparison runs for the figure binaries: both systems ×
//! every requested seed, fanned out over the sweep orchestrator's worker
//! pool, with the per-seed results merged into one record stream per
//! system so the figure code is seed-count agnostic.

use std::path::{Path, PathBuf};

use cdn_metrics::{GaugeRegistry, QueryRecord, QueryStats};
use flower_cdn::{
    run_system_with, set_up_run, Instrumentation, RunResult, SimDriver, SimParams, System,
};
use sweep::{run_cells, Cell, CellResult, Grid};

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
    fn merge(runs: Vec<(u64, RunResult)>) -> SystemOut {
        let mut records = Vec::new();
        let mut stats = QueryStats::default();
        let mut gauges = GaugeRegistry::new();
        for (_seed, r) in runs {
            gauges.merge(&r.gauges);
            for q in &r.records {
                stats.record(q);
            }
            records.extend(r.records);
        }
        SystemOut {
            records,
            stats,
            gauges,
        }
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

/// The report label a `--profile-out` path implies: the file stem with a
/// `BENCH_` prefix stripped, so `--profile-out BENCH_figures.json` labels
/// the report `figures`.
pub fn profile_label(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "profile".to_string());
    stem.strip_prefix("BENCH_").unwrap_or(&stem).to_string()
}

/// Write every perf cell the sweep collected as one BENCH-schema report.
pub fn write_profile_report(path: &Path, cells: &[CellResult]) {
    let perf: Vec<profile::RunPerf> = cells
        .iter()
        .flat_map(|c| c.perf.iter().map(|(_, p)| p.clone()))
        .collect();
    let report = profile::BenchReport::new(profile_label(path), perf);
    report.save(path).expect("write profile report");
    eprintln!("wrote {}", path.display());
}

/// Insert `_s<seed>` before the final extension, so multi-seed runs keep
/// one trace file per run: `trace.jsonl` → `trace_s7.jsonl`.
pub fn with_seed_suffix(path: &Path, seed: u64) -> PathBuf {
    match (path.file_stem(), path.extension()) {
        (Some(stem), Some(ext)) => path.with_file_name(format!(
            "{}_s{seed}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            path.with_file_name(format!("{name}_s{seed}"))
        }
    }
}

/// Run one (cell, seed) of a multi-seed harness invocation: `attach` adds
/// the harness's own sinks, then the shared [`set_up_run`] applies `inst`.
/// Single-seed runs keep the classic `--trace-out` semantics (Flower-CDN
/// writes the given path, Squirrel a `.squirrel.jsonl` sibling); `multi`
/// adds a `_s<seed>` suffix per run.
pub fn run_harness_cell(
    inst: &Instrumentation,
    cell: &Cell,
    seed: u64,
    multi: bool,
    attach: impl FnOnce(&mut dyn SimDriver),
) -> RunResult {
    let mut p = cell.params.clone();
    p.seed = seed;
    let trace_path = inst.trace_path(cell.system).map(|base| {
        if multi {
            with_seed_suffix(&base, seed)
        } else {
            base
        }
    });
    run_system_with(cell.system, p, |sim| {
        attach(sim);
        set_up_run(
            sim,
            inst.profile,
            trace_path,
            inst.gauge_period_ms,
            cell.scenario.as_ref(),
        );
    })
}

/// Run Flower-CDN and Squirrel under `params` for every seed the
/// invocation asks for, on the shared worker pool.
pub fn run_comparison_sweep(opts: &HarnessOpts, params: SimParams) -> ComparisonOut {
    let seeds = opts.seed_list(params.seed);
    let multi = seeds.len() > 1;
    let mut grid = Grid::new(seeds);
    for (label, system) in [
        ("flower", System::FlowerCdn),
        ("squirrel", System::Squirrel),
    ] {
        let mut cell = Cell::new(label, system, params.clone());
        if let Some(sc) = opts.scenario_for(&params) {
            cell = cell.with_scenario(sc);
        }
        grid.push(cell);
    }

    let inst = opts.instrumentation();
    let grouped = run_cells(&grid, &opts.sweep_opts(), |cell, seed| {
        run_harness_cell(&inst, cell, seed, multi, |_| {})
    });

    let cells: Vec<CellResult> = grid
        .cells
        .iter()
        .zip(&grouped)
        .map(|(cell, runs)| {
            let runs = runs.iter().map(|(s, r)| (*s, r.summary(), r.perf.clone()));
            CellResult::from_runs(cell, runs)
        })
        .collect();
    if let Some(path) = &opts.profile_out {
        write_profile_report(path, &cells);
    }

    let mut grouped = grouped.into_iter();
    let flower = SystemOut::merge(grouped.next().expect("flower cell"));
    let squirrel = SystemOut::merge(grouped.next().expect("squirrel cell"));
    ComparisonOut {
        flower,
        squirrel,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_suffix_lands_before_the_extension() {
        assert_eq!(
            with_seed_suffix(Path::new("out/trace.jsonl"), 7),
            PathBuf::from("out/trace_s7.jsonl")
        );
        assert_eq!(
            with_seed_suffix(Path::new("out/trace.squirrel.jsonl"), 7),
            PathBuf::from("out/trace.squirrel_s7.jsonl")
        );
        assert_eq!(
            with_seed_suffix(Path::new("noext"), 3),
            PathBuf::from("noext_s3")
        );
    }
}
