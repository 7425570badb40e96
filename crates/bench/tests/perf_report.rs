//! What a profiled sweep reports must not depend on how it was scheduled.
//! Wall-clock-derived fields (`wall_ms`, rates, RSS, allocs) naturally
//! vary between runs, but everything else — event counts, phase
//! structure, per-message accounting — must serialise byte-identically
//! across `--jobs` values. This is also the test that drives the `perf`
//! binary's library path (profiled `run_grid` → `BenchReport::to_json`).

use flower_cdn::{shape_params, System};
use profile::{BenchReport, RunPerf};
use sweep::{run_grid, Cell, Grid, SweepOpts};

fn tiny_grid(seed: u64) -> Grid {
    let mut params = shape_params(120, seed);
    params.horizon_ms = 30 * 60_000;
    params.mean_uptime_ms = 10 * 60_000;
    params.query_period_ms = 60_000;
    params.gossip_period_ms = 10 * 60_000;
    let mut grid = Grid::new(vec![seed]);
    grid.push(Cell::new("flower", System::FlowerCdn, params.clone()));
    grid.push(Cell::new("squirrel", System::Squirrel, params));
    grid
}

fn profiled_cells(jobs: usize) -> Vec<RunPerf> {
    let opts = SweepOpts {
        jobs,
        profile: true,
        progress: false,
        ..SweepOpts::default()
    };
    run_grid(&tiny_grid(7), &opts)
        .iter()
        .flat_map(|c| c.perf.iter().map(|(_, p)| p.clone()))
        .collect()
}

/// Zero the wall-clock-derived fields, keeping only what the simulation
/// determines.
fn canonical(mut p: RunPerf) -> RunPerf {
    p.wall_ms = 0.0;
    p.events_per_sec = 0.0;
    p.wall_ms_per_sim_hour = 0.0;
    p.peak_rss_bytes = 0;
    p.allocs = 0;
    p.allocs_per_event = 0.0;
    for ph in &mut p.phases {
        ph.total_ns = 0;
        ph.self_ns = 0;
    }
    p
}

#[test]
fn profiled_reports_are_byte_identical_across_jobs() {
    let serial = profiled_cells(1);
    let threaded = profiled_cells(3);
    assert_eq!(serial.len(), 2, "one perf cell per (system, seed)");

    // The deterministic content is byte-identical across --jobs.
    let a = BenchReport::new("jobs", serial.into_iter().map(canonical).collect());
    let b = BenchReport::new("jobs", threaded.into_iter().map(canonical).collect());
    assert_eq!(a.to_json(), b.to_json());

    // Sanity on the deterministic content itself: both systems counted
    // events, phases and message classes.
    for cell in &a.cells {
        assert!(cell.events > 0, "{} counted no events", cell.system);
        assert!(!cell.phases.is_empty(), "{} has no phases", cell.system);
        assert!(
            !cell.messages.is_empty(),
            "{} has no message rows",
            cell.system
        );
        assert!(
            cell.messages.iter().all(|m| m.count > 0 && m.bytes > 0),
            "{} has an empty message row",
            cell.system
        );
    }
}
