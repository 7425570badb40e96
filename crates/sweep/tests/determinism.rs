//! The orchestrator's headline contract: the thread pool never changes
//! results. Same (params, seed, scenario) → identical `RunResult` whether
//! run sequentially or inside the pool, and aggregate files are
//! byte-identical for any `--jobs` value.

use cdn_metrics::parse_trace_line;
use chaos::{FaultAction, Scenario};
use flower_cdn::{ResilienceTracker, RunResult, SimParams, System};
use sweep::{run_grid, run_grid_with, runs_csv, summary_csv, Cell, Grid, SweepOpts};

fn tiny_params(population: usize) -> SimParams {
    let mut p = SimParams::quick(population, 20 * 60_000);
    p.catalog.websites = 4;
    p.catalog.active_websites = 2;
    p.catalog.objects_per_site = 50;
    p
}

fn tiny_grid() -> Grid {
    let mut grid = Grid::new(vec![1, 2]);
    grid.push(Cell::new("flower_p60", System::FlowerCdn, tiny_params(60)));
    grid.push(Cell::new("squirrel_p60", System::Squirrel, tiny_params(60)));
    grid.push(
        Cell::new("flower_p60_chaos", System::FlowerCdn, tiny_params(60)).with_scenario(
            Scenario::new().at(
                5 * 60_000,
                FaultAction::KillDirectories {
                    website: None,
                    count: None,
                },
            ),
        ),
    );
    grid
}

fn opts(jobs: usize) -> SweepOpts {
    SweepOpts {
        jobs,
        ..SweepOpts::default()
    }
}

#[test]
fn aggregate_files_are_byte_identical_for_jobs_1_vs_4() {
    let grid = tiny_grid();
    let seq = run_grid(&grid, &opts(1));
    let par = run_grid(&grid, &opts(4));
    assert_eq!(
        runs_csv(&seq).as_str(),
        runs_csv(&par).as_str(),
        "runs.csv must not depend on --jobs"
    );
    assert_eq!(
        summary_csv(&seq).as_str(),
        summary_csv(&par).as_str(),
        "summary.csv must not depend on --jobs"
    );
}

#[test]
fn pool_runs_match_direct_sequential_runs() {
    let grid = tiny_grid();
    let pooled = run_grid(&grid, &opts(4));
    for (cell, result) in grid.cells.iter().zip(&pooled) {
        for &(seed, ref pooled_summary) in &result.runs {
            let direct = sweep::execute_cell(cell, seed, &opts(1)).summary();
            assert_eq!(
                &direct, pooled_summary,
                "cell {} seed {seed}: pool changed the result",
                cell.label
            );
        }
    }
}

#[test]
fn scenario_cells_reproduce_across_invocations() {
    let grid = tiny_grid();
    let a = run_grid(&grid, &opts(3));
    let b = run_grid(&grid, &opts(2));
    assert_eq!(runs_csv(&a).as_str(), runs_csv(&b).as_str());
}

#[test]
fn cell_results_keep_grid_and_seed_order() {
    let grid = tiny_grid();
    let results = run_grid(&grid, &opts(4));
    let labels: Vec<&str> = results.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, ["flower_p60", "squirrel_p60", "flower_p60_chaos"]);
    for cell in &results {
        let seeds: Vec<u64> = cell.runs.iter().map(|&(s, _)| s).collect();
        assert_eq!(seeds, grid.seeds);
    }
}

#[test]
fn a_hook_changes_no_aggregate_byte() {
    let grid = tiny_grid();
    let plain = run_grid(&grid, &opts(1));
    for jobs in [1, 4] {
        // Both halves of a hook, as `resilience` uses them: a sink of the
        // harness's own attached before set-up, read after the run
        // together with the finished result.
        let (hooked, extracted) = run_grid_with(&grid, &opts(jobs), |_, sim| {
            let tracker = ResilienceTracker::new(60_000);
            sim.add_trace_sink_boxed(Box::new(tracker.clone()));
            move |r: RunResult| {
                let buckets = tracker.summary().availability;
                let traced: u64 = buckets.buckets().map(|(_, _, total)| total).sum();
                (traced, r.records.len() as u64)
            }
        });
        assert_eq!(runs_csv(&plain).as_str(), runs_csv(&hooked).as_str());
        assert_eq!(
            summary_csv(&plain).as_str(),
            summary_csv(&hooked).as_str(),
            "jobs={jobs}"
        );
        // One extract per run, in the cells' seed order: each one agrees
        // with the summary it sits next to.
        for (cell, extracts) in hooked.iter().zip(&extracted) {
            assert_eq!(extracts.len(), cell.runs.len());
            for ((seed, summary), &(traced, records)) in cell.runs.iter().zip(extracts) {
                assert_eq!(traced, summary.queries, "{} seed {seed}", cell.label);
                assert_eq!(records, summary.queries, "{} seed {seed}", cell.label);
            }
        }
    }
}

#[test]
fn trace_dir_gets_one_parseable_file_per_run() {
    let dir = std::env::temp_dir().join(format!("sweep_trace_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut grid = Grid::new(vec![3, 4]);
    grid.push(Cell::new("flower_p60", System::FlowerCdn, tiny_params(60)));
    // A label that is not a file name as it stands.
    grid.push(Cell::new(
        "squirrel p=60",
        System::Squirrel,
        tiny_params(60),
    ));
    let traced = SweepOpts {
        trace_dir: Some(dir.clone()),
        ..opts(2)
    };
    run_grid(&grid, &traced);

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("trace dir created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(
        written,
        [
            "flower_p60_s3.jsonl",
            "flower_p60_s4.jsonl",
            "squirrel-p-60_s3.jsonl",
            "squirrel-p-60_s4.jsonl"
        ]
    );
    for name in &written {
        let text = std::fs::read_to_string(dir.join(name)).expect("trace readable");
        assert!(text.lines().count() > 100, "{name} is nearly empty");
        for line in text.lines() {
            assert!(parse_trace_line(line).is_some(), "{name}: malformed {line}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
