//! Resilience sweep: a scripted fault schedule — directory assassination,
//! a locality partition that heals, a flash-crowd join wave, a lossy-link
//! window and an origin brownout — applied *identically* to Flower-CDN and
//! Squirrel, with recovery measured from the trace stream.
//!
//! The headline numbers are the paper's §5.2.2 robustness story:
//!
//! * **MTTR** — per killed directory position, the time from the kill to
//!   the first query served by its replacement. Flower-CDN's claim
//!   protocol yields finite MTTRs; Squirrel has no directory replacement
//!   at all, so its tracked recoveries stay at zero and the loss shows up
//!   as a lasting hit-ratio dent instead.
//! * **Degraded-mode availability** — the bucketed overlay hit ratio
//!   around each fault (queries answered by the overlay vs falling back
//!   to the origin).
//!
//! "Kill the directories" means different things per system, on purpose:
//! for Flower-CDN it fails every live D-ring directory peer; for Squirrel
//! it fails the ring owners of each website's hottest objects (its de
//! facto directories). Each system loses its own directory layer.
//!
//! Runs fan out over the sweep orchestrator: with `--seeds` every
//! (system, seed) pair is an independent run on the worker pool, and the
//! availability timeline is averaged across seeds.
//!
//! ```sh
//! cargo run --release -p flower-bench --bin resilience            # paper scale
//! cargo run --release -p flower-bench --bin resilience -- --quick # smoke test
//! cargo run --release -p flower-bench --bin resilience -- --quick --assert-recovery
//! cargo run --release -p flower-bench --bin resilience -- --scenario my.scenario
//! cargo run --release -p flower-bench --bin resilience -- --seeds 1..6 --jobs 4
//! ```
//!
//! `--assert-recovery` turns the report into hard assertions (used by
//! `ci.sh`): Flower-CDN must replace killed directories and serve from the
//! replacements with finite MTTR, Squirrel must show zero replacements,
//! and the Flower-CDN runs must pass the protocol invariant checker.

use std::collections::BTreeMap;

use cdn_metrics::Csv;
use chaos::FaultAction;
use flower_bench::{canned_resilience_scenario, HarnessOpts};
use flower_cdn::invariants::InvariantConfig;
use flower_cdn::{InvariantChecker, ResilienceSummary, ResilienceTracker, RunResult, System};
use sweep::{run_grid_with, Grid};

/// What one run's trace sinks concluded, and where its hit ratio ended.
struct SystemRun {
    final_hit_ratio: f64,
    resilience: ResilienceSummary,
    /// Invariant violations (Flower-CDN only; empty for Squirrel).
    violations: Vec<String>,
}

/// The printed report's columns, which are the CSV's.
const HEADER: [&str; 8] = [
    "system",
    "seed",
    "dirs_killed",
    "replaced",
    "served",
    "mean_ttr_s",
    "worst_hit_ratio_after_kill",
    "final_hit_ratio",
];

fn main() {
    let opts = HarnessOpts::parse(&["--population", "--assert-recovery"]);
    let params = opts.params(3_000);
    println!("{}", params.table1());

    // Availability-timeline resolution: fine enough to resolve the
    // degraded windows, coarse enough to keep buckets populated.
    let bucket_ms = (params.horizon_ms / 48).max(60_000);

    let seeds = opts.seed_list(params.seed);
    let mut grid = Grid::new(seeds.clone());
    for (label, system) in [
        ("flower", System::FlowerCdn),
        ("squirrel", System::Squirrel),
    ] {
        let mut cell = opts.cell(label, system, params.clone());
        // An explicit --scenario replaces the canned schedule.
        cell.scenario
            .get_or_insert_with(|| canned_resilience_scenario(&params));
        grid.push(cell);
    }
    let scenario = grid.cells[0].scenario.clone().expect("set just above");
    println!("fault schedule:\n{scenario}");
    println!(
        "running Flower-CDN and Squirrel under the schedule, seeds {seeds:?}, --jobs {}…",
        opts.jobs()
    );

    let mean_uptime_ms = params.mean_uptime_ms;
    let (cells, runs) = run_grid_with(&grid, &opts.sweep_opts(), |cell, sim| {
        // The trackers are Rc-based (not Send): each worker builds its
        // own inside the run and moves only the owned summary out.
        let tracker = ResilienceTracker::new(bucket_ms);
        let checker = (cell.system == System::FlowerCdn).then(|| {
            // A ghost holder purges via position self-checks whose misses
            // reset whenever stale ring state makes it look reachable, so
            // under dense churn an overlap can far outlive the default
            // 150 s grace. A ghost should never outlive a mean session,
            // though — scale the grace to the churn law.
            InvariantChecker::with_config(InvariantConfig {
                replacement_grace_ms: mean_uptime_ms.max(150_000),
            })
        });
        sim.add_trace_sink_boxed(Box::new(tracker.clone()));
        if let Some(c) = &checker {
            sim.add_trace_sink_boxed(Box::new(c.clone()));
        }
        move |r: RunResult| SystemRun {
            final_hit_ratio: r.stats.hit_ratio(),
            resilience: tracker.summary(),
            violations: checker.map(|c| c.violations()).unwrap_or_default(),
        }
    });
    // Every cell ran the same seed list, in order.
    let by_seed =
        |i: usize| -> Vec<(u64, &SystemRun)> { seeds.iter().copied().zip(&runs[i]).collect() };
    let flower_runs = &by_seed(0);
    let squirrel_runs = &by_seed(1);

    let kill_at = scenario
        .iter()
        .find(|f| matches!(f.action, FaultAction::KillDirectories { .. }))
        .map(|f| f.at_ms)
        .unwrap_or(0);

    let mut rows = Vec::new();
    for (label, runs) in [("Flower-CDN", flower_runs), ("Squirrel", squirrel_runs)] {
        for (seed, run) in runs {
            let r = &run.resilience;
            rows.push(vec![
                label.to_string(),
                seed.to_string(),
                r.recoveries.len().to_string(),
                r.replaced().to_string(),
                r.served().to_string(),
                r.mean_ttr_ms()
                    .map_or(String::new(), |ms| format!("{:.3}", ms / 1_000.0)),
                r.worst_hit_ratio_after(kill_at)
                    .map_or(String::new(), |w| format!("{w:.4}")),
                format!("{:.4}", run.final_hit_ratio),
            ]);
        }
    }
    let csv = flower_bench::print_table(
        "\nresilience report (MTTR = directory kill → first replacement-served query)",
        &HEADER,
        &rows,
    );
    println!(
        "(Squirrel tracks zero recoveries by construction: it has no \
         directory replacement protocol, so a killed directory is simply \
         gone — the paper's point.)"
    );
    let path = opts.results_dir().join("resilience.csv");
    csv.save(&path).expect("write results csv");
    println!("wrote {}", path.display());
    flower_bench::write_profile_report(&opts, &cells);

    // Availability timeline: one row per bucket, both systems side by
    // side (hit ratio of queries answered by the overlay vs the origin),
    // averaged across seeds.
    let mut buckets: BTreeMap<u64, [Vec<f64>; 2]> = BTreeMap::new();
    for (i, runs) in [flower_runs, squirrel_runs].into_iter().enumerate() {
        for (_, run) in runs {
            for (start_ms, hits, total) in run.resilience.availability.buckets() {
                buckets.entry(start_ms).or_default()[i].push(hits as f64 / total as f64);
            }
        }
    }
    let mut avail = Csv::new(&["hours", "flower_hit_ratio", "squirrel_hit_ratio"]);
    for (start_ms, [f, s]) in &buckets {
        let fmt = |vs: &Vec<f64>| {
            if vs.is_empty() {
                String::new()
            } else {
                format!("{:.4}", vs.iter().sum::<f64>() / vs.len() as f64)
            }
        };
        avail.row(&[
            format!("{:.2}", *start_ms as f64 / 3_600_000.0),
            fmt(f),
            fmt(s),
        ]);
    }
    let apath = opts.results_dir().join("resilience_availability.csv");
    avail.save(&apath).expect("write availability csv");
    println!("wrote {}", apath.display());

    for (seed, run) in flower_runs {
        if !run.violations.is_empty() {
            eprintln!(
                "Flower-CDN invariant violations under the schedule (seed {seed}):\n{}",
                run.violations.join("\n")
            );
        }
    }

    if opts.assert_recovery {
        for (seed, run) in flower_runs {
            let r = &run.resilience;
            assert!(
                !r.recoveries.is_empty(),
                "seed {seed}: the kill wave should have hit at least one tracked directory"
            );
            assert!(
                r.replaced() > 0,
                "seed {seed}: Flower-CDN should install replacement directories (§5.2.2)"
            );
            assert!(
                r.served() > 0,
                "seed {seed}: a replacement should go on to serve a query"
            );
            let ttr = r.mean_ttr_ms().expect("served > 0 implies a TTR");
            assert!(
                ttr.is_finite() && ttr > 0.0,
                "seed {seed}: MTTR should be finite: {ttr}"
            );
            assert!(
                run.violations.is_empty(),
                "seed {seed}: invariants must hold under chaos:\n{}",
                run.violations.join("\n")
            );
        }
        for (seed, run) in squirrel_runs {
            assert_eq!(
                run.resilience.replaced(),
                0,
                "seed {seed}: Squirrel has no replacement protocol; a nonzero count \
                 means the tracker is mislabelling events"
            );
        }
        let first = &flower_runs[0].1.resilience;
        println!(
            "recovery assertions passed over {} seed(s): first seed killed {} \
             directories, {} replaced, {} served, mean TTR {:.1} s",
            flower_runs.len(),
            first.recoveries.len(),
            first.replaced(),
            first.served(),
            first.mean_ttr_ms().unwrap_or(0.0) / 1_000.0
        );
    }
}
