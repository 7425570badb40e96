//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary accepts (see [`opts::USAGE`]):
//!
//! * `--quick` — a reduced-scale run (minutes of virtual time, small
//!   population) for smoke-testing the pipeline;
//! * `--population N` — override the mean population (where applicable);
//! * `--seed N` / `--seeds a,b,c|start..end` — one run or a multi-seed
//!   sweep; multi-seed harnesses aggregate across seeds;
//! * `--jobs N` — worker threads for multi-run harnesses (default:
//!   available cores; the aggregated output never depends on it);
//! * `--out DIR` — result-file directory (default `results/`);
//! * `--trace-out PATH` — stream every simulation event as JSON lines to
//!   `PATH` (Squirrel runs land in a `.squirrel.jsonl` sibling; multi-seed
//!   runs add a `_s<seed>` suffix); one query's causal path is the set of
//!   lines sharing its `qid`;
//! * `--gauges MS` — sample live gauges (population, D-ring size, petal
//!   sizes, per-class message rates) every `MS` of virtual time;
//! * `--profile-out PATH` — enable the performance profiler (phase
//!   timers, per-message-class accounting) in every run and write the
//!   collected cells as one `BENCH`-schema report to `PATH`;
//! * `--scenario FILE` — apply a [`chaos`] fault schedule (scenario text
//!   format; see `DESIGN.md` §7) identically to every simulated system.
//!
//! Without flags, binaries run the **paper-scale** configuration
//! (Table 1: 24 simulated hours, 100 websites × 500 objects, k = 6,
//! uptime 60 min) — expect minutes of wall-clock time per simulated
//! system. Results are written under `results/` as CSV and rendered as
//! ASCII charts on stdout. Multi-run harnesses fan out over the
//! [`sweep`] orchestrator and also emit the sweep's schema-stable
//! `*_runs.csv` per-run artifacts.

pub mod comparison;
pub mod opts;
pub mod scenarios;

pub use comparison::{
    profile_label, run_comparison_sweep, run_harness_cell, write_profile_report, ComparisonOut,
    SystemOut,
};
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
