//! The perf cell of a profiled run: what it cost, phase by phase and
//! message class by message class. The `flower-bench` harness writes these
//! cells as `BENCH_<label>.json`; the repository benchmark (`benchmark/`)
//! folds their phase and message rows into layers.

/// One aggregated phase: a `a/b/c` path in the scope tree with its hit
/// count, total (inclusive) time and self (exclusive) time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-message-class accounting: sends and wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgRow {
    pub class: String,
    pub count: u64,
    pub bytes: u64,
}

/// Everything one profiled run cost: the perf cell of the BENCH schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPerf {
    /// System label ("Flower-CDN" / "Squirrel").
    pub system: String,
    pub population: u64,
    pub seed: u64,
    /// Simulated horizon actually covered, in virtual hours.
    pub sim_hours: f64,
    /// Wall-clock time of the run in milliseconds.
    pub wall_ms: f64,
    /// Scheduler events processed (deliveries + drops + timers + controls).
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock milliseconds per simulated hour — the ladder's headline
    /// scaling metric.
    pub wall_ms_per_sim_hour: f64,
    /// Peak RSS of the process when the run finished (0 if unavailable).
    pub peak_rss_bytes: u64,
    /// Allocations during the run (0 unless the binary installs the
    /// counting allocator).
    pub allocs: u64,
    /// Allocations per scheduler event.
    pub allocs_per_event: f64,
    /// Flamegraph-style per-phase breakdown, pre-order.
    pub phases: Vec<PhaseRow>,
    /// Per-message-class send counts and wire bytes.
    pub messages: Vec<MsgRow>,
}

impl RunPerf {
    /// Fill the derived rate fields from the raw measurements.
    pub fn with_derived(mut self) -> RunPerf {
        self.events_per_sec = if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        };
        self.wall_ms_per_sim_hour = if self.sim_hours > 0.0 {
            self.wall_ms / self.sim_hours
        } else {
            0.0
        };
        self.allocs_per_event = if self.events > 0 {
            self.allocs as f64 / self.events as f64
        } else {
            0.0
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(system: &str, pop: u64) -> RunPerf {
        RunPerf {
            system: system.to_string(),
            population: pop,
            seed: 1,
            sim_hours: 2.0,
            wall_ms: 1500.0,
            events: 1_000_000,
            events_per_sec: 0.0,
            wall_ms_per_sim_hour: 0.0,
            peak_rss_bytes: 64 << 20,
            allocs: 5_000_000,
            allocs_per_event: 0.0,
            phases: vec![PhaseRow {
                path: "deliver/gossip".into(),
                count: 42,
                total_ns: 9000,
                self_ns: 8000,
            }],
            messages: vec![MsgRow {
                class: "gossip".into(),
                count: 42,
                bytes: 84_000,
            }],
        }
        .with_derived()
    }

    #[test]
    fn derived_fields_follow_raw_measurements() {
        let c = cell("Flower-CDN", 500);
        assert!((c.events_per_sec - 1_000_000.0 / 1.5).abs() < 1.0);
        assert!((c.wall_ms_per_sim_hour - 750.0).abs() < 1e-9);
        assert!((c.allocs_per_event - 5.0).abs() < 1e-9);
    }
}
