//! The `BENCH_<label>.json` perf-trajectory schema and its writer.
//!
//! Schema (`"bench-v1"`): one [`BenchReport`] per file, holding one
//! [`RunPerf`] cell per (system, population, seed). Key order and number
//! formatting are fixed, so serializing the same data twice is
//! byte-identical — the files are diffable artifacts. Nothing here reads
//! a report back or judges one: claims about speed go through the
//! repository benchmark (`benchmark/`), which brings its own JSON reader.

use std::fmt::Write as _;
use std::path::Path;

/// The current schema tag written into every report.
pub const SCHEMA: &str = "bench-v1";

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

    fn to_json(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{indent}{{\"system\":\"{}\",\"population\":{},\"seed\":{},\
             \"sim_hours\":{:.3},\"wall_ms\":{:.3},\"events\":{},\
             \"events_per_sec\":{:.1},\"wall_ms_per_sim_hour\":{:.3},\
             \"peak_rss_bytes\":{},\"allocs\":{},\"allocs_per_event\":{:.3},",
            escape(&self.system),
            self.population,
            self.seed,
            self.sim_hours,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.wall_ms_per_sim_hour,
            self.peak_rss_bytes,
            self.allocs,
            self.allocs_per_event,
        );
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}  {{\"path\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                escape(&p.path),
                p.count,
                p.total_ns,
                p.self_ns
            );
        }
        out.push_str("],\"messages\":[");
        for (i, m) in self.messages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}  {{\"class\":\"{}\",\"count\":{},\"bytes\":{}}}",
                escape(&m.class),
                m.count,
                m.bytes
            );
        }
        out.push_str("]}");
    }
}

/// A full `BENCH_<label>.json` document: the perf trajectory of one
/// harness invocation across its population ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema: String,
    pub label: String,
    pub cells: Vec<RunPerf>,
}

impl BenchReport {
    pub fn new(label: impl Into<String>, cells: Vec<RunPerf>) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            label: label.into(),
            cells,
        }
    }

    /// Serialize. Byte-stable for equal data: fixed key order, fixed
    /// float precision, trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"label\":\"{}\",\"cells\":[",
            escape(&self.schema),
            escape(&self.label)
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            cell.to_json(&mut out, "  ");
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

    /// The committed `BENCH_*.json` were written by this function: tag,
    /// key order, float precision and line breaks are the schema.
    #[test]
    fn to_json_is_pinned_to_the_byte() {
        let mut bare = cell("Squirrel", 300);
        bare.phases.clear();
        bare.messages.clear();
        let report = BenchReport::new("a \"b\"\\c", vec![cell("Flower-CDN", 500), bare]);
        let expected = r#"{"schema":"bench-v1","label":"a \"b\"\\c","cells":[
  {"system":"Flower-CDN","population":500,"seed":1,"sim_hours":2.000,"wall_ms":1500.000,"events":1000000,"events_per_sec":666666.7,"wall_ms_per_sim_hour":750.000,"peak_rss_bytes":67108864,"allocs":5000000,"allocs_per_event":5.000,"phases":[
    {"path":"deliver/gossip","count":42,"total_ns":9000,"self_ns":8000}],"messages":[
    {"class":"gossip","count":42,"bytes":84000}]},
  {"system":"Squirrel","population":300,"seed":1,"sim_hours":2.000,"wall_ms":1500.000,"events":1000000,"events_per_sec":666666.7,"wall_ms_per_sim_hour":750.000,"peak_rss_bytes":67108864,"allocs":5000000,"allocs_per_event":5.000,"phases":[],"messages":[]}
]}
"#;
        assert_eq!(report.to_json(), expected);
    }

    #[test]
    fn escape_covers_quotes_controls_and_leaves_unicode_alone() {
        assert_eq!(escape("\"\\\n\t\r\u{1}é→"), "\\\"\\\\\\n\\t\\r\\u0001é→");
    }
}
