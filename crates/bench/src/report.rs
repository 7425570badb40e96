//! The `BENCH_<label>.json` perf-trajectory schema and its writer.
//!
//! Schema (`"bench-v1"`): one [`BenchReport`] per file, holding one
//! [`RunPerf`] cell per (system, population, seed). Key order and number
//! formatting are fixed, so serializing the same data twice is
//! byte-identical — the files are diffable artifacts. The report is
//! written through [`cdn_metrics::json::Object`], the writer of the JSONL
//! trace too: this module only names the fields, in order. Nothing here
//! reads a report back or judges one: claims about speed go through the
//! repository benchmark (`benchmark/`), which brings its own JSON reader.

use cdn_metrics::json::Object;
use profile::RunPerf;
use sweep::CellResult;

use crate::HarnessOpts;

/// The current schema tag written into every report.
pub const SCHEMA: &str = "bench-v1";

/// A full `BENCH_<label>.json` document: the perf trajectory of one
/// harness invocation across its population ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub label: String,
    pub cells: Vec<RunPerf>,
}

impl BenchReport {
    pub fn new(label: impl Into<String>, cells: Vec<RunPerf>) -> BenchReport {
        BenchReport {
            label: label.into(),
            cells,
        }
    }

    /// Serialize. Byte-stable for equal data: fixed key order, fixed
    /// float precision, trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Object::open(&mut out);
        o.str("schema", SCHEMA)
            .str("label", &self.label)
            .array("cells", &self.cells, cell_json);
        o.close();
        out.push('\n');
        out
    }
}

/// One cell of the report; its phase and message rows one line each.
fn cell_json(o: &mut Object<'_>, p: &RunPerf) {
    o.str("system", &p.system)
        .u64("population", p.population)
        .u64("seed", p.seed)
        .real("sim_hours", p.sim_hours, 3)
        .real("wall_ms", p.wall_ms, 3)
        .u64("events", p.events)
        .real("events_per_sec", p.events_per_sec, 1)
        .real("wall_ms_per_sim_hour", p.wall_ms_per_sim_hour, 3)
        .u64("peak_rss_bytes", p.peak_rss_bytes)
        .u64("allocs", p.allocs)
        .real("allocs_per_event", p.allocs_per_event, 3)
        .array("phases", &p.phases, |o, ph| {
            o.str("path", &ph.path)
                .u64("count", ph.count)
                .u64("total_ns", ph.total_ns)
                .u64("self_ns", ph.self_ns);
        })
        .array("messages", &p.messages, |o, m| {
            o.str("class", &m.class)
                .u64("count", m.count)
                .u64("bytes", m.bytes);
        });
}

/// Under `--profile-out PATH`: write every perf cell the sweep collected
/// as one BENCH-schema report, labelled with the file stem less a `BENCH_`
/// prefix (`--profile-out BENCH_figures.json` labels the report `figures`).
pub fn write_profile_report(opts: &HarnessOpts, cells: &[CellResult]) {
    let Some(path) = &opts.profile_out else {
        return;
    };
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let label = stem.strip_prefix("BENCH_").unwrap_or(&stem);
    let perf: Vec<RunPerf> = cells
        .iter()
        .flat_map(|c| c.perf.iter().map(|(_, p)| p.clone()))
        .collect();
    let report = BenchReport::new(label, perf);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create profile report directory");
    }
    std::fs::write(path, report.to_json()).expect("write profile report");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use profile::{MsgRow, PhaseRow};

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
    fn profile_report_is_labelled_by_its_file_stem() {
        let dir = std::env::temp_dir().join(format!("flower_bench_label_{}", std::process::id()));
        let path = dir.join("BENCH_x.json");
        let opts = HarnessOpts {
            profile_out: Some(path.clone()),
            ..HarnessOpts::default()
        };
        write_profile_report(&opts, &[]);
        let json = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(
            json,
            "{\"schema\":\"bench-v1\",\"label\":\"x\",\"cells\":[\n]}\n"
        );
    }
}
