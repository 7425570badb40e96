//! End-to-end observability pipeline test: a comparison run given
//! `--trace-out` / `--gauges` (through the one sweep path every binary
//! uses) must emit JSONL from which a single query's causal path is
//! reconstructible by its `qid`, and must populate the gauge series.

use cdn_metrics::{parse_trace_line, TraceLine};
use flower_bench::{run_comparison_sweep, HarnessOpts};
use flower_cdn::SimParams;

fn read_trace(path: &std::path::Path) -> Vec<TraceLine> {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    text.lines()
        .map(|l| parse_trace_line(l).unwrap_or_else(|| panic!("malformed trace line: {l}")))
        .collect()
}

#[test]
fn instrumented_run_emits_reconstructible_traces_and_gauges() {
    let dir = std::env::temp_dir().join(format!("flower_trace_{}", std::process::id()));
    let mut params = SimParams::quick(40, 25 * 60_000);
    params.seed = 5;
    params.query_period_ms = 3 * 60_000;
    let opts = HarnessOpts {
        trace_out: Some(dir.clone()),
        gauge_period_ms: Some(5 * 60_000),
        ..HarnessOpts::default()
    };
    let run = run_comparison_sweep(&opts, params);

    // --- Flower-CDN trace: pick a completed query and rebuild its path.
    let lines = read_trace(&dir.join("flower_s5.jsonl"));
    assert!(
        lines.len() > 1_000,
        "trace too small: {} lines",
        lines.len()
    );
    let qid = lines
        .iter()
        .find(|l| l.name() == Some("query_complete"))
        .and_then(|l| l.num("qid"))
        .expect("at least one completed query in the trace");
    let story: Vec<&TraceLine> = lines.iter().filter(|l| l.num("qid") == Some(qid)).collect();
    assert!(
        story.len() >= 3,
        "causal path of qid {qid} has only {} events",
        story.len()
    );
    // File order is simulation order: timestamps never go backwards.
    assert!(story.windows(2).all(|w| w[0].t() <= w[1].t()));
    // The path starts at issue and reaches completion, with at least one
    // resolution step in between.
    assert_eq!(story.first().unwrap().name(), Some("query_issued"));
    let names: Vec<&str> = story.iter().filter_map(|l| l.name()).collect();
    assert!(names.contains(&"query_complete"), "path: {names:?}");
    assert!(
        names.iter().any(|n| matches!(
            *n,
            "route_request" | "fetch" | "origin_fetch" | "redirect" | "sibling_forward"
        )),
        "no resolution step in path: {names:?}"
    );
    // Scheduler events (sends/delivers) are interleaved in the same file.
    assert!(lines.iter().any(|l| l.kind() == "send"));
    assert!(lines.iter().any(|l| l.kind() == "deliver"));

    // --- The Squirrel run's trace exists and completes queries too.
    let sq_lines = read_trace(&dir.join("squirrel_s5.jsonl"));
    assert!(sq_lines
        .iter()
        .any(|l| l.name() == Some("query_complete") && l.num("qid").is_some()));

    // --- Gauges landed in both results.
    assert!(run.flower.gauges.series("population").is_some());
    assert!(run.flower.gauges.series("dring_size").is_some());
    assert!(run
        .flower
        .gauges
        .names()
        .iter()
        .any(|n| n.starts_with("rate/")));
    assert!(run.squirrel.gauges.series("population").is_some());

    let _ = std::fs::remove_dir_all(&dir);
}
