//! The metric registry — every number the benchmark reports, with its unit,
//! direction and (end to end) regression bound — and the arithmetic that
//! turns a workload's repetitions into those numbers. `BENCHMARK.json`
//! mirrors the registry; a test keeps the two in step.
//!
//! "sim" quantities are simulated time, "wall" quantities host time. Wall
//! metrics are medians over the timed repetitions (tracing off); everything
//! else is a pure function of the seed.

use std::collections::BTreeMap;

use crate::layers::{Fold, Layer};
use crate::stats::{median, min_max};
use crate::workloads::Rep;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression.
    pub bound: f64,
    /// A change smaller than this, in the metric's unit, is never a
    /// regression (only `setup_s`: a quarter of a few milliseconds of
    /// process start is scheduler noise, not set-up work).
    pub floor: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 10] = [
    // wall: child start → end of warm-up (grid_small: → first cell starts)
    e2e("setup_s", "s", Lower, 0.25, 0.05),
    // wall of the timed window ÷ simulated hours in it
    e2e("wall_s_per_sim_hour", "s/sim_h", Lower, 0.25, 0.0),
    // completed queries issued in the timed window ÷ its wall
    e2e("queries_per_wall_s", "1/s", Higher, 0.25, 0.0),
    // VmHWM of the child at exit
    e2e("peak_rss_mb", "MiB", Lower, 0.10, 0.0),
    // RunResult::messages_delivered ÷ completed queries (whole run)
    e2e("msgs_per_query", "msgs", Lower, 0.20, 0.0),
    // hits ÷ queries over timed-window records
    e2e("hit_ratio", "ratio", Higher, 0.12, 0.0),
    // mean lookup latency over timed-window records
    e2e("lookup_ms_mean", "sim_ms", Lower, 0.22, 0.0),
    // share of timed-window records whose lookup took ≤ 2 000 sim-ms
    e2e("lookup_within_2s_share", "ratio", Higher, 0.08, 0.0),
    // mean transfer distance over timed-window records
    e2e("transfer_ms_mean", "sim_ms", Lower, 0.25, 0.0),
    // queries_completed ÷ queries_issued, from the check repetition
    e2e("completed_query_share", "ratio", Higher, 0.005, 0.0),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics. (a) traced repetition, (b) check repetition,
/// (c) kernel suite; README.md says which end-to-end metric each should
/// move and on which workload.
pub const PER_LAYER: [PerLayer; 73] = [
    // simnet (a)
    layer("simnet.events", "count", Lower),
    layer("simnet.self_s", "s", Lower),
    layer("simnet.ns_per_event", "ns", Lower),
    layer("simnet.events_per_query", "count", Lower),
    // simnet (c)
    layer("simnet.wheel.schedule_pop_ns", "ns", Lower),
    layer("simnet.wheel.cancel_owned_ns", "ns", Lower),
    layer("simnet.world.pingpong_ns_per_event", "ns", Lower),
    layer("simnet.topology.latency_ns", "ns", Lower),
    // core (a, b)
    layer("core.control_events", "count", Lower),
    layer("core.control_self_s", "s", Lower),
    layer("core.control_us_per_event", "us", Lower),
    layer("core.rss_bytes_per_peer", "bytes", Lower),
    layer("core.queries_issued", "count", Higher),
    layer("core.queries_completed", "count", Higher),
    layer("core.invariant_violations", "count", Lower),
    // chord (a)
    layer("chord.events", "count", Lower),
    layer("chord.self_s", "s", Lower),
    layer("chord.ns_per_event", "ns", Lower),
    layer("chord.msgs", "count", Lower),
    layer("chord.bytes", "bytes", Lower),
    layer("chord.maint_event_share", "ratio", Lower),
    layer("chord.stale_deadline_share", "ratio", Lower),
    layer("chord.mean_dht_hops", "hops", Lower),
    // chord (c)
    layer("chord.converged_build_us", "us", Lower),
    layer("chord.ring_lookup_us", "us", Lower),
    layer("chord.ring_lookup_hops", "hops", Lower),
    layer("chord.fix_fingers_round_us", "us", Lower),
    layer("chord.fix_fingers_round_msgs", "msgs", Lower),
    layer("chord.stabilize_round_us", "us", Lower),
    // gossip (a, c)
    layer("gossip.events", "count", Lower),
    layer("gossip.self_s", "s", Lower),
    layer("gossip.msgs", "count", Lower),
    layer("gossip.bytes", "bytes", Lower),
    layer("gossip.shuffle_roundtrip_ns", "ns", Lower),
    // bloom (a, c)
    layer("bloom.calls", "count", Lower),
    layer("bloom.self_s", "s", Lower),
    layer("bloom.insert_ns", "ns", Lower),
    layer("bloom.contains_ns", "ns", Lower),
    layer("bloom.union_ns", "ns", Lower),
    // proto (a)
    layer("proto.flower.events", "count", Lower),
    layer("proto.flower.self_s", "s", Lower),
    layer("proto.flower.msgs", "count", Lower),
    layer("proto.flower.bytes", "bytes", Lower),
    layer("proto.squirrel.events", "count", Lower),
    layer("proto.squirrel.self_s", "s", Lower),
    layer("proto.squirrel.msgs", "count", Lower),
    layer("proto.workload_msgs_per_query", "msgs", Lower),
    layer("proto.maint_msgs_per_query", "msgs", Lower),
    layer("proto.lookup_ms_p50", "sim_ms", Lower),
    layer("proto.lookup_ms_p99", "sim_ms", Lower),
    layer("proto.flower.local_resolve_share", "ratio", Higher),
    layer("proto.flower.fetch_miss_per_query", "ratio", Lower),
    layer("proto.flower.fetch_timeout_per_query", "ratio", Lower),
    layer("proto.flower.route_failure_per_query", "ratio", Lower),
    layer("proto.flower.dir_query_timeout_per_query", "ratio", Lower),
    // proto (c)
    layer("proto.store.summary_us", "us", Lower),
    layer("proto.directory.record_us", "us", Lower),
    layer("proto.directory.provider_for_ns", "ns", Lower),
    layer("proto.bootstrap.add_remove_us_100k", "us", Lower),
    layer("proto.bootstrap.pick_ns_100k", "ns", Lower),
    // net (c): moves no end-to-end metric of this benchmark
    layer("net.wire.encode_ns_per_frame", "ns", Lower),
    layer("net.wire.decode_ns_per_frame", "ns", Lower),
    layer("net.wire.encode_mb_s", "MB/s", Higher),
    layer("net.wire.decode_mb_s", "MB/s", Higher),
    layer("net.wire.bytes_per_frame", "bytes", Lower),
    layer("net.runtime.api_ping_p50_us", "us", Lower),
    layer("net.runtime.api_ping_p99_us", "us", Lower),
    // workload (c)
    layer("workload.zipf_sample_ns", "ns", Lower),
    layer("workload.generate_sessions_ms_100k", "ms", Lower),
    // traced window ÷ untraced median − 1
    layer("profile.overhead_frac", "ratio", Lower),
    // the host probe beside the timed windows, and the wall it scaled
    layer("host.probe_ns_per_load", "ns", Lower),
    layer("host.quiet_factor", "ratio", Higher),
    layer("host.raw_wall_s_per_sim_hour", "s/sim_h", Lower),
];

/// How much harder a slow host hits the simulator than the probe. In the
/// slow phases recorded on the reference sandbox the simulator's slowdown
/// was the probe's to the power 1.4–1.7 on every workload; when the cause
/// is a shared CPU rather than shared memory both slow alike (power 1).
/// 1.25 leaves at most a fourth root of either kind of slowdown in the
/// reported number.
const PROBE_EXPONENT: f64 = 1.25;

/// The factor that scales a wall time measured while the host probe read
/// `probe_ns` to what it would have been on a quiet host, where the probe
/// reads at most `quiet_ns` beside the same workload. Exactly 1 — the wall
/// as measured — whenever the host was that quiet.
pub fn quiet_factor(probe_ns: f64, quiet_ns: f64) -> f64 {
    (quiet_ns / probe_ns).powf(PROBE_EXPONENT).min(1.0)
}

/// The timed window's wall seconds, scaled back to a quiet host.
fn quiet_window_s(r: &Rep, quiet_ns: f64) -> f64 {
    r.window_s * quiet_factor(r.probe_ns, quiet_ns)
}

/// A reported value; `samples` holds the per-repetition values a median was
/// taken over (empty for seed-deterministic metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Value {
    fn exact(value: f64) -> Value {
        Value {
            value,
            samples: Vec::new(),
        }
    }

    fn median_of(samples: Vec<f64>) -> Value {
        Value {
            value: median(&samples),
            samples,
        }
    }

    pub fn range(&self) -> Option<(f64, f64)> {
        (!self.samples.is_empty()).then(|| min_max(&self.samples))
    }
}

pub type Values = BTreeMap<&'static str, Value>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// `f` of every timed repetition.
fn each(timed: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    timed.iter().map(f).collect()
}

/// The ten end-to-end metrics of a workload, from its timed repetitions
/// and its check repetition.
pub fn end_to_end(timed: &[Rep], check: &Rep, quiet_probe_ns: f64) -> Values {
    let over = |f: &dyn Fn(&Rep) -> f64| Value::median_of(each(timed, f));
    let quiet_window_s = |r: &Rep| quiet_window_s(r, quiet_probe_ns);
    let o = &timed[0].outcome;
    let checked = check
        .checked
        .expect("a check repetition carries its counts");
    let mut v = Values::new();
    v.insert("setup_s", over(&|r| r.setup_s));
    v.insert(
        "wall_s_per_sim_hour",
        over(&|r| quiet_window_s(r) / r.sim_hours),
    );
    v.insert(
        "queries_per_wall_s",
        over(&|r| r.outcome.queries as f64 / quiet_window_s(r)),
    );
    v.insert("peak_rss_mb", over(&|r| r.peak_rss_bytes as f64 / MIB));
    v.insert(
        "msgs_per_query",
        Value::exact(ratio(o.messages_delivered, o.completed)),
    );
    v.insert("hit_ratio", Value::exact(ratio(o.hits, o.queries)));
    v.insert(
        "lookup_ms_mean",
        Value::exact(ratio(o.lookup_ms_sum, o.queries)),
    );
    v.insert(
        "lookup_within_2s_share",
        Value::exact(ratio(o.within_limit, o.queries)),
    );
    v.insert(
        "transfer_ms_mean",
        Value::exact(ratio(o.transfer_ms_sum, o.queries)),
    );
    v.insert(
        "completed_query_share",
        Value::exact(ratio(checked.completed, checked.issued)),
    );
    v
}

/// The per-layer metrics a workload's own repetitions yield: (a) from the
/// traced repetition's fold, (b) from the check repetition. The kernel
/// suite's values (c) are merged in by the caller.
pub fn per_layer(timed: &[Rep], traced: &Rep, check: &Rep, quiet_probe_ns: f64) -> Values {
    let over = |f: &dyn Fn(&Rep) -> f64| median(&each(timed, f));
    let quiet_window_s = |r: &Rep| quiet_window_s(r, quiet_probe_ns);
    let fold: &Fold = traced
        .fold
        .as_ref()
        .expect("a traced repetition carries its fold");
    let t = &fold.totals;
    let o = &traced.outcome;
    let checked = check
        .checked
        .expect("a check repetition carries its counts");
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut v = Values::new();
    let mut put = |name: &'static str, value: f64| {
        v.insert(name, Value::exact(value));
    };

    let simnet = fold.cost(Layer::Simnet);
    put("simnet.events", t.events as f64);
    put("simnet.self_s", secs(simnet.self_ns));
    put("simnet.ns_per_event", ratio(simnet.self_ns, t.events));
    put("simnet.events_per_query", ratio(t.events, o.completed));

    let core = fold.cost(Layer::Core);
    put("core.control_events", core.events as f64);
    put("core.control_self_s", secs(core.self_ns));
    put(
        "core.control_us_per_event",
        ratio(core.self_ns, core.events) / 1e3,
    );
    put(
        "core.rss_bytes_per_peer",
        over(&|r| r.peak_rss_bytes as f64) / o.population.max(1) as f64,
    );
    put("core.queries_issued", checked.issued as f64);
    put("core.queries_completed", checked.completed as f64);
    put("core.invariant_violations", checked.violations as f64);

    let chord = fold.cost(Layer::Chord);
    put("chord.events", chord.events as f64);
    put("chord.self_s", secs(chord.self_ns));
    put("chord.ns_per_event", ratio(chord.self_ns, chord.events));
    put("chord.msgs", chord.msgs as f64);
    put("chord.bytes", chord.bytes as f64);
    put(
        "chord.maint_event_share",
        ratio(chord.events.saturating_sub(t.chord_route_events), t.events),
    );
    // A step deadline is live only if its reply never came; every other
    // `chord_lookup_step` fire finds its lookup already advanced.
    let unanswered = t.find_next_sent.saturating_sub(t.find_next_reply_delivered);
    put(
        "chord.stale_deadline_share",
        if t.lookup_step_fired == 0 {
            0.0
        } else {
            1.0 - ratio(unanswered, t.lookup_step_fired)
        },
    );
    put("chord.mean_dht_hops", ratio(o.hop_sum, o.routed));

    let gossip = fold.cost(Layer::Gossip);
    put("gossip.events", gossip.events as f64);
    put("gossip.self_s", secs(gossip.self_ns));
    put("gossip.msgs", gossip.msgs as f64);
    put("gossip.bytes", gossip.bytes as f64);

    put("bloom.calls", t.bloom_calls as f64);
    put("bloom.self_s", secs(fold.cost(Layer::Bloom).self_ns));

    let flower = fold.cost(Layer::ProtoFlower);
    put("proto.flower.events", flower.events as f64);
    put("proto.flower.self_s", secs(flower.self_ns));
    put("proto.flower.msgs", flower.msgs as f64);
    put("proto.flower.bytes", flower.bytes as f64);
    let squirrel = fold.cost(Layer::ProtoSquirrel);
    put("proto.squirrel.events", squirrel.events as f64);
    put("proto.squirrel.self_s", secs(squirrel.self_ns));
    put("proto.squirrel.msgs", squirrel.msgs as f64);
    put(
        "proto.workload_msgs_per_query",
        ratio(t.workload_delivered, o.completed),
    );
    put(
        "proto.maint_msgs_per_query",
        ratio(t.maint_delivered, o.completed),
    );
    put("proto.lookup_ms_p50", o.lookup_ms_p50 as f64);
    put("proto.lookup_ms_p99", o.lookup_ms_p99 as f64);
    put(
        "proto.flower.local_resolve_share",
        ratio(o.local_view, o.queries),
    );
    put(
        "proto.flower.fetch_miss_per_query",
        ratio(o.fetch_miss, o.completed),
    );
    put(
        "proto.flower.fetch_timeout_per_query",
        ratio(o.fetch_timeout, o.completed),
    );
    put(
        "proto.flower.route_failure_per_query",
        ratio(o.route_failure, o.completed),
    );
    put(
        "proto.flower.dir_query_timeout_per_query",
        ratio(o.dir_query_timeout, o.completed),
    );

    put(
        "profile.overhead_frac",
        quiet_window_s(traced) / over(&quiet_window_s) - 1.0,
    );
    put("host.probe_ns_per_load", over(&|r| r.probe_ns));
    put(
        "host.quiet_factor",
        over(&|r| quiet_factor(r.probe_ns, quiet_probe_ns)),
    );
    put(
        "host.raw_wall_s_per_sim_hour",
        over(&|r| r.window_s / r.sim_hours),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::kernels;

    /// A quiet-host probe reading for synthetic repetitions.
    const QUIET_NS: f64 = 100.0;

    fn assert_contract_name(name: &str) {
        assert!(name.len() <= 64, "{name}");
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }

    fn assert_contract_unit(unit: &str) {
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert_contract_name(n);
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert_contract_unit(u);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
    }

    #[test]
    fn every_per_layer_metric_has_exactly_one_source() {
        let kernel: Vec<&str> = kernels::NAMES.to_vec();
        let own = own_per_layer_names();
        for m in &PER_LAYER {
            let sources =
                usize::from(kernel.contains(&m.name)) + usize::from(own.contains(&m.name));
            assert_eq!(sources, 1, "{} has {sources} sources", m.name);
        }
        assert_eq!(kernel.len() + own.len(), PER_LAYER.len());
    }

    /// The names `per_layer` produces, from a synthetic repetition.
    fn own_per_layer_names() -> Vec<&'static str> {
        use crate::workloads::{Checked, Mode, Outcome};
        let rep = |mode| Rep {
            mode,
            setup_s: 1.0,
            window_s: 2.0,
            probe_ns: QUIET_NS,
            sim_hours: 1.0,
            peak_rss_bytes: 1 << 20,
            outcome: Outcome::default(),
            checked: Some(Checked::default()),
            fold: Some(Fold::default()),
        };
        let (timed, traced, check) = (rep(Mode::Timed), rep(Mode::Traced), rep(Mode::Check));
        per_layer(&[timed], &traced, &check, QUIET_NS)
            .into_keys()
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.text("name"), Ok(m.name));
            assert_eq!(j.text("unit"), Ok(m.unit), "{}", m.name);
            assert_eq!(j.text("better"), Ok(m.better.name()), "{}", m.name);
            assert_eq!(j.num("bound"), Ok(m.bound), "{}", m.name);
            assert_eq!(j.fields().len(), 4);
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.text("name"), Ok(m.name));
            assert_eq!(j.text("unit"), Ok(m.unit), "{}", m.name);
            assert_eq!(j.text("better"), Ok(m.better.name()), "{}", m.name);
            assert_eq!(j.fields().len(), 3);
        }
        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(j.text("name"), Ok(w.name));
            assert_eq!(j.text("why"), Ok(w.why));
        }
        assert_eq!(
            doc.uint("run_seconds"),
            Ok(crate::run::DEFAULT_SECONDS as u64)
        );
    }

    /// A tiny traced run of each system, folded: every phase path and
    /// message class lands in exactly one layer, the layers' self times
    /// and events add up to the profiler's totals, and the workload /
    /// maintenance split of delivered messages sums to `msgs_per_query`.
    #[test]
    fn fold_of_a_real_traced_run_is_total_and_sums_up() {
        use crate::workloads::{find, Mode};
        use std::time::SystemTime;
        for name in ["flower_query", "squirrel_ring"] {
            let w = find(name).unwrap();
            let rep = |mode| w.run_rep(5, true, mode, SystemTime::now());
            let (timed, traced, check) = (rep(Mode::Timed), rep(Mode::Traced), rep(Mode::Check));
            assert_eq!(
                traced.outcome, timed.outcome,
                "{name}: tracing changed the run"
            );
            assert_eq!(
                check.outcome, timed.outcome,
                "{name}: checking changed the run"
            );
            assert!(timed.outcome.queries > 0, "{name}");
            assert_eq!(
                check.checked.unwrap().completed,
                timed.outcome.completed,
                "{name}"
            );

            let fold = traced.fold.as_ref().unwrap();
            assert!(fold.unmapped.is_empty(), "{name}: {:?}", fold.unmapped);
            assert!(fold.totals.events > 0 && fold.totals.self_ns > 0);
            assert_eq!(fold.attributed_events(), fold.totals.events, "{name}");
            assert_eq!(fold.attributed_self_ns(), fold.totals.self_ns, "{name}");
            assert_eq!(fold.delivered(), timed.outcome.messages_delivered, "{name}");

            let e2e = end_to_end(std::slice::from_ref(&timed), &check, w.quiet_probe_ns);
            let layers = per_layer(&[timed], &traced, &check, w.quiet_probe_ns);
            let split = layers["proto.workload_msgs_per_query"].value
                + layers["proto.maint_msgs_per_query"].value;
            let whole = e2e["msgs_per_query"].value;
            assert!(
                (split - whole).abs() <= 1e-9 * whole,
                "{name}: {split} vs {whole}"
            );
            let other = if name == "flower_query" {
                "proto.squirrel.events"
            } else {
                "proto.flower.events"
            };
            assert_eq!(layers[other].value, 0.0, "{name}");
        }
    }

    #[test]
    fn end_to_end_takes_medians_of_wall_and_exact_outcomes() {
        use crate::workloads::{Checked, Mode, Outcome};
        let rep = |window_s: f64, rss_mib: u64| Rep {
            mode: Mode::Timed,
            setup_s: window_s / 10.0,
            window_s,
            probe_ns: QUIET_NS,
            sim_hours: 2.0,
            peak_rss_bytes: rss_mib << 20,
            outcome: Outcome {
                queries: 1000,
                hits: 250,
                completed: 1250,
                messages_delivered: 5000,
                transfer_ms_sum: 100_000,
                lookup_ms_sum: 300_000,
                within_limit: 900,
                ..Outcome::default()
            },
            checked: Some(Checked {
                issued: 1300,
                completed: 1250,
                violations: 0,
            }),
            fold: None,
        };
        let timed = [rep(4.0, 10), rep(2.0, 30), rep(3.0, 20)];
        let v = end_to_end(&timed, &timed[0], QUIET_NS);
        assert_eq!(v.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| v.contains_key(m.name)));
        assert_eq!(v["wall_s_per_sim_hour"].value, 1.5);
        assert_eq!(v["wall_s_per_sim_hour"].range(), Some((1.0, 2.0)));
        assert!((v["setup_s"].value - 0.3).abs() < 1e-12);
        assert!((v["queries_per_wall_s"].value - 1000.0 / 3.0).abs() < 1e-9);
        assert_eq!(v["peak_rss_mb"].value, 20.0);
        assert_eq!(v["msgs_per_query"].value, 4.0);
        assert_eq!(v["hit_ratio"].value, 0.25);
        assert_eq!(v["hit_ratio"].range(), None);
        assert_eq!(v["transfer_ms_mean"].value, 100.0);
        assert_eq!(v["lookup_ms_mean"].value, 300.0);
        assert_eq!(v["lookup_within_2s_share"].value, 0.9);
        assert!((v["completed_query_share"].value - 1250.0 / 1300.0).abs() < 1e-12);

        // A host the probe finds 2 × slow: the window scales by 2^-1.25…
        let mut slow = rep(4.0, 10);
        slow.probe_ns = 2.0 * QUIET_NS;
        let v = end_to_end(std::slice::from_ref(&slow), &slow, QUIET_NS);
        assert!((v["wall_s_per_sim_hour"].value - 2.0 / 2f64.powf(1.25)).abs() < 1e-12);
        assert!((v["setup_s"].value - 0.4).abs() < 1e-12, "set-up stays raw");
        // …and one it finds quieter than quiet reports the wall as measured.
        slow.probe_ns = 0.5 * QUIET_NS;
        let v = end_to_end(std::slice::from_ref(&slow), &slow, QUIET_NS);
        assert_eq!(v["wall_s_per_sim_hour"].value, 2.0);
    }
}
