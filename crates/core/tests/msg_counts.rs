//! The world's per-class message table is the one count the gauges read.
//!
//! Message-rate gauges used to count deliveries with a trace sink, which
//! switched full tracing on for every gauge run. They now read the table
//! `simnet::World` keeps. These tests hold the table to what that sink
//! counted — one `MsgDeliver` per class, link duplicates included — and
//! show that a gauges-only run never traces.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use flower_cdn::{
    Engine, FlowerSim, Scenario, SimDriver, SimParams, SimSystem, SquirrelMode, SquirrelSim,
};
use simnet::{Time, TraceEvent, TraceSink};

const HORIZON_MS: u64 = 30 * 60_000;
/// Short next to link latencies (up to hundreds of ms), so some class is
/// first sent before a sample and first delivered after it.
const PERIOD_MS: u64 = 1_000;

/// Loss and duplication over most of the run, so deliveries differ from
/// sends in both directions.
const LINK_FAULT: &str = "at 3m link-fault loss=0.05 duplicate=0.05 jitter=20ms for=20m\n";

/// Counts delivered messages per protocol class from the trace stream —
/// the reference the world's table must match — and notes when each class
/// was first delivered.
#[derive(Clone, Default)]
struct DeliveryCounter(Rc<RefCell<BTreeMap<&'static str, (u64, u64)>>>);

impl TraceSink for DeliveryCounter {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        if let TraceEvent::MsgDeliver { class, .. } = ev {
            let mut counts = self.0.borrow_mut();
            counts.entry(class).or_insert((0, at.as_millis())).0 += 1;
        }
    }
}

fn params() -> SimParams {
    let mut p = SimParams::quick(80, HORIZON_MS);
    p.seed = 0xC0DE;
    p
}

/// Gauges plus the link fault, with the reference counter attached: every
/// class's delivery count equals the counter's, and every `rate/<class>`
/// series starts at the first sample after that class's first delivery —
/// not at its first send — so its first point is not zero.
fn deliveries_match_the_trace<S: SimSystem>(mut sim: Engine<S>) {
    let reference = DeliveryCounter::default();
    sim.add_trace_sink(reference.clone());
    sim.enable_gauges(PERIOD_MS);
    sim.apply_scenario(&LINK_FAULT.parse::<Scenario>().expect("scenario parses"));
    sim.run_until(Time::from_millis(HORIZON_MS));

    let world = sim.world();
    assert!(world.stats().duplicated > 0 && world.stats().dropped_link > 0);
    let counted: BTreeMap<&'static str, u64> = world
        .msg_counts()
        .iter()
        .filter(|(_, c)| c.delivered > 0)
        .map(|(&class, c)| (class, c.delivered))
        .collect();
    let reference = reference.0.borrow();
    let expected: BTreeMap<&'static str, u64> = reference
        .iter()
        .map(|(&class, &(n, _))| (class, n))
        .collect();
    assert_eq!(counted, expected);
    assert_eq!(counted.values().sum::<u64>(), world.stats().delivered);

    let result = sim.finish();
    let rates: Vec<&str> = result
        .gauges
        .names()
        .into_iter()
        .filter_map(|n| n.strip_prefix("rate/"))
        .collect();
    assert_eq!(rates, counted.keys().copied().collect::<Vec<_>>());
    for class in rates {
        let (at, rate) = result.gauges.series(&format!("rate/{class}")).unwrap()[0];
        let first = reference[class].1;
        assert!(
            rate > 0.0 && first <= at && at <= first + PERIOD_MS,
            "rate/{class} starts at {at} ms with {rate}/s; first delivered at {first} ms"
        );
    }
}

#[test]
fn flower_delivery_counts_match_the_trace() {
    deliveries_match_the_trace(FlowerSim::new(params()));
}

#[test]
fn squirrel_delivery_counts_match_the_trace() {
    deliveries_match_the_trace(SquirrelSim::new(params(), SquirrelMode::Directory));
}

/// Gauges alone keep the table and attach no sink: the world never traces,
/// so no machine builds a trace event, yet the rate series are there.
fn gauges_alone_never_trace<S: SimSystem>(mut sim: Engine<S>) {
    sim.enable_gauges(PERIOD_MS);
    sim.apply_scenario(&LINK_FAULT.parse::<Scenario>().expect("scenario parses"));
    for minutes in (5..=HORIZON_MS / 60_000).step_by(5) {
        assert!(!sim.world().tracing());
        sim.run_until(Time::from_mins(minutes));
    }
    assert!(!sim.world().tracing());
    let result = sim.finish();
    assert!(result.gauges.names().iter().any(|n| n.starts_with("rate/")));
}

#[test]
fn a_flower_gauge_run_never_traces() {
    gauges_alone_never_trace(FlowerSim::new(params()));
}

#[test]
fn a_squirrel_gauge_run_never_traces() {
    gauges_alone_never_trace(SquirrelSim::new(params(), SquirrelMode::Directory));
}
