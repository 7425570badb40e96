//! The phase → layer fold: every row of a profiled run's phase table and
//! every message class is assigned to exactly one layer of the stack, from
//! outside the program, through the labels `SimDriver::enable_profiling`
//! already emits.
//!
//! The tables are explicit on purpose. A label the tables do not know ends
//! up in [`Fold::unmapped`] and fails the run, so a later change that adds
//! a message class or a scope has to say which layer pays for it instead
//! of silently landing in a default bucket.

use std::collections::BTreeMap;

use flower_cdn::System;
use profile::{MsgRow, PhaseRow};

use crate::json::{counters, Json};

/// The layers self time, events and messages are attributed to. `Proto` is
/// resolved to `proto.flower` or `proto.squirrel` by the system of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Event-loop dispatch: the self time of the top-level `deliver` and
    /// `timer` scopes (wheel pop, node lookup, send pricing).
    Simnet,
    /// Engine `control` events: spawn, fail, leave, rendezvous upkeep.
    Core,
    Chord,
    Gossip,
    Bloom,
    ProtoFlower,
    ProtoSquirrel,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Simnet,
        Layer::Core,
        Layer::Chord,
        Layer::Gossip,
        Layer::Bloom,
        Layer::ProtoFlower,
        Layer::ProtoSquirrel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::Core => "core",
            Layer::Chord => "chord",
            Layer::Gossip => "gossip",
            Layer::Bloom => "bloom",
            Layer::ProtoFlower => "proto.flower",
            Layer::ProtoSquirrel => "proto.squirrel",
        }
    }
}

/// Which layer owns a message or timer class, before `Proto` is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    Chord,
    Gossip,
    Proto,
}

/// Whether a message class is paid per query or per unit of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Sent because a peer asked for an object: routing a request, the
    /// directory's answer, the fetch.
    Workload,
    /// Sent to keep the overlays alive whether or not anyone queries.
    Maintenance,
}

use Owner::{Chord as C, Gossip as G, Proto as P};
use Traffic::{Maintenance as M, Workload as W};

/// Every message class of both systems (`FlowerMsg::class`, `SqMsg::class`,
/// `ChordMsg::class`).
const MESSAGE_CLASSES: &[(&str, Owner, Traffic)] = &[
    ("chord_find_next", C, M),
    ("chord_find_next_reply", C, M),
    ("chord_get_neighbors", C, M),
    ("chord_neighbors_reply", C, M),
    ("chord_notify", C, M),
    ("chord_ping", C, M),
    ("chord_pong", C, M),
    // Recursive routes carry client requests (and the occasional claim).
    ("chord_route", C, W),
    ("chord_route_result", C, W),
    ("gossip", G, M),
    ("dring_route", P, W),
    ("routed", P, W),
    ("route_failed", P, W),
    ("redirect", P, W),
    ("dir_query", P, W),
    ("sibling_query", P, W),
    ("dead_peer_report", P, W),
    ("fetch", P, W),
    ("fetch_ok", P, W),
    ("fetch_miss", P, W),
    ("sq_query", P, W),
    ("sq_answer", P, W),
    ("sq_store_copy", P, W),
    ("keepalive", P, M),
    ("push", P, M),
    ("dir_ack", P, M),
    ("retract", P, M),
    ("promote", P, M),
    ("claim_granted", P, M),
    ("claim_denied", P, M),
];

/// Every timer class of both systems (`FlowerTimer::class`,
/// `SqTimer::class`, `ChordTimer::class`).
const TIMER_CLASSES: &[(&str, Owner)] = &[
    ("chord_stabilize", C),
    ("chord_stabilize_once", C),
    ("chord_fix_fingers", C),
    ("chord_check_predecessor", C),
    ("chord_lookup_step", C),
    ("chord_stabilize_deadline", C),
    ("chord_ping_deadline", C),
    ("chord_route_deadline", C),
    ("gossip", G),
    ("gossip_deadline", G),
    ("query", P),
    ("keepalive", P),
    ("dir_ack_deadline", P),
    ("fetch_deadline", P),
    ("route_deadline", P),
    ("origin_done", P),
    ("dir_sweep", P),
    ("claim_deadline", P),
    ("position_check", P),
    ("sq_answer_deadline", P),
];

/// Scopes opened inside an event's handler (third path segment and below).
const INNER_SCOPES: &[(&str, Layer)] = &[
    ("dring_maint", Layer::Chord),
    ("bloom_summary", Layer::Bloom),
    ("bloom_match", Layer::Bloom),
    ("petalup_scan", Layer::ProtoFlower),
];

fn resolve(owner: Owner, system: System) -> Layer {
    match owner {
        Owner::Chord => Layer::Chord,
        Owner::Gossip => Layer::Gossip,
        Owner::Proto => match system {
            System::FlowerCdn => Layer::ProtoFlower,
            System::Squirrel => Layer::ProtoSquirrel,
        },
    }
}

fn message_class(class: &str) -> Option<(Owner, Traffic)> {
    MESSAGE_CLASSES
        .iter()
        .find(|(c, _, _)| *c == class)
        .map(|&(_, o, t)| (o, t))
}

fn timer_class(class: &str) -> Option<Owner> {
    TIMER_CLASSES
        .iter()
        .find(|(c, _)| *c == class)
        .map(|&(_, o)| o)
}

counters! {
    /// What one layer cost in a profiled run.
    pub struct LayerCost {
        /// Scheduler events dispatched to this layer (deliveries, timer
        /// fires, control events). Nested scopes are not events.
        pub events,
        /// Exclusive time of every phase row assigned to this layer.
        pub self_ns,
        /// Messages sent by this layer's classes…
        pub msgs,
        /// …and their estimated wire bytes.
        pub bytes,
    }
}

counters! {
    /// Whole-run sums and the single rows the per-layer metrics need.
    pub struct FoldTotals {
        /// Top-level `deliver` + `timer` + `control` counts: every event
        /// the profiler saw.
        pub events,
        /// Self time of every row, mapped or not.
        pub self_ns,
        /// Messages delivered because a peer asked for an object…
        pub workload_delivered,
        /// …and to keep the overlays alive.
        pub maint_delivered,
        /// Chord events that carry a routed request (`chord_route*`).
        pub chord_route_events,
        pub find_next_sent,
        pub find_next_reply_delivered,
        pub lookup_step_fired,
        /// Times a `bloom_*` scope was entered.
        pub bloom_calls,
    }
}

/// A profiled run folded into layers. Folds of several runs add up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    pub layers: BTreeMap<Layer, LayerCost>,
    pub totals: FoldTotals,
    /// Phase paths and message classes no table knows. Must stay empty.
    pub unmapped: Vec<String>,
}

impl Fold {
    pub fn cost(&self, layer: Layer) -> LayerCost {
        self.layers.get(&layer).copied().unwrap_or_default()
    }

    /// Events attributed to some layer; equals `totals.events` when the
    /// tables are total.
    pub fn attributed_events(&self) -> u64 {
        self.layers.values().map(|c| c.events).sum()
    }

    /// Self time attributed to some layer.
    pub fn attributed_self_ns(&self) -> u64 {
        self.layers.values().map(|c| c.self_ns).sum()
    }

    pub fn delivered(&self) -> u64 {
        self.totals.workload_delivered + self.totals.maint_delivered
    }

    /// Fold one profiled run of `system`.
    pub fn of_run(system: System, phases: &[PhaseRow], messages: &[MsgRow]) -> Fold {
        let mut fold = Fold::default();
        for row in phases {
            fold.totals.self_ns += row.self_ns;
            match fold.place_phase(system, row) {
                Some(layer) => fold.layers.entry(layer).or_default().self_ns += row.self_ns,
                None => fold.unmapped.push(format!("phase {}", row.path)),
            }
        }
        for row in messages {
            match message_class(&row.class) {
                Some((owner, _)) => {
                    let cost = fold.layers.entry(resolve(owner, system)).or_default();
                    cost.msgs += row.count;
                    cost.bytes += row.bytes;
                    if row.class == "chord_find_next" {
                        fold.totals.find_next_sent += row.count;
                    }
                }
                None => fold.unmapped.push(format!("message {}", row.class)),
            }
        }
        fold
    }

    /// The layer a phase row's self time belongs to; counts the row's
    /// events on the way. `None` if no table knows the row.
    fn place_phase(&mut self, system: System, row: &PhaseRow) -> Option<Layer> {
        let segments: Vec<&str> = row.path.split('/').collect();
        let t = &mut self.totals;
        match segments.as_slice() {
            ["deliver"] | ["timer"] => {
                t.events += row.count;
                Some(Layer::Simnet)
            }
            ["control"] => {
                t.events += row.count;
                self.layers.entry(Layer::Core).or_default().events += row.count;
                Some(Layer::Core)
            }
            ["deliver", class] => {
                let (owner, traffic) = message_class(class)?;
                match traffic {
                    Traffic::Workload => t.workload_delivered += row.count,
                    Traffic::Maintenance => t.maint_delivered += row.count,
                }
                if class.starts_with("chord_route") {
                    t.chord_route_events += row.count;
                }
                if *class == "chord_find_next_reply" {
                    t.find_next_reply_delivered += row.count;
                }
                let layer = resolve(owner, system);
                self.layers.entry(layer).or_default().events += row.count;
                Some(layer)
            }
            ["timer", class] => {
                let layer = resolve(timer_class(class)?, system);
                if class.starts_with("chord_route") {
                    t.chord_route_events += row.count;
                }
                if *class == "chord_lookup_step" {
                    t.lookup_step_fired += row.count;
                }
                self.layers.entry(layer).or_default().events += row.count;
                Some(layer)
            }
            [_, .., scope] => {
                let layer = INNER_SCOPES
                    .iter()
                    .find(|(s, _)| s == scope)
                    .map(|&(_, l)| l)?;
                if layer == Layer::Bloom {
                    t.bloom_calls += row.count;
                }
                Some(layer)
            }
            _ => None,
        }
    }

    /// Add another run's fold into this one (`grid_small` pools its cells).
    pub fn absorb(&mut self, other: &Fold) {
        for (layer, cost) in &other.layers {
            self.layers.entry(*layer).or_default().absorb(cost);
        }
        self.totals.absorb(&other.totals);
        self.unmapped.extend(other.unmapped.iter().cloned());
    }

    pub fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for (layer, cost) in &self.layers {
            layers.set(layer.name(), cost.to_json());
        }
        let unmapped: Vec<Json> = self.unmapped.iter().map(|u| u.as_str().into()).collect();
        Json::obj()
            .with("layers", layers)
            .with("totals", self.totals.to_json())
            .with("unmapped", unmapped)
    }

    pub fn from_json(j: &Json) -> Result<Fold, String> {
        let mut fold = Fold {
            totals: FoldTotals::from_json(j.get("totals").ok_or("fold without totals")?)?,
            ..Fold::default()
        };
        for (name, cost) in j.get("layers").ok_or("fold without layers")?.fields() {
            let layer = Layer::ALL
                .into_iter()
                .find(|l| l.name() == name)
                .ok_or_else(|| format!("unknown layer {name:?}"))?;
            fold.layers.insert(layer, LayerCost::from_json(cost)?);
        }
        for u in j.get("unmapped").ok_or("fold without unmapped")?.items() {
            fold.unmapped.push(
                u.as_str()
                    .ok_or("unmapped entry is not a string")?
                    .to_string(),
            );
        }
        Ok(fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(path: &str, count: u64, self_ns: u64) -> PhaseRow {
        PhaseRow {
            path: path.to_string(),
            count,
            total_ns: self_ns,
            self_ns,
        }
    }

    #[test]
    fn class_tables_have_no_duplicates() {
        for (i, (a, _, _)) in MESSAGE_CLASSES.iter().enumerate() {
            assert!(
                MESSAGE_CLASSES[i + 1..].iter().all(|(b, _, _)| a != b),
                "message class {a} listed twice"
            );
        }
        for (i, (a, _)) in TIMER_CLASSES.iter().enumerate() {
            assert!(
                TIMER_CLASSES[i + 1..].iter().all(|(b, _)| a != b),
                "timer class {a} listed twice"
            );
        }
    }

    #[test]
    fn rows_land_in_their_layer() {
        let phases = [
            phase("deliver", 10, 100),
            phase("deliver/chord_find_next_reply", 6, 60),
            phase("deliver/fetch", 3, 30),
            phase("deliver/gossip", 1, 10),
            phase("deliver/gossip/bloom_summary", 1, 5),
            phase("timer", 4, 40),
            phase("timer/chord_lookup_step", 3, 9),
            phase("timer/chord_lookup_step/dring_maint", 1, 7),
            phase("timer/query", 1, 20),
            phase("timer/query/bloom_match", 2, 8),
            phase("control", 2, 50),
        ];
        let messages = [
            MsgRow {
                class: "chord_find_next".into(),
                count: 7,
                bytes: 700,
            },
            MsgRow {
                class: "fetch".into(),
                count: 3,
                bytes: 90,
            },
        ];
        let f = Fold::of_run(System::FlowerCdn, &phases, &messages);
        assert!(f.unmapped.is_empty(), "{:?}", f.unmapped);
        assert_eq!(f.totals.events, 16);
        assert_eq!(f.attributed_events(), 16);
        assert_eq!(f.attributed_self_ns(), f.totals.self_ns);
        assert_eq!(f.cost(Layer::Simnet).self_ns, 140);
        assert_eq!(f.cost(Layer::Core).events, 2);
        assert_eq!(f.cost(Layer::Chord).events, 9);
        assert_eq!(f.cost(Layer::Chord).self_ns, 76);
        assert_eq!(f.cost(Layer::Chord).msgs, 7);
        assert_eq!(f.cost(Layer::Bloom).self_ns, 13);
        assert_eq!(f.totals.bloom_calls, 3);
        assert_eq!(f.cost(Layer::Gossip).events, 1);
        assert_eq!(f.cost(Layer::ProtoFlower).events, 4);
        assert_eq!(f.cost(Layer::ProtoFlower).bytes, 90);
        assert_eq!(
            (f.totals.workload_delivered, f.totals.maint_delivered),
            (3, 7)
        );
        assert_eq!(f.totals.find_next_sent, 7);
        assert_eq!(f.totals.find_next_reply_delivered, 6);
        assert_eq!(f.totals.lookup_step_fired, 3);

        // The same protocol rows of a Squirrel run belong to its own layer.
        let s = Fold::of_run(System::Squirrel, &phases, &messages);
        assert_eq!(s.cost(Layer::ProtoSquirrel).events, 4);
        assert_eq!(s.cost(Layer::ProtoFlower), LayerCost::default());
    }

    #[test]
    fn unknown_labels_are_reported_not_defaulted() {
        let phases = [
            phase("deliver", 1, 1),
            phase("deliver/brand_new_msg", 1, 1),
            phase("timer/query/new_scope", 1, 1),
            phase("gc", 1, 1),
        ];
        let messages = [MsgRow {
            class: "brand_new_msg".into(),
            count: 1,
            bytes: 1,
        }];
        let f = Fold::of_run(System::FlowerCdn, &phases, &messages);
        assert_eq!(f.unmapped.len(), 4, "{:?}", f.unmapped);
        assert!(f.attributed_events() < f.totals.events);
        assert!(f.attributed_self_ns() < f.totals.self_ns);
    }

    #[test]
    fn folds_add_up() {
        let a = Fold::of_run(
            System::FlowerCdn,
            &[phase("deliver", 2, 5), phase("deliver/fetch", 2, 3)],
            &[],
        );
        let b = Fold::of_run(
            System::Squirrel,
            &[phase("deliver", 1, 1), phase("deliver/sq_query", 1, 2)],
            &[],
        );
        let mut sum = a.clone();
        sum.absorb(&b);
        assert_eq!(sum.totals.events, 3);
        assert_eq!(sum.totals.self_ns, 11);
        assert_eq!(sum.cost(Layer::ProtoFlower).events, 2);
        assert_eq!(sum.cost(Layer::ProtoSquirrel).events, 1);
        assert_eq!(sum.totals.workload_delivered, 3);
        let back = Fold::from_json(&Json::parse(&sum.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, sum);
    }
}
