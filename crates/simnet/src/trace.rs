//! Structured event tracing for the simulator.
//!
//! A [`World`](crate::World) can carry any number of [`TraceSink`]s. With no
//! sink attached the scheduler pays a single `Vec::is_empty` check per event
//! — the hot path is otherwise untouched. With sinks attached, every
//! scheduler step (spawn, fail, send, deliver, drop, timer) is reported with
//! its virtual timestamp, and protocol code can inject domain events through
//! [`Ctx::trace`](crate::Ctx::trace) (the `Custom` escape hatch), which is
//! how per-query causal paths, gossip rounds and directory replacements
//! become visible without the simulator knowing anything about protocols.
//!
//! Sinks are deliberately simple (`&mut self`, synchronous, in
//! deterministic event order), so they can maintain online state: the
//! invariant checker in `flower-cdn` and the JSONL writer in `cdn-metrics`
//! are both sinks.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::topology::LocalityId;
use crate::{NodeId, Time};

/// One dynamically-typed value in a [`Custom`](TraceEvent::Custom) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    U64(u64),
    Str(&'static str),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<NodeId> for FieldValue {
    fn from(v: NodeId) -> FieldValue {
        FieldValue::U64(v.raw())
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Named fields of a `Custom` event, in emission order.
pub type Fields = Vec<(&'static str, FieldValue)>;

fn field<'a>(fields: &'a [(&'static str, FieldValue)], key: &str) -> Option<&'a FieldValue> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Field `key`, if it is an unsigned integer.
pub fn field_u64(fields: &[(&'static str, FieldValue)], key: &str) -> Option<u64> {
    match *field(fields, key)? {
        FieldValue::U64(x) => Some(x),
        _ => None,
    }
}

/// Field `key`, if it is a boolean.
pub fn field_bool(fields: &[(&'static str, FieldValue)], key: &str) -> Option<bool> {
    match *field(fields, key)? {
        FieldValue::Bool(b) => Some(b),
        _ => None,
    }
}

/// Field `key`, if it is a string tag.
pub fn field_str(fields: &[(&'static str, FieldValue)], key: &str) -> Option<&'static str> {
    match *field(fields, key)? {
        FieldValue::Str(s) => Some(s),
        _ => None,
    }
}

/// Why a message was dropped (see [`TraceEvent::MsgDrop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The destination was dead at delivery time (churn).
    DeadDestination,
    /// The link conditioner lost it (random loss or a partition cut).
    Conditioner,
}

impl DropReason {
    /// Stable lowercase tag (used by trace writers).
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::DeadDestination => "dead_dst",
            DropReason::Conditioner => "link",
        }
    }
}

/// One scheduler or protocol event, stamped with virtual time by the sink
/// callback.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node came to life (before its `on_start` ran).
    NodeSpawn { node: NodeId, locality: LocalityId },
    /// A node failed silently (churn) or finished a graceful leave.
    NodeFail { node: NodeId },
    /// A node is about to leave gracefully (its `on_leave` runs next,
    /// followed by a `NodeFail`).
    NodeLeave { node: NodeId },
    /// A message was queued for delivery over a link.
    MsgSend {
        src: NodeId,
        dst: NodeId,
        /// Protocol class of the message (see `Node::msg_class`).
        class: &'static str,
        /// One-way link latency the delivery will take.
        latency_ms: u64,
    },
    /// A queued message reached a live destination.
    MsgDeliver {
        src: NodeId,
        dst: NodeId,
        class: &'static str,
    },
    /// A message was dropped: destination dead at delivery time, or lost
    /// on the link by the conditioner (see `reason`).
    MsgDrop {
        src: NodeId,
        dst: NodeId,
        class: &'static str,
        reason: DropReason,
    },
    /// A timer was armed.
    TimerSet {
        node: NodeId,
        class: &'static str,
        delay_ms: u64,
    },
    /// A timer fired on a live node.
    TimerFire { node: NodeId, class: &'static str },
    /// Protocol-defined event injected via `Ctx::trace`.
    Custom {
        node: NodeId,
        name: &'static str,
        fields: Fields,
    },
}

impl TraceEvent {
    /// Stable lowercase tag for the event kind (used by writers).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::NodeSpawn { .. } => "spawn",
            TraceEvent::NodeFail { .. } => "fail",
            TraceEvent::NodeLeave { .. } => "leave",
            TraceEvent::MsgSend { .. } => "send",
            TraceEvent::MsgDeliver { .. } => "deliver",
            TraceEvent::MsgDrop { .. } => "drop",
            TraceEvent::TimerSet { .. } => "timer_set",
            TraceEvent::TimerFire { .. } => "timer_fire",
            TraceEvent::Custom { .. } => "custom",
        }
    }
}

/// Receives every traced event, in deterministic scheduler order.
pub trait TraceSink {
    /// Called once per event; `at` is the virtual time of the step.
    fn event(&mut self, at: Time, ev: &TraceEvent);

    /// Called when the world's owner finishes a run (writers flush here).
    fn flush(&mut self) {}
}

/// Sink that buffers every event in memory behind a shared handle, so a
/// test can keep a clone and inspect the stream after the run.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Rc<RefCell<Vec<(Time, TraceEvent)>>>,
}

impl VecSink {
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<(Time, TraceEvent)> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl TraceSink for VecSink {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        self.events.borrow_mut().push((at, ev.clone()));
    }
}

/// Simulator-level invariant checker: validates that the event stream
/// itself is consistent — every delivery targets a node that spawned and
/// has not failed, and nodes never spawn twice. Protocol-level invariants
/// (directory uniqueness, query termination) live in `flower-cdn`; this
/// sink is the substrate check shared by every protocol, usable from any
/// crate's tests.
#[derive(Debug, Clone, Default)]
pub struct LivenessChecker {
    state: Rc<RefCell<LivenessState>>,
}

#[derive(Debug, Default)]
struct LivenessState {
    spawned: std::collections::BTreeSet<NodeId>,
    dead: std::collections::BTreeSet<NodeId>,
    violations: Vec<String>,
}

impl LivenessChecker {
    pub fn new() -> LivenessChecker {
        LivenessChecker::default()
    }

    /// Violations found so far (empty means the trace is consistent).
    pub fn violations(&self) -> Vec<String> {
        self.state.borrow().violations.clone()
    }

    /// Panic if any violation was recorded.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "trace invariant violations: {v:#?}");
    }
}

impl TraceSink for LivenessChecker {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        let mut st = self.state.borrow_mut();
        match ev {
            TraceEvent::NodeSpawn { node, .. } if !st.spawned.insert(*node) => {
                st.violations.push(format!("{at}: {node} spawned twice"));
            }
            TraceEvent::NodeFail { node } => {
                if !st.spawned.contains(node) {
                    st.violations
                        .push(format!("{at}: {node} failed before spawning"));
                }
                st.dead.insert(*node);
            }
            TraceEvent::MsgDeliver { dst, class, .. } => {
                if st.dead.contains(dst) {
                    st.violations
                        .push(format!("{at}: {class} delivered to failed node {dst}"));
                } else if !st.spawned.contains(dst) {
                    st.violations
                        .push(format!("{at}: {class} delivered to unknown node {dst}"));
                }
            }
            TraceEvent::TimerFire { node, class } if st.dead.contains(node) => {
                st.violations
                    .push(format!("{at}: timer {class} fired on failed node {node}"));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_conversions_and_display() {
        let fields: Fields = vec![
            ("a", 3u64.into()),
            ("b", "tag".into()),
            ("c", true.into()),
            ("e", NodeId::from_index(7).into()),
        ];
        let rendered: Vec<String> = fields.iter().map(|(_, v)| v.to_string()).collect();
        assert_eq!(rendered, ["3", "tag", "true", "7"]);
    }

    #[test]
    fn liveness_checker_flags_delivery_to_dead() {
        let checker = LivenessChecker::new();
        let mut sink = checker.clone();
        let n = NodeId::from_index(0);
        let m = NodeId::from_index(1);
        sink.event(
            Time::ZERO,
            &TraceEvent::NodeSpawn {
                node: n,
                locality: LocalityId(0),
            },
        );
        sink.event(
            Time::ZERO,
            &TraceEvent::NodeSpawn {
                node: m,
                locality: LocalityId(0),
            },
        );
        sink.event(Time::from_secs(1), &TraceEvent::NodeFail { node: m });
        sink.event(
            Time::from_secs(2),
            &TraceEvent::MsgDeliver {
                src: n,
                dst: m,
                class: "x",
            },
        );
        assert_eq!(checker.violations().len(), 1);
    }
}
