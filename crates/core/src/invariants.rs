//! Trace-driven protocol invariant checker.
//!
//! An [`InvariantChecker`] is a [`TraceSink`] that replays the structured
//! event stream of a run (scheduler events plus the protocol's
//! [`tags`] events) and checks the safety/liveness properties
//! the paper's protocols promise:
//!
//! 1. **Directory uniqueness** — at most one live directory peer holds a
//!    D-ring position `(ws, loc, inst)` at a time, *outside a bounded
//!    replacement window*. §5.2.2's replacement protocol deliberately
//!    creates transient overlaps (a replacement is installed while the
//!    ghost holder has not yet purged itself via its position check), so
//!    overlap is only a violation when it outlives the grace window.
//! 2. **Query termination** — every `query_issued` is matched by a
//!    `query_complete`, unless the issuer died mid-query or the query was
//!    issued too close to the horizon to finish.
//! 3. **PetalUp contiguity** — instance ids of a `(ws, loc)` couple appear
//!    in order: instance *i* may only materialise once *i − 1* has (§4's
//!    splits extend the couple one instance at a time).
//!
//! That the simulator hands no message to a dead node is the simulator's
//! own invariant, checked by [`LivenessChecker`](simnet::LivenessChecker).
//!
//! The checker is cheap enough to leave on in every integration test: it
//! keeps only the [`Ownership`] fold of who holds each position, open
//! contests and outstanding queries, no event log.
//!
//! Clone the checker before handing it to
//! [`World::add_trace_sink`](simnet::World::add_trace_sink) — all clones
//! share state, so the test keeps a handle for [`assert_clean`]
//! after the run.
//!
//! [`assert_clean`]: InvariantChecker::assert_clean

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use simnet::{field_u64, FieldValue, NodeId, Time, TraceEvent, TraceSink};

use crate::ownership::Ownership;
use crate::tags::{self, Pos};

/// Worst-case query lifetime (routing retries + fetch retries + origin
/// fallback). Queries issued within this window of the horizon are allowed
/// to still be pending when the run stops.
const QUERY_DEADLINE_MS: u64 = 120_000;

/// Tunables for the run being checked.
#[derive(Debug, Clone)]
pub struct InvariantConfig {
    /// §5.2.2 replacement window: how long two peers may simultaneously
    /// believe they hold the same D-ring position before it is a
    /// violation. Must cover a position-check round trip plus the ghost
    /// holder's purge timer.
    pub replacement_grace_ms: u64,
}

impl Default for InvariantConfig {
    fn default() -> InvariantConfig {
        InvariantConfig {
            replacement_grace_ms: 150_000,
        }
    }
}

#[derive(Default)]
struct State {
    cfg: InvariantConfig,
    violations: Vec<String>,
    /// Who holds each directory position. More than one holder = inside
    /// a replacement window.
    owners: Ownership,
    /// When a position last became multiply-held.
    contested_since: BTreeMap<Pos, Time>,
    /// Instance ids ever seen per (ws, loc) couple.
    instances: BTreeMap<(u64, u64), BTreeSet<u64>>,
    /// Outstanding queries: qid → (issuer, issued-at).
    pending: BTreeMap<u64, (NodeId, Time)>,
    issued: u64,
    completed: u64,
    last_event_at: Time,
    finalized: bool,
}

impl State {
    fn violation(&mut self, at: Time, msg: String) {
        self.violations.push(format!("[{at}] {msg}"));
    }

    /// A position with more than one holder is contested. The contest is
    /// over once one holder or none is left: a violation if it outlasted
    /// the replacement grace.
    fn contest(&mut self, at: Time, pos: Pos, holders: usize) {
        if holders > 1 {
            self.contested_since.entry(pos).or_insert(at);
        } else if let Some(since) = self.contested_since.remove(&pos) {
            let (lasted, grace_ms) = (at.since(since), self.cfg.replacement_grace_ms);
            if lasted > grace_ms {
                self.violation(
                    at,
                    format!(
                        "position (ws{}, loc{}, i{}) was multiply-held for \
                         {lasted}ms (> {grace_ms}ms replacement grace)",
                        pos.0, pos.1, pos.2
                    ),
                );
            }
        }
    }

    /// PetalUp contiguity: instance `i` requires `i − 1` to exist first.
    fn instance_seen(&mut self, at: Time, pos: Pos) {
        let (ws, loc, inst) = pos;
        let known_prev = inst == 0
            || self
                .instances
                .get(&(ws, loc))
                .is_some_and(|s| s.contains(&(inst - 1)));
        if !known_prev {
            self.violation(
                at,
                format!(
                    "instance i{inst} of (ws{ws}, loc{loc}) appeared before \
                     i{} ever existed",
                    inst - 1
                ),
            );
        }
        self.instances.entry((ws, loc)).or_default().insert(inst);
    }

    fn custom(
        &mut self,
        at: Time,
        node: NodeId,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) {
        match name {
            tags::QUERY_ISSUED => {
                if let Some(qid) = field_u64(fields, "qid") {
                    self.issued += 1;
                    self.pending.insert(qid, (node, at));
                }
            }
            tags::QUERY_COMPLETE => {
                if let Some(qid) = field_u64(fields, "qid") {
                    if self.pending.remove(&qid).is_some() {
                        self.completed += 1;
                    }
                }
            }
            tags::PETAL_SPLIT => {
                if let (Some(ws), Some(loc), Some(to)) = (
                    field_u64(fields, "ws"),
                    field_u64(fields, "loc"),
                    field_u64(fields, "to_inst"),
                ) {
                    self.instance_seen(at, (ws, loc, to));
                }
            }
            _ => {}
        }
    }

    /// End-of-run checks that only make sense once the stream stops.
    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let end = self.last_event_at;
        let deadline = QUERY_DEADLINE_MS;
        let overdue: Vec<(u64, NodeId, Time)> = self
            .pending
            .iter()
            .filter(|(_, (_, t))| end.since(*t) > deadline)
            .map(|(qid, (n, t))| (*qid, *n, *t))
            .collect();
        for (qid, issuer, t) in overdue {
            self.violation(
                end,
                format!(
                    "query {} (issued by live node {issuer} at {t}) never \
                     completed within {deadline}ms",
                    crate::qid::QueryId::from_raw(qid)
                ),
            );
        }
        let grace = self.cfg.replacement_grace_ms;
        let open: Vec<(Pos, Time)> = self
            .contested_since
            .iter()
            .filter(|(_, since)| end.since(**since) > grace)
            .map(|(p, s)| (*p, *s))
            .collect();
        for (pos, since) in open {
            let lasted = end.since(since);
            let by: Vec<String> = (self.owners.holders(pos).iter())
                .map(|(node, arrived)| format!("{node} since {arrived}"))
                .collect();
            self.violation(
                end,
                format!(
                    "position (ws{}, loc{}, i{}) still multiply-held at end of \
                     run ({lasted}ms > {grace}ms replacement grace) by {}",
                    pos.0,
                    pos.1,
                    pos.2,
                    by.join(", ")
                ),
            );
        }
    }
}

/// Clonable [`TraceSink`] checking the protocol invariants above. All
/// clones share one state, so keep one handle and give the
/// [`World`](simnet::World) another.
#[derive(Clone, Default)]
pub struct InvariantChecker {
    state: Rc<RefCell<State>>,
}

impl InvariantChecker {
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    pub fn with_config(cfg: InvariantConfig) -> InvariantChecker {
        let c = InvariantChecker::default();
        c.state.borrow_mut().cfg = cfg;
        c
    }

    /// Violations recorded so far. Runs the end-of-stream checks, so call
    /// only after the run (or after `flush_trace_sinks`).
    pub fn violations(&self) -> Vec<String> {
        let mut s = self.state.borrow_mut();
        s.finalize();
        s.violations.clone()
    }

    /// Panic with the full violation list if any invariant broke.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(
            v.is_empty(),
            "protocol invariants violated:\n{}",
            v.join("\n")
        );
    }

    /// Total `query_issued` events observed.
    pub fn queries_issued(&self) -> u64 {
        self.state.borrow().issued
    }

    /// Total `query_complete` events matched to an issue.
    pub fn queries_completed(&self) -> u64 {
        self.state.borrow().completed
    }

    /// Highest instance id ever seen for a `(ws, loc)` couple.
    pub fn max_instance(&self, ws: u64, loc: u64) -> Option<u64> {
        self.state
            .borrow()
            .instances
            .get(&(ws, loc))
            .and_then(|s| s.iter().next_back().copied())
    }
}

impl TraceSink for InvariantChecker {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        let mut s = self.state.borrow_mut();
        s.last_event_at = at;
        for c in s.owners.fold(at, ev) {
            if c.arrived {
                s.instance_seen(at, c.pos);
            }
            s.contest(at, c.pos, c.holders);
        }
        match ev {
            // A dead issuer can never complete its queries; drop them.
            TraceEvent::NodeFail { node } | TraceEvent::NodeLeave { node } => {
                s.pending.retain(|_, (issuer, _)| issuer != node);
            }
            TraceEvent::Custom { node, name, fields } => s.custom(at, *node, name, fields),
            _ => {}
        }
    }

    fn flush(&mut self) {
        self.state.borrow_mut().finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(checker: &mut InvariantChecker, at: u64, e: TraceEvent) {
        checker.event(Time(at), &e);
    }

    fn custom(
        node: u64,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> TraceEvent {
        TraceEvent::Custom {
            node: NodeId::from_index(node as usize),
            name,
            fields,
        }
    }

    fn pos_fields(ws: u64, loc: u64, inst: u64) -> Vec<(&'static str, FieldValue)> {
        vec![
            ("ws", ws.into()),
            ("loc", loc.into()),
            ("inst", inst.into()),
        ]
    }

    #[test]
    fn transient_replacement_overlap_is_tolerated() {
        let mut c = InvariantChecker::new();
        ev(
            &mut c,
            0,
            custom(1, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        // Replacement installed while the ghost holder lingers…
        ev(
            &mut c,
            10_000,
            custom(2, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        // …and the ghost purges itself within the grace window.
        ev(
            &mut c,
            40_000,
            custom(1, tags::DEMOTED, pos_fields(0, 0, 0)),
        );
        ev(&mut c, 500_000, custom(9, "noop", vec![]));
        c.assert_clean();
    }

    #[test]
    fn persistent_double_holding_is_flagged() {
        let mut c = InvariantChecker::with_config(InvariantConfig {
            replacement_grace_ms: 30_000,
        });
        ev(
            &mut c,
            0,
            custom(1, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        ev(
            &mut c,
            1_000,
            custom(2, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        ev(
            &mut c,
            90_000,
            custom(1, tags::DEMOTED, pos_fields(0, 0, 0)),
        );
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("multiply-held"), "{v:?}");
    }

    /// Node 1 holds two positions, each contested by a later holder; its
    /// failure ends both contests within the grace.
    #[test]
    fn a_failure_drops_the_node_from_every_position_it_held() {
        let mut c = InvariantChecker::new();
        for (node, inst) in [(1, 0), (1, 1), (2, 0), (3, 1)] {
            let fields = pos_fields(0, 0, inst);
            ev(&mut c, 0, custom(node, tags::BECAME_DIRECTORY, fields));
        }
        let node = NodeId::from_index(1);
        ev(&mut c, 1_000, TraceEvent::NodeFail { node });
        ev(&mut c, 500_000, custom(9, "noop", vec![]));
        c.assert_clean();
    }

    /// Every violation is kept: the count is not capped.
    #[test]
    fn every_violation_is_kept() {
        let mut c = InvariantChecker::new();
        for ws in 0..65 {
            ev(
                &mut c,
                0,
                custom(1, tags::BECAME_DIRECTORY, pos_fields(ws, 0, 2)),
            );
        }
        assert_eq!(c.violations().len(), 65);
    }

    #[test]
    fn query_must_terminate_unless_issuer_dies() {
        let mut c = InvariantChecker::new();
        let q1 = crate::qid::QueryId::new(NodeId::from_index(1), 1).raw();
        let q2 = crate::qid::QueryId::new(NodeId::from_index(2), 1).raw();
        let q3 = crate::qid::QueryId::new(NodeId::from_index(3), 1).raw();
        ev(
            &mut c,
            0,
            custom(1, tags::QUERY_ISSUED, vec![("qid", q1.into())]),
        );
        ev(
            &mut c,
            0,
            custom(2, tags::QUERY_ISSUED, vec![("qid", q2.into())]),
        );
        ev(
            &mut c,
            0,
            custom(3, tags::QUERY_ISSUED, vec![("qid", q3.into())]),
        );
        // q1 completes, q2's issuer dies, q3 dangles.
        ev(
            &mut c,
            500,
            custom(1, tags::QUERY_COMPLETE, vec![("qid", q1.into())]),
        );
        ev(
            &mut c,
            600,
            TraceEvent::NodeFail {
                node: NodeId::from_index(2),
            },
        );
        ev(&mut c, 150_000, custom(9, "noop", vec![]));
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("q3.1"), "{v:?}");
        assert_eq!(c.queries_issued(), 3);
        assert_eq!(c.queries_completed(), 1);
    }

    #[test]
    fn petalup_instances_must_be_contiguous() {
        let mut c = InvariantChecker::new();
        ev(
            &mut c,
            0,
            custom(1, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        ev(
            &mut c,
            1,
            custom(2, tags::BECAME_DIRECTORY, pos_fields(0, 0, 1)),
        );
        assert!(c.violations().is_empty());
        assert_eq!(c.max_instance(0, 0), Some(1));

        let mut c2 = InvariantChecker::new();
        ev(
            &mut c2,
            0,
            custom(1, tags::BECAME_DIRECTORY, pos_fields(0, 0, 0)),
        );
        ev(
            &mut c2,
            1,
            custom(2, tags::BECAME_DIRECTORY, pos_fields(0, 0, 2)),
        );
        let v = c2.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("i2"), "{v:?}");
    }
}
