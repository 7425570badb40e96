//! The in-memory Chord host shared by `ring.rs`, `churn.rs` and the root
//! package's `tests/chord_golden.rs`: one `(time, seq)`-ordered event
//! queue, a fixed link latency, silent message loss to dead nodes. The loop
//! executes `Send` and `SetTimer` itself; what every other [`ChordAction`]
//! means — lookup and join outcomes, `JoinFailed`, `Isolated` — is the
//! test's [`Policy`]. This doubles as the reference for how a host applies
//! [`ChordAction`]s.

#![allow(dead_code)] // each test binary uses its own subset

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use chord::{Chord, ChordAction, ChordMsg, ChordTimer, NodeRef};
use simnet::{DropReason, LivenessChecker, LocalityId, NodeId, Time, TraceEvent, TraceSink};

enum Ev {
    Msg {
        to: NodeId,
        from: NodeId,
        msg: ChordMsg,
    },
    Timer {
        node: NodeId,
        timer: ChordTimer,
    },
}

/// What one test watches, and what it does with the actions that are a
/// host's to interpret.
pub trait Policy: Sized {
    /// Every action, before the host applies it.
    fn observe(&mut self, _now: u64, _me: NodeId, _action: &ChordAction) {}

    /// Every timer about to fire on a live node.
    fn timer_fires(&mut self, _now: u64, _node: &Chord, _timer: &ChordTimer) {}

    /// An action other than `Send` / `SetTimer`, emitted by `me`.
    fn outcome(host: &mut Host<Self>, me: NodeId, action: ChordAction);
}

pub struct Host<P> {
    pub now: u64,
    latency_ms: u64,
    /// `(due, seq)`; `seq` indexes `events`.
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    events: Vec<Option<Ev>>,
    pub nodes: BTreeMap<NodeId, Chord>,
    pub policy: P,
    /// Trace-driven consistency checker: the host mirrors its
    /// spawn/fail/deliver decisions into it, and tests assert the stream
    /// stayed consistent (no delivery to dead nodes, no double spawns).
    pub trace: LivenessChecker,
}

impl<P: Policy> Host<P> {
    pub fn new(latency_ms: u64, policy: P) -> Host<P> {
        Host {
            now: 0,
            latency_ms,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            nodes: BTreeMap::new(),
            policy,
            trace: LivenessChecker::new(),
        }
    }

    fn emit(&mut self, ev: TraceEvent) {
        self.trace.event(Time::from_millis(self.now), &ev);
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.queue.push(Reverse((at, self.events.len() as u64)));
        self.events.push(Some(ev));
    }

    pub fn apply(&mut self, me: NodeId, actions: Vec<ChordAction>) {
        for a in actions {
            self.policy.observe(self.now, me, &a);
            match a {
                ChordAction::Send { to, msg } => self.push(
                    self.now + self.latency_ms,
                    Ev::Msg {
                        to: to.node,
                        from: me,
                        msg,
                    },
                ),
                ChordAction::SetTimer { delay_ms, timer } => {
                    self.push(self.now + delay_ms, Ev::Timer { node: me, timer })
                }
                other => P::outcome(self, me, other),
            }
        }
    }

    /// Put a constructed node (`Chord::create` / `join` / `converged`) in
    /// place and apply its first actions. Re-bootstrapping a live node goes
    /// through here too: it is not a spawn.
    pub fn install(&mut self, me: NodeRef, (node, actions): (Chord, Vec<ChordAction>)) {
        self.nodes.insert(me.node, node);
        self.apply(me.node, actions);
    }

    /// [`install`](Host::install) a node that did not exist before.
    pub fn spawn(&mut self, me: NodeRef, built: (Chord, Vec<ChordAction>)) {
        self.emit(TraceEvent::NodeSpawn {
            node: me.node,
            locality: LocalityId(0),
        });
        self.install(me, built);
    }

    pub fn kill(&mut self, id: NodeId) {
        self.emit(TraceEvent::NodeFail { node: id });
        self.nodes.remove(&id);
    }

    /// Run `f` on node `id`, if it is alive, and apply what it returns.
    pub fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut Chord) -> Vec<ChordAction>) {
        if let Some(node) = self.nodes.get_mut(&id) {
            let actions = f(node);
            self.apply(id, actions);
        }
    }

    /// Every timer still queued for a live node.
    pub fn queued_timers(&self) -> impl Iterator<Item = (NodeId, &ChordTimer)> {
        self.events.iter().filter_map(|ev| match ev {
            Some(Ev::Timer { node, timer }) if self.nodes.contains_key(node) => {
                Some((*node, timer))
            }
            _ => None,
        })
    }

    pub fn run_until(&mut self, until: u64) {
        while let Some(&Reverse((at, seq))) = self.queue.peek() {
            if at > until {
                break;
            }
            self.queue.pop();
            self.now = at;
            match self.events[seq as usize].take().expect("popped once") {
                Ev::Msg { to, from, msg } => {
                    let class = msg.class();
                    if let Some(node) = self.nodes.get_mut(&to) {
                        let actions = node.handle_message(from, msg);
                        self.emit(TraceEvent::MsgDeliver {
                            src: from,
                            dst: to,
                            class,
                        });
                        self.apply(to, actions);
                    } else {
                        // Dropped — the sender will time out.
                        self.emit(TraceEvent::MsgDrop {
                            src: from,
                            dst: to,
                            class,
                            reason: DropReason::DeadDestination,
                        });
                    }
                }
                Ev::Timer { node, timer } => {
                    if let Some(n) = self.nodes.get_mut(&node) {
                        self.policy.timer_fires(at, n, &timer);
                        let actions = n.handle_timer(timer);
                        self.apply(node, actions);
                    }
                }
            }
        }
        self.now = until;
    }
}
